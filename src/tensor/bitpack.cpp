#include "tensor/bitpack.hpp"

#include <algorithm>
#include <cmath>

namespace ddnn {

namespace {

/// Packs n sign bits a 64-bit word at a time. When `first_bad` is given,
/// also checks in the same pass that every value is exactly ±1 and stores
/// the index of the first one that is not (-1 when all are).
std::vector<std::uint8_t> pack_words(const Tensor& t, std::int64_t* first_bad) {
  DDNN_CHECK(t.defined(), "pack_signs of undefined tensor");
  const std::int64_t n = t.numel();
  DDNN_CHECK(n > 0, "pack_signs of empty tensor (shape "
                        << t.shape().to_string() << ")");
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(packed_size_bytes(n)));
  const float* p = t.data();
  if (first_bad != nullptr) *first_bad = -1;
  for (std::int64_t base = 0; base < n; base += 64) {
    const std::int64_t m = std::min<std::int64_t>(64, n - base);
    if (first_bad != nullptr && any_non_pm1(p + base, m)) {
      std::int64_t j = 0;
      while (std::fabs(p[base + j]) == 1.0f) ++j;
      *first_bad = base + j;
      return bytes;
    }
    // A constant trip count for full words lets the bit loop vectorize.
    const std::uint64_t bits = m == 64 ? pack_sign_word(p + base, 64)
                                       : pack_sign_word(p + base, m);
    // Little-endian byte order: bit i lands in byte i / 8, bit i % 8.
    const std::int64_t nbytes = (m + 7) / 8;
    for (std::int64_t b = 0; b < nbytes; ++b) {
      bytes[static_cast<std::size_t>(base / 8 + b)] =
          static_cast<std::uint8_t>(bits >> (8 * b));
    }
  }
  return bytes;
}

}  // namespace

std::int64_t packed_size_bytes(std::int64_t numel) {
  DDNN_CHECK(numel >= 0, "negative element count");
  return (numel + 7) / 8;
}

std::vector<std::uint8_t> pack_signs(const Tensor& t) {
  return pack_words(t, nullptr);
}

std::vector<std::uint8_t> pack_binarized(const Tensor& t,
                                         std::int64_t& first_bad) {
  return pack_words(t, &first_bad);
}

Tensor unpack_signs(const std::vector<std::uint8_t>& bytes, Shape shape) {
  const std::int64_t n = shape.numel();
  DDNN_CHECK(n > 0, "unpack_signs to empty shape " << shape.to_string());
  DDNN_CHECK(static_cast<std::int64_t>(bytes.size()) == packed_size_bytes(n),
             "unpack_signs: byte count " << bytes.size()
                                         << " does not match shape "
                                         << shape.to_string());
  Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t base = 0; base < n; base += 64) {
    const std::int64_t m = std::min<std::int64_t>(64, n - base);
    std::uint64_t bits = 0;
    for (std::int64_t b = 0; b < (m + 7) / 8; ++b) {
      const std::uint8_t byte = bytes[static_cast<std::size_t>(base / 8 + b)];
      bits |= static_cast<std::uint64_t>(byte) << (8 * b);
    }
    for (std::int64_t j = 0; j < m; ++j) {
      p[base + j] = (bits >> j) & 1u ? 1.0f : -1.0f;
    }
  }
  return t;
}

}  // namespace ddnn
