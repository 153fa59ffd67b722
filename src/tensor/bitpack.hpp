// Bit-packing of binarized activations for the wire format.
//
// After a binary activation every value is exactly -1.0f or +1.0f, so a
// feature map of `n` activations travels as ceil(n / 8) bytes. This is the
// `f * o / 8` term of the paper's communication-cost model (Eq. 1) and is
// what the simulated device->cloud links carry.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace ddnn {

/// Sign bits of p[0, m), m <= 64, LSB first (bit = 1 for x >= 0, so -0.0
/// sets its bit and NaN does not): one 64-bit word of every sign pack.
inline std::uint64_t pack_sign_word(const float* p, std::int64_t m) {
  std::uint64_t bits = 0;
  for (std::int64_t j = 0; j < m; ++j) {
    bits |= static_cast<std::uint64_t>(p[j] >= 0.0f) << j;
  }
  return bits;
}

/// True when some value in p[0, m) is not exactly +1.0f or -1.0f (NaN
/// included). Counts in an integer rather than or-ing bools, so the scan
/// vectorizes.
inline bool any_non_pm1(const float* p, std::int64_t m) {
  std::int32_t bad = 0;
  for (std::int64_t j = 0; j < m; ++j) bad += std::fabs(p[j]) != 1.0f;
  return bad != 0;
}

/// Bytes needed to carry `numel` sign bits.
std::int64_t packed_size_bytes(std::int64_t numel);

/// Pack signs of `t` (bit = 1 for x >= 0). Trailing bits of the last byte
/// are zero.
std::vector<std::uint8_t> pack_signs(const Tensor& t);

/// pack_signs for a tensor that must be binarized, validated in the same
/// pass: `first_bad` receives the index of the first value that is not
/// exactly +1.0f or -1.0f, or -1 when every value is. The bytes are only
/// meaningful when first_bad is -1.
std::vector<std::uint8_t> pack_binarized(const Tensor& t,
                                         std::int64_t& first_bad);

/// Inverse of pack_signs: produces a tensor of the given shape with values
/// in {-1, +1}.
Tensor unpack_signs(const std::vector<std::uint8_t>& bytes, Shape shape);

}  // namespace ddnn
