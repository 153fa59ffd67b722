// Sixteen-float vector lanes for the register-resident ConvP kernels
// (bitgemm::sign_conv2d and MaxPool2d::pool_plane). A GCC vector type, so
// the kernels need no intrinsics: on AVX-512 a Lanes value is one register,
// on AVX2 two.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace ddnn::lanes {

using Lanes = float __attribute__((vector_size(64)));
constexpr std::int64_t kLanes = 16;

/// x in every lane.
inline Lanes splat(float x) {
  Lanes v;
  for (std::int64_t t = 0; t < kLanes; ++t) v[t] = x;
  return v;
}

/// p[0, kLanes) as one vector (an unaligned load).
inline Lanes load(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The first n <= kLanes lanes of v to p[0, n).
inline void store(float* p, const Lanes& v, std::int64_t n = kLanes) {
  if (n == kLanes) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::int64_t t = 0; t < n; ++t) p[t] = v[t];
  }
}

/// Write the [h, w] plane `src` into the [ph, pw] plane `dst` (pw >=
/// kLanes) at offset (pad, pad) and `fill` everywhere else; image rows and
/// columns past dst's edge are dropped. Every store is a whole vector: the
/// border vectors go first and may overlap the image columns, which the
/// row copy then overwrites (a short std::fill_n or std::copy_n per row
/// costs more than the row itself).
inline void pad_plane(const float* src, std::int64_t h, std::int64_t w,
                      std::int64_t pad, float fill, std::int64_t ph,
                      std::int64_t pw, float* dst) {
  const Lanes border = splat(fill);
  const std::int64_t cw = std::clamp<std::int64_t>(pw - pad, 0, w);
  const auto fill_span = [&](float* row, std::int64_t lo, std::int64_t hi) {
    for (std::int64_t x = lo; x < hi; x += kLanes) {
      store(row + std::min(x, pw - kLanes), border);
    }
  };
  for (std::int64_t y = 0; y < ph; ++y) {
    float* row = dst + y * pw;
    const std::int64_t iy = y - pad;
    if (iy < 0 || iy >= h) {
      fill_span(row, 0, pw);
      continue;
    }
    fill_span(row, 0, std::min(pad, pw));
    fill_span(row, pad + cw, pw);
    const float* in = src + iy * w;
    float* out = row + pad;
    if (cw < kLanes) {
      for (std::int64_t x = 0; x < cw; ++x) out[x] = in[x];
      continue;
    }
    for (std::int64_t x = 0; x < cw; x += kLanes) {
      const std::int64_t at = std::min(x, cw - kLanes);
      store(out + at, load(in + at));
    }
  }
}

}  // namespace ddnn::lanes
