// im2col / col2im lowering for convolution and spatial pooling.
//
// Convolutions are computed as matrix products over the "col" matrix:
//   cols[N*OH*OW, C*KH*KW] built from the padded input, then
//   out = cols * W^T with W reshaped to [F, C*KH*KW].
// col2im is the exact adjoint (it accumulates overlapping patches) and is
// used for the gradient with respect to the input.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace ddnn {

/// Geometry of a sliding 2-D window.
struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;

  std::int64_t out_h() const {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
  std::int64_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

/// Output positions [lo, hi) along one axis whose input position
/// o * stride - pad + k lies in [0, in_size): the in-bounds span of window
/// offset k, for convolution and pooling windows alike.
struct OutRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

inline OutRange valid_out_range(std::int64_t k, std::int64_t stride,
                                std::int64_t pad, std::int64_t in_size,
                                std::int64_t out_size) {
  // Stepped in from both ends rather than divided out: only the few edge
  // positions a padded window overhangs are out of bounds, and the kernels
  // call this per window row, where an integer divide would dominate.
  const std::int64_t shift = k - pad;  // input = o*stride + shift
  OutRange r{0, out_size};
  while (r.lo < r.hi && r.lo * stride + shift < 0) ++r.lo;
  while (r.hi > r.lo && (r.hi - 1) * stride + shift >= in_size) --r.hi;
  return r;
}

/// x: [N, C, H, W] -> cols: [N * OH * OW, C * KH * KW]. Out-of-bounds (padded)
/// positions contribute 0.
Tensor im2col(const Tensor& x, const Conv2dGeometry& g);

/// im2col writing into a caller-provided cols tensor. Unlike im2col (which
/// relies on zero-initialized storage), every element is written — padded
/// positions get an explicit 0 — so it is safe on a dirty planner arena.
void im2col_into(const Tensor& x, const Conv2dGeometry& g, Tensor& cols);

/// Adjoint of im2col: scatters cols back into an [N, C, H, W] tensor,
/// accumulating overlapping contributions.
Tensor col2im(const Tensor& cols, const Conv2dGeometry& g, std::int64_t batch);

}  // namespace ddnn
