// Bit-packed GEMM kernels for binarized inference.
//
// A binarized layer's weights are ±1, so a row of K weights packs into
// ceil(K/64) words of sign bits (bit = 1 for w >= 0, the same convention as
// bitpack.hpp and ops::sign). Two kernel families execute against the pack:
//
//   XNOR-popcount  — when the input is itself ±1, a dot product over K
//                    in-bounds terms is K - 2*popcount(x ^ w): pure integer
//                    arithmetic, exact, then converted to float (lossless
//                    for K < 2^24).
//   sign-accumulate — when the input is full-precision float (raw images,
//                    CC-projected feature maps), terms x * (±1) are
//                    accumulated in exactly the order ops::matmul_nt uses
//                    (patch index ascending). Multiplying by ±1.0f is exact
//                    in IEEE-754, so the partial sums match the float path
//                    bit-for-bit.
//
// Both are therefore bit-identical to the autograd path (im2col + float
// GEMM over sign(w)); padded positions contribute 0 * (±1) = ±0 there,
// which never changes a partial sum that starts at +0, so the XNOR conv
// skips them. The convolution kernels never materialize the col
// matrix and write NCHW output in place.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace ddnn::bitgemm {

/// Sign bits of a [rows, cols] matrix, one 64-bit-word-aligned row each
/// (LSB-first within a word; trailing bits of the last word are zero).
struct PackedBits {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t words_per_row = 0;
  std::vector<std::uint64_t> bits;

  const std::uint64_t* row(std::int64_t r) const {
    return bits.data() + r * words_per_row;
  }
};

/// A binarized weight matrix in both kernel forms: packed sign bits for the
/// XNOR path and a transposed ±1.0f matrix (signs_t[k * rows + r]) for the
/// sign-accumulate path, where consecutive output features are contiguous.
struct PackedSigns {
  PackedBits bits;
  std::vector<float> signs_t;
};

/// A binarized [F, C, KH, KW] conv weight packed tap-major for
/// xnor_conv2d, [KH][KW][ceil(C/64)][filter_stride]: word
/// ((ky * KW + kx) * channel_words + w) * filter_stride + f holds the sign
/// bits of channels [64w, 64w + 64) of filter f at tap (ky, kx),
/// LSB-first, with bits past C zero. Filters are innermost, so one input
/// word meets a block of filters' words in one contiguous run;
/// filter_stride is F rounded up to the kernel's filter block, and the pad
/// filters' words are zero.
struct PackedTaps {
  std::int64_t filters = 0;
  std::int64_t channels = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t channel_words = 0;
  std::int64_t filter_stride = 0;
  std::vector<std::uint64_t> bits;
};

/// Pack the sign bits of `rows` x `cols` row-major floats into `out`
/// (bit = 1 for x >= 0). Reuses out's storage when already sized.
void pack_sign_rows(const float* data, std::int64_t rows, std::int64_t cols,
                    PackedBits& out);

/// Both kernel forms of a binarized [rows, cols] weight matrix.
PackedSigns pack_signs_matrix(const float* data, std::int64_t rows,
                              std::int64_t cols);

/// Re-lay a conv weight's row pack ([F, C*KH*KW] bits in im2col patch
/// order c, ky, kx) tap-major.
PackedTaps pack_conv_taps(const PackedBits& w, std::int64_t kernel_h,
                          std::int64_t kernel_w);

/// True when every element is exactly +1.0f or -1.0f (selects the XNOR
/// path; binary-activation outputs always qualify).
bool all_pm1(const Tensor& t);

/// y[m, out] = x · signs(w)^T for ±1 input x [m, k] (XNOR-popcount).
/// Bit-identical to ops::matmul_nt(x, sign(w)).
void xnor_linear(const Tensor& x, const PackedBits& w, Tensor& out);

/// y[m, out] = x · signs(w)^T for arbitrary float x (sign-accumulate).
void sign_linear(const Tensor& x, const PackedSigns& w, Tensor& out);

/// Binary convolution over a ±1 input, writing [N, F, OH, OW]: a direct
/// conv over channel bits. Each image is packed once as [H][W][ceil(C/64)]
/// words; each output pixel sums popcount(x ^ w) over its in-bounds taps
/// and is valid_taps * C - 2 * disagree (padded taps contribute nothing,
/// as im2col's 0 * ±1 adds nothing to the float path's +0 sums).
void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedTaps& w,
                 Tensor& out);

/// xnor_conv2d over a row pack: re-lays it with pack_conv_taps per call.
void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedBits& w,
                 Tensor& out);

/// Binary convolution over a float input: register-tiled sign-accumulate
/// over a zero-padded copy of each image, every output's terms added in
/// im2col patch order (c, ky, kx) from +0 (see bitgemm.cpp).
void sign_conv2d(const Tensor& x, const Conv2dGeometry& g,
                 const PackedSigns& w, Tensor& out);

}  // namespace ddnn::bitgemm
