// Raw (non-differentiable) tensor kernels.
//
// These are the computational primitives the autograd layer builds on. All
// functions validate shapes with DDNN_CHECK and allocate their results; the
// *_into variants accumulate in place and are used on gradient buffers.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace ddnn::ops {

// ---------------------------------------------------------------- elementwise

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);
/// sign with sign(0) = +1, so binarized values are always in {-1, +1}.
Tensor sign(const Tensor& a);

/// y += alpha * x (shapes must match).
void axpy_into(Tensor& y, float alpha, const Tensor& x);

// ------------------------------------------------------------------- matmul

/// C[m,n] = A[m,k] * B[k,n]
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[m,n] = A[k,m]^T * B[k,n]
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] * B[n,k]^T
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// matmul_nt writing into a caller-provided [m,n] tensor (every element is
/// overwritten — safe on a dirty planner arena). Same kernel, same bits.
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c);

Tensor transpose2d(const Tensor& a);

// --------------------------------------------------------------- reductions

float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
float max_all(const Tensor& a);

/// Row-wise argmax of a [m, n] matrix.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

/// Row-wise numerically-stable softmax of a [m, n] matrix.
Tensor softmax_rows(const Tensor& a);

// -------------------------------------------------------------- broadcasting

/// X[m,n] + b[n] broadcast over rows.
Tensor add_row_vector(const Tensor& x, const Tensor& b);
/// In-place row broadcast: x[i,j] = x[i,j] + b[j]. Bit-identical to
/// add_row_vector (same expression, same order).
void add_row_vector_inplace(Tensor& x, const Tensor& b);

/// Column-wise sum of a [m, n] matrix -> [n]. (Gradient of the broadcast.)
Tensor sum_rows(const Tensor& x);

// ---------------------------------------------------------------- batch norm

/// Normalization constants of one batch-norm channel, and the one
/// expression that applies them. batch_norm_apply and the fused ConvP tail
/// (nn::pool_bn_sign) both evaluate through this inline helper rather
/// than each spelling the formula: g++ contracts `gamma * x_hat + beta` into
/// an FMA under the shipped -std=c++20 -O3 -march=native, and a second copy
/// of the expression would be free to round differently.
struct BnChannel {
  float mean;
  float inv_std;
  float gamma;
  float beta;

  static BnChannel of(float gamma, float beta, float mean, float var,
                      float eps) {
    return {mean, 1.0f / std::sqrt(var + eps), gamma, beta};
  }
  float normalize(float x) const { return (x - mean) * inv_std; }
  float affine(float x_hat) const { return gamma * x_hat + beta; }
};

/// Batch-norm normalization pass over [N, F] (spatial size 1) or
/// [N, C, H, W] (per-channel over N*H*W):
///   inv_std[c] = 1 / sqrt(var[c] + eps)
///   x_hat      = (x - mean[c]) * inv_std[c]
///   out        = gamma[c] * x_hat + beta[c]
/// inv_std must be [channels]; x_hat and out must match x's shape. Both the
/// autograd batch_norm and the inference engine call this one compiled
/// kernel, so the two paths round identically (bit-identity contract).
void batch_norm_apply(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      const Tensor& mean, const Tensor& var, float eps,
                      Tensor& inv_std, Tensor& x_hat, Tensor& out);

}  // namespace ddnn::ops
