#include "nn/layers.hpp"

#include <cmath>
#include <limits>

#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace ddnn::nn {

namespace {

/// Reorder [N*OH*OW, F] -> [N, F, OH, OW] into `out` (same layout move the
/// autograd conv2d performs after its GEMM).
void rows_to_nchw_into(const Tensor& mat, std::int64_t n, std::int64_t f,
                       std::int64_t oh, std::int64_t ow, Tensor& out) {
  const float* pm = mat.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        const float* row = pm + ((b * oh + y) * ow + x) * f;
        for (std::int64_t c = 0; c < f; ++c) {
          po[((b * f + c) * oh + y) * ow + x] = row[c];
        }
      }
    }
  }
}

}  // namespace

float glorot_bound(std::int64_t fan_in, std::int64_t fan_out) {
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}

Tensor sign_tensor(const Tensor& x, infer::Workspace& ws) {
  Tensor out = ws.acquire(x.shape());
  ws.note_use(x);
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = px[i] < 0.0f ? -1.0f : 1.0f;
  return out;
}

Tensor relu_tensor(const Tensor& x, infer::Workspace& ws) {
  Tensor out = ws.acquire(x.shape());
  ws.note_use(x);
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  // Bit-identical to the autograd path's clamp(x, 0, +inf): min(+inf, y) is
  // the identity for every y max() can produce (max(0, NaN) is already 0
  // under (a<b)?b:a, and +inf survives both), so only the max remains.
  for (std::int64_t i = 0; i < n; ++i) {
    po[i] = std::max(0.0f, px[i]);
  }
  return out;
}

namespace detail {

const bitgemm::PackedSigns& PackedWeightCache::get(const autograd::Variable& w,
                                                   std::int64_t rows,
                                                   std::int64_t cols) {
  const std::uint64_t want = w.version() + 1;
  if (stamp.load(std::memory_order_acquire) != want) {
    std::lock_guard<std::mutex> lock(mu);
    if (stamp.load(std::memory_order_relaxed) != want) {
      packed = bitgemm::pack_signs_matrix(w.value().data(), rows, cols);
      if (w.value().ndim() == 4) {
        taps = bitgemm::pack_conv_taps(packed.bits, w.value().dim(2),
                                       w.value().dim(3));
      }
      stamp.store(want, std::memory_order_release);
    }
  }
  return packed;
}

}  // namespace detail

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_(in_features), out_(out_features) {
  DDNN_CHECK(in_ > 0 && out_ > 0, "Linear: non-positive feature count");
  const float bound = glorot_bound(in_, out_);
  weight_ = add_parameter(
      "weight", Tensor::rand_uniform(Shape{out_, in_}, rng, -bound, bound));
  if (bias) bias_ = add_parameter("bias", Tensor::zeros(Shape{out_}));
}

Variable Linear::forward(const Variable& x) {
  return autograd::linear(x, weight_, bias_);
}

Tensor Linear::infer(const Tensor& x, infer::Workspace& ws) {
  // Full-precision path: call the exact kernels autograd::linear uses so
  // the rounding (and therefore the bits) cannot diverge.
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == in_,
             "Linear::infer: bad input shape " << x.shape().to_string());
  Tensor out = ws.acquire(Shape{x.dim(0), out_});
  ws.note_use(x);
  ops::matmul_nt_into(x, weight_.value(), out);
  if (bias_.defined()) ops::add_row_vector_inplace(out, bias_.value());
  return out;
}

BinaryLinear::BinaryLinear(std::int64_t in_features, std::int64_t out_features,
                           Rng& rng)
    : in_(in_features), out_(out_features) {
  DDNN_CHECK(in_ > 0 && out_ > 0, "BinaryLinear: non-positive feature count");
  const float bound = glorot_bound(in_, out_);
  weight_ = add_parameter(
      "weight", Tensor::rand_uniform(Shape{out_, in_}, rng, -bound, bound),
      /*clamp_to_unit=*/true);
}

Variable BinaryLinear::forward(const Variable& x) {
  return autograd::linear(x, autograd::binarize(weight_), Variable());
}

Tensor BinaryLinear::infer(const Tensor& x, infer::Workspace& ws) {
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == in_,
             "BinaryLinear::infer: bad input shape " << x.shape().to_string());
  const bitgemm::PackedSigns& w = packed_.get(weight_, out_, in_);
  Tensor out = ws.acquire(Shape{x.dim(0), out_});
  ws.note_use(x);
  if (bitgemm::all_pm1(x)) {
    bitgemm::xnor_linear(x, w.bits, out);
  } else {
    bitgemm::sign_linear(x, w, out);
  }
  return out;
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng, bool bias)
    : stride_(stride), pad_(pad) {
  DDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "Conv2d: bad dimensions");
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const std::int64_t fan_out = out_channels * kernel * kernel;
  const float bound = glorot_bound(fan_in, fan_out);
  weight_ = add_parameter(
      "weight",
      Tensor::rand_uniform(Shape{out_channels, in_channels, kernel, kernel},
                           rng, -bound, bound));
  if (bias) bias_ = add_parameter("bias", Tensor::zeros(Shape{out_channels}));
}

Variable Conv2d::forward(const Variable& x) {
  return autograd::conv2d(x, weight_, bias_, stride_, pad_);
}

Tensor Conv2d::infer(const Tensor& x, infer::Workspace& ws) {
  const Tensor& wt = weight_.value();  // [F, C, KH, KW]
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == wt.dim(1),
             "Conv2d::infer: bad input shape " << x.shape().to_string());
  Conv2dGeometry g{.in_channels = wt.dim(1),
                   .in_h = x.dim(2),
                   .in_w = x.dim(3),
                   .kernel_h = wt.dim(2),
                   .kernel_w = wt.dim(3),
                   .stride = stride_,
                   .pad = pad_};
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  // Same lowering as autograd::conv2d: im2col, then the GEMM tail below —
  // with the GEMM scratch matrices drawn from the workspace so the planner
  // sees (and bounds) the conv's true working set.
  Tensor cols = ws.acquire(Shape{n * oh * ow, g.patch_size()});
  ws.note_use(x);
  im2col_into(x, g, cols);
  return infer_cols(cols, n, oh, ow, ws);
}

Tensor Conv2d::infer_cols(const Tensor& cols, std::int64_t n, std::int64_t oh,
                          std::int64_t ow, infer::Workspace& ws) {
  const Tensor& wt = weight_.value();
  const std::int64_t f = wt.dim(0), patch = wt.numel() / f;
  DDNN_CHECK(cols.ndim() == 2 && cols.dim(0) == n * oh * ow &&
                 cols.dim(1) == patch,
             "Conv2d::infer_cols: bad operand shape "
                 << cols.shape().to_string());
  const Tensor wmat = wt.reshape(Shape{f, patch});
  Tensor outmat = ws.acquire(Shape{n * oh * ow, f});
  ws.note_use(cols);
  ops::matmul_nt_into(cols, wmat, outmat);
  if (bias_.defined()) ops::add_row_vector_inplace(outmat, bias_.value());
  Tensor out = ws.acquire(Shape{n, f, oh, ow});
  ws.note_use(outmat);
  rows_to_nchw_into(outmat, n, f, oh, ow, out);
  return out;
}

BinaryConv2d::BinaryConv2d(std::int64_t in_channels, std::int64_t out_channels,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, Rng& rng)
    : stride_(stride), pad_(pad) {
  DDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "BinaryConv2d: bad dimensions");
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const std::int64_t fan_out = out_channels * kernel * kernel;
  const float bound = glorot_bound(fan_in, fan_out);
  weight_ = add_parameter(
      "weight",
      Tensor::rand_uniform(Shape{out_channels, in_channels, kernel, kernel},
                           rng, -bound, bound),
      /*clamp_to_unit=*/true);
}

Variable BinaryConv2d::forward(const Variable& x) {
  return autograd::conv2d(x, autograd::binarize(weight_), Variable(), stride_,
                          pad_);
}

Tensor BinaryConv2d::infer(const Tensor& x, infer::Workspace& ws) {
  const Tensor& wt = weight_.value();  // [F, C, KH, KW]
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == wt.dim(1),
             "BinaryConv2d::infer: bad input shape " << x.shape().to_string());
  Conv2dGeometry g{.in_channels = wt.dim(1),
                   .in_h = x.dim(2),
                   .in_w = x.dim(3),
                   .kernel_h = wt.dim(2),
                   .kernel_w = wt.dim(3),
                   .stride = stride_,
                   .pad = pad_};
  const bitgemm::PackedSigns& w =
      packed_.get(weight_, wt.dim(0), g.patch_size());
  Tensor out = ws.acquire(Shape{x.dim(0), wt.dim(0), g.out_h(), g.out_w()});
  ws.note_use(x);
  if (bitgemm::all_pm1(x)) {
    bitgemm::xnor_conv2d(x, g, packed_.taps, out);
  } else {
    bitgemm::sign_conv2d(x, g, w, out);
  }
  return out;
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {
  DDNN_CHECK(kernel_ > 0 && stride_ > 0 && pad_ >= 0, "MaxPool2d: bad config");
}

Variable MaxPool2d::forward(const Variable& x) {
  return autograd::max_pool2d(x, kernel_, stride_, pad_);
}

Shape MaxPool2d::out_shape(const Shape& in) const {
  DDNN_CHECK(in.ndim() == 4, "MaxPool2d expects [N, C, H, W], got "
                                 << in.to_string());
  const std::int64_t oh = (in[2] + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (in[3] + 2 * pad_ - kernel_) / stride_ + 1;
  DDNN_CHECK(oh > 0 && ow > 0, "MaxPool2d: empty output for input "
                                   << in.to_string());
  return Shape{in[0], in[1], oh, ow};
}

namespace {

/// The window scan of MaxPool2d::pool_plane; K_T/S_T > 0 bake the kernel
/// and stride into the instantiation (the ConvP blocks' 3x3/s2 pool gets
/// its own: with them constant the interior scan unrolls and vectorizes,
/// about 2.5x faster than the runtime-sized one).
template <int K_T, int S_T>
void pool_plane_scan(const float* plane, std::int64_t h, std::int64_t w,
                     std::int64_t kernel, std::int64_t stride_arg,
                     std::int64_t pad, float* out) {
  const std::int64_t k = K_T > 0 ? K_T : kernel;
  const std::int64_t stride = S_T > 0 ? S_T : stride_arg;
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  // Window rows are clamped per output row. Along a row, the outputs in
  // [inner.lo, inner.hi) have every kx tap in bounds and take the unchecked
  // (vectorizable) scan; the few edge outputs clamp their taps one by one.
  // Either way each output sees its in-bounds taps ky-major, kx-minor.
  const OutRange inner{valid_out_range(0, stride, pad, w, ow).lo,
                       valid_out_range(k - 1, stride, pad, w, ow).hi};
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    float* __restrict orow = out + oy * ow;
    std::fill_n(orow, ow, -std::numeric_limits<float>::infinity());
    const std::int64_t y0 = oy * stride - pad;
    const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
    const std::int64_t ky_hi = std::min(k, h - y0);
    for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
      const float* __restrict row = plane + (y0 + ky) * w;
      const auto edge = [&](std::int64_t o) {
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = o * stride + kx - pad;
          if (ix < 0 || ix >= w) continue;
          orow[o] = row[ix] > orow[o] ? row[ix] : orow[o];
        }
      };
      for (std::int64_t o = 0; o < std::min(inner.lo, ow); ++o) edge(o);
      for (std::int64_t o = inner.lo; o < inner.hi; ++o) {
        float best = orow[o];
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const float v = row[o * stride + kx - pad];
          best = v > best ? v : best;
        }
        orow[o] = best;
      }
      for (std::int64_t o = std::max(inner.hi, inner.lo); o < ow; ++o) edge(o);
    }
  }
}

}  // namespace

void MaxPool2d::pool_plane(const float* plane, std::int64_t h, std::int64_t w,
                           float* out) const {
  if (kernel_ == 3 && stride_ == 2) {
    pool_plane_scan<3, 2>(plane, h, w, kernel_, stride_, pad_, out);
  } else {
    pool_plane_scan<0, 0>(plane, h, w, kernel_, stride_, pad_, out);
  }
}

Tensor MaxPool2d::infer(const Tensor& x, infer::Workspace& ws) {
  Tensor out = ws.acquire(out_shape(x.shape()));
  ws.note_use(x);
  const std::int64_t h = x.dim(2), w = x.dim(3);
  const std::int64_t planes = x.dim(0) * x.dim(1);
  const std::int64_t out_plane = out.dim(2) * out.dim(3);
  for (std::int64_t p = 0; p < planes; ++p) {
    pool_plane(x.data() + p * h * w, h, w, out.data() + p * out_plane);
  }
  return out;
}

BatchNorm::BatchNorm(std::int64_t num_features, float momentum, float eps)
    : features_(num_features), momentum_(momentum), eps_(eps) {
  DDNN_CHECK(features_ > 0, "BatchNorm: non-positive feature count");
  gamma_ = add_parameter("gamma", Tensor::ones(Shape{features_}));
  beta_ = add_parameter("beta", Tensor::zeros(Shape{features_}));
  running_mean_ = add_buffer("running_mean", Tensor::zeros(Shape{features_}));
  running_var_ = add_buffer("running_var", Tensor::ones(Shape{features_}));
}

Variable BatchNorm::forward(const Variable& x) {
  return autograd::batch_norm(x, gamma_, beta_, running_mean_, running_var_,
                              training(), momentum_, eps_);
}

Tensor BatchNorm::infer(const Tensor& x, infer::Workspace& ws) {
  DDNN_CHECK(!training(), "BatchNorm::infer requires eval mode");
  Tensor inv_std = ws.acquire(Shape{features_});
  Tensor x_hat = ws.acquire(x.shape());
  Tensor out = ws.acquire(x.shape());
  ws.note_use(x);
  // batch_norm_apply interleaves writes to x_hat/out with reads of x_hat
  // and inv_std, so all three must stay distinct for the whole kernel.
  ws.note_use(inv_std);
  ws.note_use(x_hat);
  ops::batch_norm_apply(x, gamma_.value(), beta_.value(), running_mean_,
                        running_var_, eps_, inv_std, x_hat, out);
  return out;
}

ops::BnChannel BatchNorm::eval_channel(std::int64_t c) const {
  DDNN_CHECK(!training(), "BatchNorm::eval_channel requires eval mode");
  return ops::BnChannel::of(gamma_.value()[c], beta_.value()[c],
                            running_mean_[c], running_var_[c], eps_);
}

Variable Sequential::forward(const Variable& x) {
  Variable cur = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    cur = forwards_[i](*stages_[i], cur);
  }
  return cur;
}

Tensor Sequential::infer(const Tensor& x, infer::Workspace& ws) {
  Tensor cur = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    cur = infers_[i](*stages_[i], cur, ws);
  }
  return cur;
}

void Sequential::add_stage_internal(std::unique_ptr<Module> stage,
                                    ForwardFn fn, InferFn infer_fn) {
  add_child("stage" + std::to_string(stages_.size()), stage.get());
  stages_.push_back(std::move(stage));
  forwards_.push_back(fn);
  infers_.push_back(infer_fn);
}

}  // namespace ddnn::nn
