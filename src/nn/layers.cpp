#include "nn/layers.hpp"

#include <cmath>
#include <limits>

#include "tensor/im2col.hpp"
#include "tensor/lanes.hpp"
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

void MaxPool2d::pool_plane(const float* plane, std::int64_t h, std::int64_t w,
                           float* out) const {
  using lanes::kLanes;
  using lanes::Lanes;
  const std::int64_t k = kernel_, stride = stride_, pad = pad_;
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  constexpr float kSeed = -std::numeric_limits<float>::infinity();
  // The plane is copied into a -inf border: output (oy, ox) covers padded
  // rows oy*stride + [0, k) and columns ox*stride + [0, k). A -inf tap
  // never passes the `>` compare against the -inf seed, so it acts exactly
  // as the clamped-out tap it stands for, and no scan needs a bounds check.
  // The row pass runs at all `span` column offsets (whole vectors); the
  // column pass keeps every stride-th one.
  const std::int64_t span = ((ow - 1) * stride + kLanes) / kLanes * kLanes;
  const std::int64_t ph = (oh - 1) * stride + k, pw = span + k - 1;
  static thread_local std::vector<float> scratch;  // per pool thread
  scratch.resize(static_cast<std::size_t>(ph * pw + (ph + 1) * span));
  float* const padded = scratch.data();
  float* const rows = padded + ph * pw;  // [ph][span] row maxima
  float* const col = rows + ph * span;   // one output row's window maxima
  lanes::pad_plane(plane, h, w, pad, kSeed, ph, pw, padded);
  // Maximum of src[0], src[step], ... (n vectors) in order, from the seed.
  const auto scan = [](const float* src, std::int64_t n, std::int64_t step,
                       float* dst) {
    Lanes m = lanes::splat(kSeed);
    for (std::int64_t i = 0; i < n; ++i) {
      const Lanes v = lanes::load(src + i * step);
      m = v > m ? v : m;
    }
    lanes::store(dst, m);
  };
  // Row pass: each padded row's k-tap maxima, kx ascending.
  for (std::int64_t y = 0; y < ph; ++y) {
    for (std::int64_t d = 0; d < span; d += kLanes) {
      scan(padded + y * pw + d, k, 1, rows + y * span + d);
    }
  }
  // Column pass: each output row's k row maxima, ky ascending, so every
  // output keeps the first maximum of its window in (ky, kx) order.
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t d = 0; d < span; d += kLanes) {
      scan(rows + oy * stride * span + d, k, span, col + d);
    }
    const float* src = col;
    float* dst = out + oy * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox, src += stride) dst[ox] = *src;
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
