// Standard and binarized neural-network layers.
//
// The binarized layers follow BinaryConnect / BNN (Courbariaux et al.) as
// used by the paper: float "latent" weights are binarized with sign() on
// every forward pass; the straight-through estimator carries gradients back
// to the latent weights, which the optimizer clamps to [-1, 1] after each
// step. BinaryActivation applies the same sign+STE to activations, which is
// what makes the device->cloud feature maps 1 bit per value on the wire.
// Beside forward(Variable), every layer exposes infer(Tensor, Workspace&):
// the inference-engine path. It produces bit-identical values without
// touching autograd — activations come from a preallocated per-thread
// workspace, and the binarized layers run on cached bit-packed weights via
// the XNOR-popcount kernels (tensor/bitgemm.hpp). The packed cache is keyed
// on the weight Variable's version counter, which the optimizer and
// nn::load_state bump on every in-place update.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "autograd/ops.hpp"
#include "infer/workspace.hpp"
#include "nn/module.hpp"
#include "tensor/bitgemm.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/rng.hpp"

namespace ddnn::nn {

using autograd::Variable;

/// Elementwise sign into a workspace slot (same semantics as ops::sign:
/// sign(0) = +1).
Tensor sign_tensor(const Tensor& x, infer::Workspace& ws);

/// Elementwise ReLU into a workspace slot (same semantics as
/// ops::clamp(x, 0, +inf), the autograd relu forward).
Tensor relu_tensor(const Tensor& x, infer::Workspace& ws);

namespace detail {

/// Lazily (re)built packed form of a binarized layer's latent weights.
/// `stamp` is the weight version the pack is valid for, offset by one so 0
/// means "never packed". Double-checked: the hot path is one atomic load.
struct PackedWeightCache {
  std::atomic<std::uint64_t> stamp{0};
  std::mutex mu;
  bitgemm::PackedSigns packed;
  bitgemm::PackedTaps taps;  // conv weights only: packed.bits, tap-major

  /// Current pack of `w`'s value viewed as [rows, cols], rebuilding if the
  /// weight's version moved since the last pack (`taps` too, when `w` is an
  /// [F, C, KH, KW] conv weight).
  const bitgemm::PackedSigns& get(const autograd::Variable& w,
                                  std::int64_t rows, std::int64_t cols);
};

}  // namespace detail

/// Fully connected layer: y = x W^T + b. Weights use Glorot-uniform init.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);
  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_, out_;
  Variable weight_, bias_;
};

/// Fully connected layer with binarized weights (latent floats, sign() on
/// forward, STE backward, clamped by the optimizer).
class BinaryLinear : public Module {
 public:
  BinaryLinear(std::int64_t in_features, std::int64_t out_features, Rng& rng);
  Variable forward(const Variable& x);
  /// XNOR-popcount over the cached pack for ±1 inputs, sign-accumulate for
  /// float inputs; both bit-identical to forward().
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  /// Weight bits actually needed at inference time (1 bit per weight).
  std::int64_t weight_bits() const { return in_ * out_; }

 private:
  std::int64_t in_, out_;
  Variable weight_;
  detail::PackedWeightCache packed_;
};

/// Standard 2-D convolution.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng,
         bool bias = true);
  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  /// The GEMM tail of infer() (and of autograd::conv2d): `cols` is the
  /// [N*OH*OW, C*KH*KW] im2col operand of N images with OH x OW outputs.
  /// Callers that can lay their input out as that operand directly (the CC
  /// aggregator's gather) skip im2col and get the same bits.
  Tensor infer_cols(const Tensor& cols, std::int64_t n, std::int64_t oh,
                    std::int64_t ow, infer::Workspace& ws);

 private:
  std::int64_t stride_, pad_;
  Variable weight_, bias_;
};

/// 2-D convolution with binarized weights.
class BinaryConv2d : public Module {
 public:
  BinaryConv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng);
  Variable forward(const Variable& x);
  /// Channel-packed direct XNOR-popcount for ±1 inputs, direct
  /// sign-accumulate convolution for float inputs; both bit-identical to
  /// forward().
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  std::int64_t weight_bits() const { return weight_.numel(); }

 private:
  std::int64_t stride_, pad_;
  Variable weight_;
  detail::PackedWeightCache packed_;
};

/// Spatial max pooling.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad);
  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  /// Pooled shape of an [N, C, H, W] input.
  Shape out_shape(const Shape& in) const;

  /// Pool one [h, w] plane into `out` ([out_h, out_w] of out_shape). The one
  /// window scan behind infer() and the fused ConvP tail: each window is
  /// clamped to the plane and scanned ky-major, kx-minor from a -inf seed
  /// with a `>` compare — autograd::max_pool2d's order and semantics, so the
  /// selected values match it bit for bit, NaN and signed-zero inputs
  /// included.
  void pool_plane(const float* plane, std::int64_t h, std::int64_t w,
                  float* out) const;

 private:
  std::int64_t kernel_, stride_, pad_;
};

/// Batch normalization over [N, F] features or [N, C, H, W] channels.
class BatchNorm : public Module {
 public:
  explicit BatchNorm(std::int64_t num_features, float momentum = 0.1f,
                     float eps = 1e-5f);
  Variable forward(const Variable& x);
  /// Eval-mode normalization from running statistics (requires eval mode).
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  /// Eval-mode constants of channel `c`, as infer() applies them.
  ops::BnChannel eval_channel(std::int64_t c) const;

  std::int64_t num_features() const { return features_; }

 private:
  std::int64_t features_;
  float momentum_, eps_;
  Variable gamma_, beta_;
  Tensor running_mean_, running_var_;
};

/// sign() activation with straight-through gradient.
class BinaryActivation : public Module {
 public:
  Variable forward(const Variable& x) { return autograd::binarize(x); }
  Tensor infer(const Tensor& x, infer::Workspace& ws) {
    return sign_tensor(x, ws);
  }
};

/// [N, ...] -> [N, prod(...)]
class Flatten : public Module {
 public:
  Variable forward(const Variable& x) { return autograd::flatten2d(x); }
  Tensor infer(const Tensor& x, infer::Workspace&) {
    const std::int64_t n = x.dim(0);
    return x.reshape(Shape{n, x.numel() / n});  // view, shares storage
  }
};

/// Heterogeneous layer pipeline. Owns its stages.
class Sequential : public Module {
 public:
  /// Append a stage constructed in place; returns a reference to it.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto stage = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *stage;
    add_stage_internal(std::move(stage),
                       [](Module& m, const Variable& x) {
                         return static_cast<T&>(m).forward(x);
                       },
                       [](Module& m, const Tensor& x, infer::Workspace& ws) {
                         return static_cast<T&>(m).infer(x, ws);
                       });
    return ref;
  }

  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  std::size_t size() const { return stages_.size(); }

 private:
  using ForwardFn = Variable (*)(Module&, const Variable&);
  using InferFn = Tensor (*)(Module&, const Tensor&, infer::Workspace&);
  void add_stage_internal(std::unique_ptr<Module> stage, ForwardFn fn,
                          InferFn infer_fn);

  std::vector<std::unique_ptr<Module>> stages_;
  std::vector<ForwardFn> forwards_;
  std::vector<InferFn> infers_;
};

/// Glorot-uniform initialization bound for a weight tensor.
float glorot_bound(std::int64_t fan_in, std::int64_t fan_out);

}  // namespace ddnn::nn
