// Fused binary blocks from the paper's Figure 3 (after eBNN, McDanel et al.).
//
//   FC block:    fully-connected (binary weights) -> batch norm -> binary act
//   ConvP block: 3x3 s1 p1 conv (binary weights) -> 3x3 s2 p1 max pool
//                -> batch norm -> binary act
//
// The blocks also report their inference-time memory footprint: 1 bit per
// binarized weight plus 4 float32 per batch-norm feature (gamma, beta,
// running mean, running variance), which backs the paper's "under 2 KB per
// end device" observation (Section IV-F).
#pragma once

#include "nn/layers.hpp"

namespace ddnn::nn {

/// The ConvP block's fused tail: max pool -> eval-mode batch norm -> sign in
/// one pass per [H, W] plane of `x`, straight into a ±1 workspace slot. It
/// pools with the shared MaxPool2d window scan and normalizes through the
/// same ops::BnChannel expression BatchNorm::infer applies, so the result
/// is bit-identical to sign_tensor(bn.infer(pool.infer(x))) without that
/// chain's four intermediate tensors.
Tensor pool_bn_sign(const Tensor& x, const MaxPool2d& pool,
                    const BatchNorm& bn, infer::Workspace& ws);

/// Fused binary fully-connected block. With `binary_output == false` the
/// final binary activation is omitted and the block emits float values —
/// used for exit heads, whose output feeds softmax/entropy (the paper's
/// "output from the final FC block" is a float vector of length |C|).
class FCBlock : public Module {
 public:
  FCBlock(std::int64_t in_features, std::int64_t out_features, Rng& rng,
          bool binary_output = true);
  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  /// Inference memory in bytes (bit-packed weights + batch-norm floats).
  std::int64_t inference_memory_bytes() const;

  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t out_;
  bool binary_output_;
  std::unique_ptr<BinaryLinear> linear_;
  std::unique_ptr<BatchNorm> bn_;
};

/// Float convolution-pool block (conv -> pool -> BN -> ReLU): the
/// mixed-precision cloud variant from the paper's future work ("the end
/// devices use binary NN layers and the cloud uses ... floating-point NN
/// layers"). Same geometry as ConvPBlock, full-precision arithmetic.
class FloatConvPBlock : public Module {
 public:
  FloatConvPBlock(std::int64_t in_channels, std::int64_t filters, Rng& rng);
  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  std::int64_t filters() const { return filters_; }

 private:
  std::int64_t filters_;
  std::unique_ptr<Conv2d> conv_;
  std::unique_ptr<MaxPool2d> pool_;
  std::unique_ptr<BatchNorm> bn_;
};

/// Float fully-connected block (linear -> BN -> ReLU), the mixed-precision
/// counterpart of FCBlock. With `relu_output == false` it emits raw float
/// scores (exit-head variant).
class FloatFCBlock : public Module {
 public:
  FloatFCBlock(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool relu_output = true);
  Variable forward(const Variable& x);
  Tensor infer(const Tensor& x, infer::Workspace& ws);

 private:
  bool relu_output_;
  std::unique_ptr<Linear> linear_;
  std::unique_ptr<BatchNorm> bn_;
};

/// Fused binary convolution-pool block (conv -> pool -> BN -> binary act).
class ConvPBlock : public Module {
 public:
  ConvPBlock(std::int64_t in_channels, std::int64_t filters, Rng& rng);
  Variable forward(const Variable& x);
  /// The binary conv (sign or XNOR kernel), then pool_bn_sign: two
  /// workspace tensors per block.
  Tensor infer(const Tensor& x, infer::Workspace& ws);

  std::int64_t inference_memory_bytes() const;
  std::int64_t filters() const { return filters_; }

 private:
  std::int64_t filters_;
  std::unique_ptr<BinaryConv2d> conv_;
  std::unique_ptr<MaxPool2d> pool_;
  std::unique_ptr<BatchNorm> bn_;
};

}  // namespace ddnn::nn
