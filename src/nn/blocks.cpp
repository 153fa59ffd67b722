#include "nn/blocks.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn::nn {

namespace {

/// gamma + beta + running mean + running var, one float32 each per feature.
std::int64_t batch_norm_bytes(std::int64_t features) { return 4 * 4 * features; }

}  // namespace

Tensor pool_bn_sign(const Tensor& x, const MaxPool2d& pool,
                    const BatchNorm& bn, infer::Workspace& ws) {
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == bn.num_features(),
             "pool_bn_sign: input " << x.shape().to_string() << " vs "
                                    << bn.num_features() << " BN features");
  Tensor out = ws.acquire(pool.out_shape(x.shape()));
  ws.note_use(x);
  const std::int64_t c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t in_plane = h * w;
  const std::int64_t out_plane = out.dim(2) * out.dim(3);
  const float* px = x.data();
  float* po = out.data();
  // Each plane is pooled straight into its output slot, then normalized
  // and binarized in place while it is still in L1. Tasks get about 64k
  // operations each, like the bitgemm kernels'.
  const std::int64_t grain = std::max<std::int64_t>(1, 65536 / (2 * in_plane));
  parallel_for(0, x.dim(0) * c, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t p = lo; p < hi; ++p) {
      float* plane = po + p * out_plane;
      pool.pool_plane(px + p * in_plane, h, w, plane);
      const ops::BnChannel ch = bn.eval_channel(p % c);
      for (std::int64_t i = 0; i < out_plane; ++i) {
        plane[i] = ch.affine(ch.normalize(plane[i])) < 0.0f ? -1.0f : 1.0f;
      }
    }
  });
  return out;
}

FCBlock::FCBlock(std::int64_t in_features, std::int64_t out_features, Rng& rng,
                 bool binary_output)
    : out_(out_features),
      binary_output_(binary_output),
      linear_(std::make_unique<BinaryLinear>(in_features, out_features, rng)),
      bn_(std::make_unique<BatchNorm>(out_features)) {
  add_child("linear", linear_.get());
  add_child("bn", bn_.get());
}

Variable FCBlock::forward(const Variable& x) {
  Variable h = bn_->forward(linear_->forward(x));
  return binary_output_ ? autograd::binarize(h) : h;
}

Tensor FCBlock::infer(const Tensor& x, infer::Workspace& ws) {
  Tensor h = bn_->infer(linear_->infer(x, ws), ws);
  return binary_output_ ? sign_tensor(h, ws) : h;
}

std::int64_t FCBlock::inference_memory_bytes() const {
  return (linear_->weight_bits() + 7) / 8 + batch_norm_bytes(out_);
}

FloatConvPBlock::FloatConvPBlock(std::int64_t in_channels,
                                 std::int64_t filters, Rng& rng)
    : filters_(filters),
      conv_(std::make_unique<Conv2d>(in_channels, filters, /*kernel=*/3,
                                     /*stride=*/1, /*pad=*/1, rng,
                                     /*bias=*/false)),
      pool_(std::make_unique<MaxPool2d>(/*kernel=*/3, /*stride=*/2, /*pad=*/1)),
      bn_(std::make_unique<BatchNorm>(filters)) {
  add_child("conv", conv_.get());
  add_child("pool", pool_.get());
  add_child("bn", bn_.get());
}

Variable FloatConvPBlock::forward(const Variable& x) {
  return autograd::relu(bn_->forward(pool_->forward(conv_->forward(x))));
}

Tensor FloatConvPBlock::infer(const Tensor& x, infer::Workspace& ws) {
  return relu_tensor(
      bn_->infer(pool_->infer(conv_->infer(x, ws), ws), ws), ws);
}

FloatFCBlock::FloatFCBlock(std::int64_t in_features, std::int64_t out_features,
                           Rng& rng, bool relu_output)
    : relu_output_(relu_output),
      linear_(std::make_unique<Linear>(in_features, out_features, rng,
                                       /*bias=*/false)),
      bn_(std::make_unique<BatchNorm>(out_features)) {
  add_child("linear", linear_.get());
  add_child("bn", bn_.get());
}

Variable FloatFCBlock::forward(const Variable& x) {
  Variable h = bn_->forward(linear_->forward(x));
  return relu_output_ ? autograd::relu(h) : h;
}

Tensor FloatFCBlock::infer(const Tensor& x, infer::Workspace& ws) {
  Tensor h = bn_->infer(linear_->infer(x, ws), ws);
  return relu_output_ ? relu_tensor(h, ws) : h;
}

ConvPBlock::ConvPBlock(std::int64_t in_channels, std::int64_t filters,
                       Rng& rng)
    : filters_(filters),
      conv_(std::make_unique<BinaryConv2d>(in_channels, filters, /*kernel=*/3,
                                           /*stride=*/1, /*pad=*/1, rng)),
      pool_(std::make_unique<MaxPool2d>(/*kernel=*/3, /*stride=*/2, /*pad=*/1)),
      bn_(std::make_unique<BatchNorm>(filters)) {
  add_child("conv", conv_.get());
  add_child("pool", pool_.get());
  add_child("bn", bn_.get());
}

Variable ConvPBlock::forward(const Variable& x) {
  return autograd::binarize(bn_->forward(pool_->forward(conv_->forward(x))));
}

Tensor ConvPBlock::infer(const Tensor& x, infer::Workspace& ws) {
  return pool_bn_sign(conv_->infer(x, ws), *pool_, *bn_, ws);
}

std::int64_t ConvPBlock::inference_memory_bytes() const {
  return (conv_->weight_bits() + 7) / 8 + batch_norm_bytes(filters_);
}

}  // namespace ddnn::nn
