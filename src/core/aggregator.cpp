#include "core/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "autograd/ops.hpp"
#include "obs/profile.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn::core {

using nn::Variable;

std::string to_string(AggKind kind) {
  switch (kind) {
    case AggKind::kMaxPool: return "MP";
    case AggKind::kAvgPool: return "AP";
    case AggKind::kConcat: return "CC";
    case AggKind::kGatedAvg: return "GA";
  }
  return "?";
}

AggKind parse_agg_kind(const std::string& name) {
  if (name == "MP") return AggKind::kMaxPool;
  if (name == "AP") return AggKind::kAvgPool;
  if (name == "CC") return AggKind::kConcat;
  if (name == "GA") return AggKind::kGatedAvg;
  DDNN_CHECK(false, "unknown aggregation scheme '" << name << "'");
  return AggKind::kMaxPool;  // unreachable
}

namespace {

/// Branches that survive the activity mask (for MP / AP).
std::vector<Variable> active_branches(const std::vector<Variable>& branches,
                                      const std::vector<bool>& active) {
  DDNN_CHECK(branches.size() == active.size(),
             "mask size " << active.size() << " vs " << branches.size()
                          << " branches");
  std::vector<Variable> out;
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (active[i]) out.push_back(branches[i]);
  }
  DDNN_CHECK(!out.empty(), "aggregation with every branch inactive");
  return out;
}

/// All branches, but inactive slots replaced by zeros (for CC, whose learned
/// projection has one slot per branch).
std::vector<Variable> zero_filled_branches(
    const std::vector<Variable>& branches, const std::vector<bool>& active) {
  DDNN_CHECK(branches.size() == active.size(),
             "mask size " << active.size() << " vs " << branches.size()
                          << " branches");
  bool any = false;
  std::vector<Variable> out;
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (active[i]) {
      out.push_back(branches[i]);
      any = true;
    } else {
      out.push_back(Variable(Tensor::zeros(branches[i].shape())));
    }
  }
  DDNN_CHECK(any, "aggregation with every branch inactive");
  return out;
}

std::vector<bool> all_active(std::size_t n) {
  return std::vector<bool>(n, true);
}

// ---- Inference-engine counterparts -----------------------------------------
// Each replicates the corresponding autograd forward bit-for-bit: same
// accumulation order over the active subset, same single-precision
// arithmetic, with outputs placed in workspace slots instead of fresh
// Variables.

int count_active(const std::vector<Tensor>& branches,
                 const std::vector<bool>& active) {
  DDNN_CHECK(branches.size() == active.size(),
             "mask size " << active.size() << " vs " << branches.size()
                          << " branches");
  int n = 0;
  for (bool a : active) n += a ? 1 : 0;
  DDNN_CHECK(n > 0, "aggregation with every branch inactive");
  return n;
}

/// autograd::stack_max over the active subset. Acquire-first discipline:
/// the output slot is taken (and the inputs noted) before any element is
/// read, so the planner keeps it clear of every operand.
Tensor infer_stack_max(const std::vector<Tensor>& branches,
                       const std::vector<bool>& active, infer::Workspace& ws) {
  count_active(branches, active);
  std::size_t first = 0;
  while (!active[first]) ++first;
  Tensor out = ws.acquire(branches[first].shape());
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (active[i]) ws.note_use(branches[i]);
  }
  std::copy_n(branches[first].data(), branches[first].numel(), out.data());
  for (std::size_t i = first + 1; i < branches.size(); ++i) {
    if (!active[i]) continue;
    const float* px = branches[i].data();
    float* po = out.data();
    const std::int64_t n = out.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      if (px[j] > po[j]) po[j] = px[j];
    }
  }
  return out;
}

/// autograd::stack_mean over the active subset (1/k scaling per term, summed
/// in active order, exactly like the compacted-branch autograd path).
Tensor infer_stack_mean(const std::vector<Tensor>& branches,
                        const std::vector<bool>& active,
                        infer::Workspace& ws) {
  const int k = count_active(branches, active);
  const float inv = 1.0f / static_cast<float>(k);
  std::size_t first = 0;
  while (!active[first]) ++first;
  Tensor out = ws.acquire_zero(branches[first].shape());
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (active[i]) ws.note_use(branches[i]);
  }
  for (std::size_t i = first; i < branches.size(); ++i) {
    if (active[i]) ops::axpy_into(out, inv, branches[i]);
  }
  return out;
}

/// The CC projection's GEMM operand, gathered straight from the branches.
/// Row (b, p) of the [B*H*W, n*C] result holds every branch's C channels at
/// pixel p of image b, in branch order, with zeros for inactive slots: the
/// rows im2col builds from autograd::concat(zero_filled_branches(...), 1)
/// for the feature maps' 1x1 conv, and that concat itself for [B, C] score
/// vectors (H*W = 1). No concat tensor is materialized.
Tensor gather_concat_rows(const std::vector<Tensor>& branches,
                          const std::vector<bool>& active,
                          infer::Workspace& ws) {
  count_active(branches, active);
  const Shape& s0 = branches[0].shape();
  DDNN_CHECK(s0.ndim() >= 2, "concat aggregation needs rank >= 2");
  const std::int64_t batch = s0[0], ch = s0[1];
  std::int64_t pixels = 1;
  for (std::size_t d = 2; d < s0.ndim(); ++d) pixels *= s0[d];
  const std::int64_t k = ch * static_cast<std::int64_t>(branches.size());
  Tensor rows = ws.acquire(Shape{batch * pixels, k});
  for (std::size_t i = 0; i < branches.size(); ++i) {
    DDNN_CHECK(branches[i].shape() == s0, "concat aggregation shape mismatch");
    if (active[i]) ws.note_use(branches[i]);
  }
  float* pr = rows.data();
  // Images write disjoint row blocks of about 16k floats per task; every
  // element is written (the rows may be a recycled planner arena).
  parallel_for(0, batch, std::max<std::int64_t>(1, 16384 / (pixels * k)),
               [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t b = lo; b < hi; ++b) {
      for (std::size_t i = 0; i < branches.size(); ++i) {
        float* dst = pr + b * pixels * k + static_cast<std::int64_t>(i) * ch;
        if (!active[i]) {
          for (std::int64_t p = 0; p < pixels; ++p) {
            std::fill_n(dst + p * k, ch, 0.0f);
          }
          continue;
        }
        const float* src = branches[i].data() + b * ch * pixels;
        for (std::int64_t c = 0; c < ch; ++c) {
          for (std::int64_t p = 0; p < pixels; ++p) {
            dst[p * k + c] = src[c * pixels + p];
          }
        }
      }
    }
  });
  return rows;
}

/// CC's learned projection over the gathered rows: nn::Linear takes them as
/// its input, the feature maps' 1x1 nn::Conv2d as its GEMM operand.
Tensor project_rows(nn::Linear& projection, const Tensor& rows,
                    const Shape&, infer::Workspace& ws) {
  return projection.infer(rows, ws);
}

Tensor project_rows(nn::Conv2d& projection, const Tensor& rows,
                    const Shape& branch, infer::Workspace& ws) {
  return projection.infer_cols(rows, branch[0], branch[2], branch[3], ws);
}

/// autograd::stack_gated_sum forward: softmax over the active gates only
/// (float exp, double denominator, float weights), then weighted axpy in
/// branch order over the active subset.
Tensor infer_gated_sum(const std::vector<Tensor>& branches,
                       const Tensor& gates, const std::vector<bool>& active,
                       infer::Workspace& ws) {
  count_active(branches, active);
  const auto n = branches.size();
  std::vector<float> weights(n, 0.0f);
  float max_gate = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) {
      max_gate = std::max(max_gate, gates[static_cast<std::int64_t>(i)]);
    }
  }
  double denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    weights[i] =
        std::exp(gates[static_cast<std::int64_t>(i)] - max_gate);
    denom += weights[i];
  }
  for (auto& w : weights) w = static_cast<float>(w / denom);

  Tensor out = ws.acquire_zero(branches[0].shape());
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) ws.note_use(branches[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) ops::axpy_into(out, weights[i], branches[i]);
  }
  return out;
}

/// Shared MP/AP/CC/GA dispatch for both aggregator flavours; `Projection`
/// is nn::Linear (vectors) or nn::Conv2d (feature maps).
template <typename Projection>
Tensor aggregate_infer(AggKind kind, int num_branches,
                       const std::vector<Tensor>& branches,
                       const std::vector<bool>& active, infer::Workspace& ws,
                       Projection* projection, const nn::Variable& gates) {
  DDNN_CHECK(static_cast<int>(branches.size()) == num_branches,
             "expected " << num_branches << " branches, got "
                         << branches.size());
  DDNN_CHECK(branches.size() == active.size(),
             "mask size " << active.size() << " vs " << branches.size()
                          << " branches");
  if (num_branches == 1) {
    DDNN_CHECK(active[0], "single branch marked inactive");
    return branches[0];
  }
  switch (kind) {
    case AggKind::kMaxPool:
      return infer_stack_max(branches, active, ws);
    case AggKind::kAvgPool:
      return infer_stack_mean(branches, active, ws);
    case AggKind::kConcat:
      return project_rows(*projection,
                          gather_concat_rows(branches, active, ws),
                          branches[0].shape(), ws);
    case AggKind::kGatedAvg:
      return infer_gated_sum(branches, gates.value(), active, ws);
  }
  DDNN_CHECK(false, "unreachable");
  return {};
}

}  // namespace

VectorAggregator::VectorAggregator(AggKind kind, int num_branches,
                                   std::int64_t dims, Rng& rng)
    : kind_(kind), num_branches_(num_branches), dims_(dims) {
  DDNN_CHECK(num_branches_ >= 1, "aggregator needs at least one branch");
  if (kind_ == AggKind::kConcat) {
    projection_ =
        std::make_unique<nn::Linear>(num_branches_ * dims_, dims_, rng);
    add_child("projection", projection_.get());
  } else if (kind_ == AggKind::kGatedAvg) {
    gates_ = add_parameter("gates", Tensor::zeros(Shape{num_branches_}));
  }
}

Variable VectorAggregator::forward(const std::vector<Variable>& branches,
                                   const std::vector<bool>& active) {
  DDNN_PROF_SCOPE("agg_fuse_scores");
  DDNN_CHECK(static_cast<int>(branches.size()) == num_branches_,
             "expected " << num_branches_ << " branches, got "
                         << branches.size());
  if (num_branches_ == 1) {
    DDNN_CHECK(active[0], "single branch marked inactive");
    return branches[0];
  }
  switch (kind_) {
    case AggKind::kMaxPool:
      return autograd::stack_max(active_branches(branches, active));
    case AggKind::kAvgPool:
      return autograd::stack_mean(active_branches(branches, active));
    case AggKind::kConcat:
      return projection_->forward(
          autograd::concat(zero_filled_branches(branches, active), 1));
    case AggKind::kGatedAvg:
      return autograd::stack_gated_sum(branches, gates_, active);
  }
  DDNN_CHECK(false, "unreachable");
  return {};
}

Variable VectorAggregator::forward(const std::vector<Variable>& branches) {
  return forward(branches, all_active(branches.size()));
}

Tensor VectorAggregator::infer(const std::vector<Tensor>& branches,
                               const std::vector<bool>& active,
                               infer::Workspace& ws) {
  DDNN_PROF_SCOPE("agg_fuse_scores");
  return aggregate_infer(kind_, num_branches_, branches, active, ws,
                         projection_.get(), gates_);
}

FeatureMapAggregator::FeatureMapAggregator(AggKind kind, int num_branches,
                                           std::int64_t channels, Rng& rng)
    : kind_(kind), num_branches_(num_branches), channels_(channels) {
  DDNN_CHECK(num_branches_ >= 1, "aggregator needs at least one branch");
  if (kind_ == AggKind::kConcat) {
    projection_ = std::make_unique<nn::Conv2d>(
        num_branches_ * channels_, channels_, /*kernel=*/1, /*stride=*/1,
        /*pad=*/0, rng);
    add_child("projection", projection_.get());
  } else if (kind_ == AggKind::kGatedAvg) {
    gates_ = add_parameter("gates", Tensor::zeros(Shape{num_branches_}));
  }
}

Variable FeatureMapAggregator::forward(const std::vector<Variable>& branches,
                                       const std::vector<bool>& active) {
  DDNN_PROF_SCOPE("agg_fuse_features");
  DDNN_CHECK(static_cast<int>(branches.size()) == num_branches_,
             "expected " << num_branches_ << " branches, got "
                         << branches.size());
  if (num_branches_ == 1) {
    DDNN_CHECK(active[0], "single branch marked inactive");
    return branches[0];
  }
  switch (kind_) {
    case AggKind::kMaxPool:
      return autograd::stack_max(active_branches(branches, active));
    case AggKind::kAvgPool:
      return autograd::stack_mean(active_branches(branches, active));
    case AggKind::kConcat:
      return projection_->forward(
          autograd::concat(zero_filled_branches(branches, active), 1));
    case AggKind::kGatedAvg:
      return autograd::stack_gated_sum(branches, gates_, active);
  }
  DDNN_CHECK(false, "unreachable");
  return {};
}

Variable FeatureMapAggregator::forward(const std::vector<Variable>& branches) {
  return forward(branches, all_active(branches.size()));
}

Tensor FeatureMapAggregator::infer(const std::vector<Tensor>& branches,
                                   const std::vector<bool>& active,
                                   infer::Workspace& ws) {
  DDNN_PROF_SCOPE("agg_fuse_features");
  return aggregate_infer(kind_, num_branches_, branches, active, ws,
                         projection_.get(), gates_);
}

}  // namespace ddnn::core
