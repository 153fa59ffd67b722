// Inference-engine parity: the plan engine (workspace + cached bit-packed
// weights + XNOR-popcount kernels) must be bit-identical to the autograd
// forward pass across the configuration grid — presets, edge tiers,
// precision modes, activity masks and thread counts — and the packed-weight
// cache must track every in-place parameter update.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/grad_mode.hpp"
#include "autograd/ops.hpp"
#include "core/aggregator.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/mvmc.hpp"
#include "dist/runtime.hpp"
#include "infer/engine.hpp"
#include "infer/workspace.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "tensor/bitgemm.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn {
namespace {

using autograd::Variable;
using core::DdnnConfig;
using core::DdnnModel;
using core::HierarchyPreset;

/// Pins the engine for a scope, then restores the DDNN_ENGINE default.
struct EngineGuard {
  explicit EngineGuard(infer::EngineKind k) { infer::set_engine_kind(k); }
  ~EngineGuard() { infer::clear_engine_override(); }
};

/// Pins the pool size for a scope, then restores the env/hardware default.
struct PoolSizeGuard {
  explicit PoolSizeGuard(int n) { ThreadPool::set_size(n); }
  ~PoolSizeGuard() { ThreadPool::set_size(0); }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) *
                               sizeof(float)));
}

Tensor signs_of(const Tensor& t) {
  Tensor out(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    out[i] = t[i] < 0.0f ? -1.0f : 1.0f;
  }
  return out;
}

// -------------------------------------------------------- engine selection

TEST(Engine, ParsesAndRoundTripsNames) {
  EXPECT_EQ(infer::parse_engine_kind("plan"), infer::EngineKind::kPlan);
  EXPECT_EQ(infer::parse_engine_kind("autograd"), infer::EngineKind::kAutograd);
  EXPECT_THROW(infer::parse_engine_kind("fast"), Error);
  EXPECT_EQ(infer::to_string(infer::EngineKind::kPlan), "plan");
  EXPECT_EQ(infer::to_string(infer::EngineKind::kAutograd), "autograd");
}

TEST(Engine, OverrideWinsAndClears) {
  {
    EngineGuard guard(infer::EngineKind::kAutograd);
    EXPECT_EQ(infer::engine_kind(), infer::EngineKind::kAutograd);
  }
  {
    EngineGuard guard(infer::EngineKind::kPlan);
    EXPECT_EQ(infer::engine_kind(), infer::EngineKind::kPlan);
  }
}

// ---------------------------------------------------------------- workspace

/// Restores poison to the DDNN_POISON env default when a test scope ends.
struct PoisonGuard {
  explicit PoisonGuard(bool on) { infer::set_poison(on); }
  ~PoisonGuard() { infer::clear_poison_override(); }
};

/// Restores an unlimited memory budget when a test scope ends.
struct BudgetGuard {
  explicit BudgetGuard(std::int64_t bytes) { infer::set_mem_budget(bytes); }
  ~BudgetGuard() { infer::set_mem_budget(0); }
};

/// Doubles the input then adds one, drawing both intermediates from the
/// workspace with the acquire-then-note_use kernel discipline.
std::vector<Tensor> double_plus_one(const std::vector<Tensor>& in,
                                    infer::Workspace& ws) {
  Tensor mid = ws.acquire(in[0].shape());
  ws.note_use(in[0]);
  for (std::int64_t i = 0; i < mid.numel(); ++i) mid[i] = in[0][i] * 2.0f;
  Tensor out = ws.acquire(in[0].shape());
  ws.note_use(mid);
  for (std::int64_t i = 0; i < out.numel(); ++i) out[i] = mid[i] + 1.0f;
  return {out};
}

TEST(Workspace, AlternatingBatchSignaturesReplayWithoutAllocating) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "ws_alternate"};
  Rng rng(7);
  const Tensor big = Tensor::randn(Shape{6, 4}, rng);
  const Tensor small = Tensor::randn(Shape{2, 4}, rng);

  // First sight of each batch shape records a plan and allocates its arena.
  const auto big_ref = infer::run_section(ws, desc, {big}, "", double_plus_one);
  const auto small_ref =
      infer::run_section(ws, desc, {small}, "", double_plus_one);
  EXPECT_EQ(ws.plans(), 2u);
  const std::size_t warm = ws.alloc_count();

  // The bug this pins: alternating batch shapes used to reallocate every
  // workspace slot on every pass. Warm passes must replay the per-signature
  // plans bit-identically with zero new allocations.
  for (int pass = 0; pass < 3; ++pass) {
    const auto b = infer::run_section(ws, desc, {big}, "", double_plus_one);
    const auto s = infer::run_section(ws, desc, {small}, "", double_plus_one);
    expect_bitwise_equal(b[0], big_ref[0]);
    expect_bitwise_equal(s[0], small_ref[0]);
  }
  EXPECT_EQ(ws.alloc_count(), warm);
  EXPECT_EQ(ws.plans(), 2u);
}

TEST(Workspace, PoisonCatchesViewLeakedPastSectionEnd) {
  PoisonGuard poison(true);
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "ws_leak"};
  Tensor leaked;
  auto leaky = [&leaked](const std::vector<Tensor>& in, infer::Workspace& w) {
    auto outs = double_plus_one(in, w);
    leaked = outs[0];  // contract violation: keeps an arena view alive
    return outs;
  };
  Rng rng(8);
  const Tensor x = Tensor::randn(Shape{3, 5}, rng);

  infer::run_section(ws, desc, {x}, "", leaky);         // record pass
  const auto outs = infer::run_section(ws, desc, {x}, "", leaky);  // replay
  // The section's real outputs are deep copies and stay finite...
  for (std::int64_t i = 0; i < outs[0].numel(); ++i) {
    EXPECT_FALSE(std::isnan(outs[0][i])) << i;
  }
  // ...but the escaped arena view reads signaling NaNs, not recycled data.
  ASSERT_EQ(leaked.numel(), x.numel());
  for (std::int64_t i = 0; i < leaked.numel(); ++i) {
    EXPECT_TRUE(std::isnan(leaked[i])) << i;
  }
}

// ---------------------------------------- activation kernels on non-finite

TEST(Kernels, ActivationsMatchAutogradBitwiseOnNonFiniteInput) {
  Tensor x(Shape{2, 4});
  const float vals[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        -0.0f,
                        0.0f,
                        -3.5f,
                        2.25f,
                        1e30f};
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = vals[i];

  autograd::NoGradGuard no_grad;
  const Tensor relu_ref = autograd::relu(Variable(x)).value();
  const Tensor sign_ref = autograd::binarize(Variable(x)).value();

  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "nonfinite_act"};
  auto body = [](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{nn::relu_tensor(in[0], w),
                               nn::sign_tensor(in[0], w)};
  };
  // Record and replay paths must both match the autograd forward bit for
  // bit — including NaN -> 0 under relu's (a < b) ? b : a semantics.
  for (int pass = 0; pass < 2; ++pass) {
    const auto outs = infer::run_section(ws, desc, {x}, "", body);
    expect_bitwise_equal(outs[0], relu_ref);
    expect_bitwise_equal(outs[1], sign_ref);
  }
}

// --------------------------------------------------- bitpack validation

TEST(Bitpack, RejectsEmptyAndMismatchedInputs) {
  EXPECT_THROW(pack_signs(Tensor()), Error);
  EXPECT_THROW(pack_signs(Tensor(Shape{0})), Error);
  EXPECT_THROW(unpack_signs({}, Shape{0}), Error);
  // 9 elements need 2 bytes; 1 byte must be rejected loudly.
  EXPECT_THROW(unpack_signs(std::vector<std::uint8_t>{0xff}, Shape{9}), Error);
  // Round trip still works for well-formed input.
  Rng rng(3);
  const Tensor t = signs_of(Tensor::randn(Shape{3, 7}, rng));
  expect_bitwise_equal(unpack_signs(pack_signs(t), t.shape()), t);
}

// ------------------------------------------------------- bitgemm kernels

TEST(Bitgemm, XnorLinearMatchesMatmulNt) {
  Rng rng(11);
  const Tensor x = signs_of(Tensor::randn(Shape{5, 130}, rng));
  const Tensor wf = Tensor::randn(Shape{9, 130}, rng);
  const Tensor wsg = signs_of(wf);
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 9, 130);
  ASSERT_TRUE(bitgemm::all_pm1(x));
  Tensor out(Shape{5, 9});
  bitgemm::xnor_linear(x, packed.bits, out);
  expect_bitwise_equal(out, ops::matmul_nt(x, wsg));
}

TEST(Bitgemm, SignLinearMatchesMatmulNtOnFloatInput) {
  Rng rng(12);
  const Tensor x = Tensor::randn(Shape{6, 75}, rng);
  const Tensor wf = Tensor::randn(Shape{10, 75}, rng);
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 10, 75);
  Tensor out(Shape{6, 10});
  bitgemm::sign_linear(x, packed, out);
  expect_bitwise_equal(out, ops::matmul_nt(x, signs_of(wf)));
}

TEST(Bitgemm, XnorConv2dMatchesAutogradConvOnSignInput) {
  Rng rng(13);
  const Tensor x = signs_of(Tensor::randn(Shape{2, 3, 8, 8}, rng));
  const Tensor wf = Tensor::randn(Shape{4, 3, 3, 3}, rng);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 8, .in_w = 8};
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 4, g.patch_size());
  Tensor out(Shape{2, 4, g.out_h(), g.out_w()});
  bitgemm::xnor_conv2d(x, g, packed.bits, out);

  autograd::NoGradGuard no_grad;
  const Tensor ref =
      autograd::conv2d(Variable(x), Variable(signs_of(wf)), Variable(), 1, 1)
          .value();
  expect_bitwise_equal(out, ref);
}

TEST(Bitgemm, SignConv2dMatchesAutogradConvOnFloatInput) {
  Rng rng(14);
  const Tensor x = Tensor::rand_uniform(Shape{2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor wf = Tensor::randn(Shape{5, 3, 3, 3}, rng);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 8, .in_w = 8};
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 5, g.patch_size());
  Tensor out(Shape{2, 5, g.out_h(), g.out_w()});
  bitgemm::sign_conv2d(x, g, packed, out);

  autograd::NoGradGuard no_grad;
  const Tensor ref =
      autograd::conv2d(Variable(x), Variable(signs_of(wf)), Variable(), 1, 1)
          .value();
  expect_bitwise_equal(out, ref);
}

// ------------------------------- ConvP kernels: geometry sweep parity

/// One conv geometry of the sweep (the pool is the ConvP block's 3/2/1).
struct SweepGeometry {
  std::int64_t batch, channels, filters, h, w, kernel, stride, pad;
};

std::string describe(const SweepGeometry& s) {
  std::ostringstream os;
  os << "b" << s.batch << " c" << s.channels << " f" << s.filters << " "
     << s.h << "x" << s.w << " k" << s.kernel << " s" << s.stride << " p"
     << s.pad;
  return os.str();
}

/// Each axis swept across its values around a base geometry: channel
/// counts, filter counts below, at and past the 4-filter tile (6 leaves a
/// two-filter tail), widths on both sides of the 16-lane strip (8 and 16
/// stack two output rows per tile; 17, 32 and 33 take side-by-side strips,
/// and 32 is the device conv's width), every (kernel, stride, pad)
/// combination and batch sizes. k1/p2 keeps outputs whose whole window is
/// padding (zero in-bounds taps) in the sweep.
std::vector<SweepGeometry> convp_sweep() {
  const SweepGeometry base{3, 3, 5, 17, 16, 3, 1, 1};
  std::vector<SweepGeometry> out;
  // 63..130 put the channel bits of the XNOR conv in one, one full, and
  // two and three words.
  for (const std::int64_t c : {1, 3, 4, 24, 63, 64, 65, 130}) {
    out.push_back(base);
    out.back().channels = c;
  }
  for (const std::int64_t f : {1, 3, 4, 5, 6, 8, 16}) {
    out.push_back(base);
    out.back().filters = f;
  }
  for (const std::int64_t h : {7, 16, 17, 33}) {
    for (const std::int64_t w : {7, 8, 16, 17, 32, 33}) {
      out.push_back(base);
      out.back().h = h;
      out.back().w = w;
    }
  }
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t st : {1, 2}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        out.push_back(base);
        out.back().kernel = k;
        out.back().stride = st;
        out.back().pad = pad;
      }
    }
  }
  for (const std::int64_t b : {1, 3, 64}) {
    out.push_back(base);
    out.back().batch = b;
  }
  return out;
}

/// Uniform noise with exact +0.0 / -0.0 and large magnitudes mixed in.
Tensor sweep_input(const Shape& shape, Rng& rng) {
  Tensor x = Tensor::rand_uniform(shape, rng, -2.0f, 2.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    switch (i % 13) {
      case 0: x[i] = 0.0f; break;
      case 5: x[i] = -0.0f; break;
      case 9: x[i] *= 1e18f; break;
      default: break;
    }
  }
  return x;
}

/// Random BN affine parameters and running statistics, about half the
/// gammas negative (the default BN — gamma 1, beta 0, mean 0, var 1 —
/// cannot tell a swapped or dropped term apart).
void randomize_batch_norm(nn::Module& m, Rng& rng) {
  for (auto& p : m.named_parameters()) {
    const bool gamma = p.name.ends_with("gamma");
    const bool beta = p.name.ends_with("beta");
    if (!gamma && !beta) continue;
    Tensor& v = p.var.value();
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      v[i] = static_cast<float>(rng.uniform(-1.5, 1.5));
    }
  }
  for (auto& [name, t] : m.named_buffers()) {
    const bool var = name.ends_with("running_var");
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t[i] = static_cast<float>(var ? rng.uniform(0.05, 4.0)
                                     : rng.uniform(-3.0, 3.0));
    }
  }
}

TEST(ConvPKernels, GeometrySweepBitIdenticalToAutogradChain) {
  Rng rng(41);
  for (const SweepGeometry& s : convp_sweep()) {
    nn::BinaryConv2d conv(s.channels, s.filters, s.kernel, s.stride, s.pad,
                          rng);
    nn::MaxPool2d pool(3, 2, 1);
    nn::BatchNorm bn(s.filters);
    randomize_batch_norm(bn, rng);
    conv.set_training(false);
    bn.set_training(false);
    const Shape shape{s.batch, s.channels, s.h, s.w};
    // Float input runs the register-tiled sign conv, ±1 input the XNOR one.
    for (const Tensor& x : {sweep_input(shape, rng),
                            signs_of(Tensor::randn(shape, rng))}) {
      autograd::NoGradGuard no_grad;
      const Variable ref_conv = conv.forward(Variable(x));
      const Tensor ref =
          autograd::binarize(bn.forward(pool.forward(ref_conv))).value();
      infer::Workspace ws;
      const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                    infer::next_section_id(), "convp_sweep"};
      auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
        Tensor h = conv.infer(in[0], w);
        Tensor out = nn::pool_bn_sign(h, pool, bn, w);
        return std::vector<Tensor>{h, out};
      };
      for (const int threads : {1, 4}) {
        PoolSizeGuard guard(threads);
        SCOPED_TRACE(describe(s) + " threads " + std::to_string(threads) +
                     (bitgemm::all_pm1(x) ? " xnor" : " sign"));
        const auto got = infer::run_section(ws, desc, {x}, "", body);
        expect_bitwise_equal(got[0], ref_conv.value());
        expect_bitwise_equal(got[1], ref);
      }
    }
  }
}

TEST(ConvPKernels, ConcatFeatureFuseBitIdenticalToAutogradConcatConv) {
  // CC gathers the branches straight into the 1x1 projection's GEMM
  // operand. It must match autograd concat -> conv2d bit for bit at every
  // single-branch failure, on a recorded and a replayed plan, for batch
  // sizes 1 and 64 and 1 and 4 threads.
  constexpr int kBranches = 6;
  Rng rng(47);
  core::FeatureMapAggregator agg(core::AggKind::kConcat, kBranches, 4, rng);
  agg.set_training(false);
  for (auto& p : agg.named_parameters()) {
    if (!p.name.ends_with("bias")) continue;  // non-zero bias broadcast
    Tensor& v = p.var.value();
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  std::vector<std::vector<bool>> masks(1, std::vector<bool>(kBranches, true));
  for (int down = 0; down < kBranches; ++down) {
    masks.push_back(masks[0]);
    masks.back()[static_cast<std::size_t>(down)] = false;
  }
  for (const std::int64_t batch : {1, 64}) {
    std::vector<Tensor> branches;
    for (int i = 0; i < kBranches; ++i) {
      branches.push_back(sweep_input(Shape{batch, 4, 16, 16}, rng));
    }
    const std::vector<Variable> vars(branches.begin(), branches.end());
    infer::Workspace ws;
    const infer::SectionDesc desc{infer::SectionTier::kEdge,
                                  infer::next_section_id(), "cc_fuse"};
    for (const auto& mask : masks) {
      std::string sig;
      for (const bool a : mask) sig += a ? '1' : '0';
      autograd::NoGradGuard no_grad;
      const Tensor ref = agg.forward(vars, mask).value();
      auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
        return std::vector<Tensor>{agg.infer(in, mask, w)};
      };
      for (const int threads : {1, 4}) {
        PoolSizeGuard guard(threads);
        SCOPED_TRACE("b" + std::to_string(batch) + " mask " + sig +
                     " threads " + std::to_string(threads));
        for (int pass = 0; pass < 2; ++pass) {  // record, then replay
          expect_bitwise_equal(
              infer::run_section(ws, desc, branches, sig, body)[0], ref);
        }
      }
    }
  }
}

TEST(ConvPKernels, BlockPlansTwoWorkspaceTensors) {
  // The conv output and the fused tail's ±1 output are the block's only
  // planner intervals: the pool, BN (inv_std, x_hat, out) and sign
  // intermediates of the layer-by-layer chain never reach the workspace.
  Rng rng(45);
  nn::ConvPBlock block(3, 4, rng);
  block.set_training(false);
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "convp_intervals"};
  auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{block.infer(in[0], w)};
  };
  const Tensor x = Tensor::rand_uniform(Shape{1, 3, 32, 32}, rng, 0.0f, 1.0f);
  const auto out = infer::run_section(ws, desc, {x}, "", body);
  EXPECT_EQ(out[0].shape(), (Shape{1, 4, 16, 16}));
  // Two record-pass acquires, plus the packed arena built after them.
  EXPECT_EQ(ws.alloc_count(), 3u);
}

TEST(ConvPKernels, PoolScanMatchesAutogradOnNonFiniteAndSignedZeros) {
  // The separable scan keeps autograd's -inf seed and `>` compare and picks
  // the first maximum in (ky, kx) order, so NaN taps are never selected and
  // the first of +0/-0 wins.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0f, -0.0f, -1.0f, 1.0f};
  Rng rng(42);
  std::vector<Tensor> inputs;
  for (const std::int64_t n : {9, 8, 16, 32}) {
    // Specials sit on the odd squares of an n x n checkerboard. autograd
    // requires a finite winner in every window. Every clamped window but a
    // 1x1 one covers an even square, and only a corner window can clamp to
    // 1x1 (k1 windows sit on even squares), so the corners stay finite.
    Tensor x = Tensor::randn(Shape{2, 3, n, n}, rng);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const std::int64_t iy = (i / n) % n, ix = i % n;
      const bool corner = (iy == 0 || iy == n - 1) && (ix == 0 || ix == n - 1);
      if ((iy + ix) % 2 == 1 && !corner) x[i] = specials[(i / 2) % 7];
    }
    inputs.push_back(x);
    // Every window of a plane of +0/-0 ties (and some -1s) peaks at zero,
    // so the winner's sign bit shows whether the taps were visited in
    // order. Ties fall across window rows and columns and, at 32 wide,
    // across the row pass's 16-lane vectors.
    Tensor zeros(Shape{1, 2, n, n});
    for (std::int64_t i = 0; i < zeros.numel(); ++i) {
      const std::uint64_t r = rng.uniform_index(5);
      zeros[i] = r < 2 ? 0.0f : (r < 4 ? -0.0f : -1.0f);
    }
    inputs.push_back(zeros);
  }
  for (const Tensor& in : inputs) {
    for (const std::int64_t k : {1, 2, 3, 5}) {
      for (const std::int64_t st : {1, 2}) {
        for (const std::int64_t pad : {0, 1, 2}) {
          if (pad >= k || (k == 1 && st == 1)) continue;
          nn::MaxPool2d pool(k, st, pad);
          autograd::NoGradGuard no_grad;
          const Tensor ref = pool.forward(Variable(in)).value();
          infer::Workspace ws;
          SCOPED_TRACE(in.shape().to_string() + " k" + std::to_string(k) +
                       " s" + std::to_string(st) + " p" + std::to_string(pad));
          expect_bitwise_equal(pool.infer(in, ws), ref);
        }
      }
    }
  }
}

// ------------------------------------------- full-model engine parity grid

std::vector<Variable> parity_views(int n, std::uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Variable> views;
  for (int i = 0; i < n; ++i) {
    views.emplace_back(
        Tensor::rand_uniform(Shape{2, 3, 32, 32}, rng, 0.0f, 1.0f));
  }
  return views;
}

core::DdnnOutputs run_engine(DdnnModel& model,
                             const std::vector<Variable>& views,
                             const std::vector<bool>& active,
                             infer::EngineKind kind) {
  EngineGuard engine(kind);
  autograd::NoGradGuard no_grad;
  return model.forward(views, active);
}

void expect_outputs_bitwise_equal(const core::DdnnOutputs& a,
                                  const core::DdnnOutputs& b) {
  ASSERT_EQ(a.exit_logits.size(), b.exit_logits.size());
  for (std::size_t e = 0; e < a.exit_logits.size(); ++e) {
    expect_bitwise_equal(a.exit_logits[e].value(), b.exit_logits[e].value());
  }
  ASSERT_EQ(a.device_features.size(), b.device_features.size());
  for (std::size_t d = 0; d < a.device_features.size(); ++d) {
    expect_bitwise_equal(a.device_features[d].value(),
                         b.device_features[d].value());
  }
  ASSERT_EQ(a.edge_features.size(), b.edge_features.size());
  for (std::size_t g = 0; g < a.edge_features.size(); ++g) {
    expect_bitwise_equal(a.edge_features[g].value(),
                         b.edge_features[g].value());
  }
}

using ParityParam = std::tuple<HierarchyPreset, bool>;  // preset, float_cloud

class EngineParityGrid : public ::testing::TestWithParam<ParityParam> {};

TEST_P(EngineParityGrid, ExitLogitsBitIdenticalAcrossEnginesAndThreads) {
  const auto [preset, float_cloud] = GetParam();
  auto cfg = DdnnConfig::preset(preset);
  cfg.float_cloud = float_cloud;
  cfg.validate();
  DdnnModel model(cfg);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices);

  std::vector<std::vector<bool>> masks;
  masks.emplace_back(static_cast<std::size_t>(cfg.num_devices), true);
  if (cfg.num_devices > 1) {
    // Fail the first and the last device (separately): exercises the
    // masked paths of every aggregator under both engines.
    for (const int failed : {0, cfg.num_devices - 1}) {
      std::vector<bool> m(static_cast<std::size_t>(cfg.num_devices), true);
      m[static_cast<std::size_t>(failed)] = false;
      masks.push_back(std::move(m));
    }
  }

  for (const int threads : {1, 4}) {
    PoolSizeGuard pool(threads);
    for (const auto& mask : masks) {
      const auto ref =
          run_engine(model, views, mask, infer::EngineKind::kAutograd);
      const auto got = run_engine(model, views, mask, infer::EngineKind::kPlan);
      expect_outputs_bitwise_equal(ref, got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, EngineParityGrid,
    ::testing::Combine(::testing::Values(HierarchyPreset::kCloudOnly,
                                         HierarchyPreset::kDeviceCloud,
                                         HierarchyPreset::kDevicesCloud,
                                         HierarchyPreset::kDevicesEdgesCloud),
                       ::testing::Bool()));

TEST(EngineParity, AggregationSchemesBitIdenticalAcrossEngines) {
  for (const auto local : {core::AggKind::kMaxPool, core::AggKind::kAvgPool,
                           core::AggKind::kConcat, core::AggKind::kGatedAvg}) {
    for (const auto cloud :
         {core::AggKind::kMaxPool, core::AggKind::kAvgPool,
          core::AggKind::kConcat, core::AggKind::kGatedAvg}) {
      auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesCloud, 3);
      cfg.local_agg = local;
      cfg.cloud_agg = cloud;
      cfg.validate();
      DdnnModel model(cfg);
      model.set_training(false);
      const auto views = parity_views(cfg.num_devices);
      const std::vector<bool> mask{true, false, true};
      const auto ref =
          run_engine(model, views, mask, infer::EngineKind::kAutograd);
      const auto got =
          run_engine(model, views, mask, infer::EngineKind::kPlan);
      expect_outputs_bitwise_equal(ref, got);
    }
  }
}

TEST(EngineParity, MemBudgetSlicingBitIdenticalToUnbudgetedRun) {
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesEdgesCloud);
  cfg.validate();
  DdnnModel model(cfg);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);

  // Unbudgeted reference, plus the full-batch peak the budget must undercut.
  const auto ref = run_engine(model, views, all, infer::EngineKind::kAutograd);
  infer::reset_plan_stats();
  const auto full = run_engine(model, views, all, infer::EngineKind::kPlan);
  expect_outputs_bitwise_equal(ref, full);
  const auto full_stats = infer::plan_stats();
  const std::int64_t full_peak =
      std::max({full_stats.device_peak_bytes, full_stats.edge_peak_bytes,
                full_stats.cloud_peak_bytes});
  ASSERT_GT(full_peak, 0);

  // Single-row plans bound what the minimal slice needs, so a budget at the
  // single-row peak is feasible — and (batch 2) strictly below full_peak.
  infer::reset_plan_stats();
  const auto row_views = parity_views(cfg.num_devices, 6);
  std::vector<Variable> one_row;
  for (const auto& v : row_views) {
    one_row.emplace_back(v.value().narrow0(0, 1).clone());
  }
  run_engine(model, one_row, all, infer::EngineKind::kPlan);
  const auto row_stats = infer::plan_stats();
  const std::int64_t budget =
      std::max({row_stats.device_peak_bytes, row_stats.edge_peak_bytes,
                row_stats.cloud_peak_bytes});
  ASSERT_GT(budget, 0);
  ASSERT_LT(budget, full_peak);

  BudgetGuard guard(budget);
  for (const int threads : {1, 4}) {
    PoolSizeGuard pool(threads);
    infer::reset_plan_stats();
    const auto sliced = run_engine(model, views, all, infer::EngineKind::kPlan);
    expect_outputs_bitwise_equal(ref, sliced);
    // Every executed section stayed under the budget.
    const auto stats = infer::plan_stats();
    EXPECT_LE(stats.device_peak_bytes, budget);
    EXPECT_LE(stats.edge_peak_bytes, budget);
    EXPECT_LE(stats.cloud_peak_bytes, budget);
  }
}

TEST(EngineParity, PoisonModeKeepsEverySectionBitIdentical) {
  // Audits all plan-engine sections: with poisoned arenas, any kernel that
  // read recycled or unwritten workspace bytes would surface NaNs and break
  // parity with the autograd forward.
  PoisonGuard poison(true);
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesEdgesCloud);
  cfg.validate();
  DdnnModel model(cfg);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices, 9);
  std::vector<bool> mask(static_cast<std::size_t>(cfg.num_devices), true);
  mask[0] = false;
  const auto ref = run_engine(model, views, mask, infer::EngineKind::kAutograd);
  for (int pass = 0; pass < 2; ++pass) {  // record pass, then poisoned replay
    const auto got = run_engine(model, views, mask, infer::EngineKind::kPlan);
    expect_outputs_bitwise_equal(ref, got);
  }
}

TEST(EngineParity, RandomizedBatchNormStatsBitIdenticalAcrossEngines) {
  // Every BN in the model (device, edge and cloud ConvP tails, FC blocks,
  // exit heads) with random running statistics and negative gammas.
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesEdgesCloud);
  cfg.validate();
  DdnnModel model(cfg);
  Rng rng(43);
  randomize_batch_norm(model, rng);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices, 44);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);
  for (const int threads : {1, 4}) {
    PoolSizeGuard pool(threads);
    expect_outputs_bitwise_equal(
        run_engine(model, views, all, infer::EngineKind::kAutograd),
        run_engine(model, views, all, infer::EngineKind::kPlan));
  }
}

// --------------------------------------- evaluation + runtime trace parity

TEST(EngineParity, EvaluateExitsBitIdenticalAcrossEngines) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 4;
  data_cfg.test_samples = 24;
  data_cfg.seed = 31;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  DdnnModel model(DdnnConfig::preset(HierarchyPreset::kDevicesCloud));
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  auto eval_with = [&](infer::EngineKind kind) {
    EngineGuard engine(kind);
    return core::evaluate_exits(model, dataset.test(), devices, 8);
  };
  const auto ref = eval_with(infer::EngineKind::kAutograd);
  const auto got = eval_with(infer::EngineKind::kPlan);
  ASSERT_EQ(ref.num_exits(), got.num_exits());
  EXPECT_EQ(ref.labels, got.labels);
  for (std::size_t e = 0; e < ref.num_exits(); ++e) {
    expect_bitwise_equal(ref.exit_probs[e], got.exit_probs[e]);
  }
}

TEST(EngineParity, HierarchyRuntimeTracesIdenticalAcrossEngines) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 4;
  data_cfg.test_samples = 16;
  data_cfg.seed = 77;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  DdnnModel model(DdnnConfig::preset(HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  auto traces_with = [&](infer::EngineKind kind) {
    EngineGuard engine(kind);
    dist::HierarchyRuntime runtime(model, {0.5}, devices);
    std::vector<dist::InferenceTrace> traces;
    for (const auto& sample : dataset.test()) {
      traces.push_back(runtime.classify(sample));
    }
    return traces;
  };
  const auto ref = traces_with(infer::EngineKind::kAutograd);
  const auto got = traces_with(infer::EngineKind::kPlan);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].exit_taken, got[i].exit_taken) << i;
    EXPECT_EQ(ref[i].prediction, got[i].prediction) << i;
    // Identical logits -> identical doubles, not merely close.
    EXPECT_EQ(ref[i].entropy, got[i].entropy) << i;
  }
}

// ----------------------------------------------- packed-cache invalidation

TEST(EngineParity, PackedCacheTracksOptimizerUpdates) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 16;
  data_cfg.test_samples = 4;
  data_cfg.seed = 9;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesCloud, 3);
  DdnnModel model(cfg);
  const std::vector<int> devices{0, 1, 2};
  const auto views = parity_views(cfg.num_devices, 21);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);

  // Populate the packed caches from the initial weights...
  model.set_training(false);
  expect_outputs_bitwise_equal(
      run_engine(model, views, all, infer::EngineKind::kAutograd),
      run_engine(model, views, all, infer::EngineKind::kPlan));

  // ...then update every parameter in place through the real optimizer. A
  // stale pack would keep serving the old signs.
  model.set_training(true);
  core::TrainConfig train_cfg;
  train_cfg.epochs = 1;
  train_cfg.batch_size = 8;
  core::train_ddnn(model, dataset.train(), devices, train_cfg);

  model.set_training(false);
  expect_outputs_bitwise_equal(
      run_engine(model, views, all, infer::EngineKind::kAutograd),
      run_engine(model, views, all, infer::EngineKind::kPlan));
}

TEST(EngineParity, PackedCacheTracksLoadState) {
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesCloud, 3);
  DdnnModel donor(cfg);
  DdnnConfig other = cfg;
  other.init_seed = cfg.init_seed + 101;
  DdnnModel receiver(other);
  donor.set_training(false);
  receiver.set_training(false);

  const auto views = parity_views(cfg.num_devices, 22);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);
  // Build the receiver's packed caches from its own (different) weights.
  run_engine(receiver, views, all, infer::EngineKind::kPlan);

  const std::string path = ::testing::TempDir() + "/ddnn_engine_state.bin";
  nn::save_state(donor, path);
  nn::load_state(receiver, path);

  const auto ref = run_engine(donor, views, all, infer::EngineKind::kAutograd);
  const auto got = run_engine(receiver, views, all, infer::EngineKind::kPlan);
  expect_outputs_bitwise_equal(ref, got);
}

}  // namespace
}  // namespace ddnn
