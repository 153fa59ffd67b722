// Microbenchmarks of the substrate kernels (google-benchmark).
//
// These time the operations the training loop and the simulated devices are
// made of: im2col-based convolution, pooling, batch norm, binarization, the
// bit-packed wire format and the aggregation primitives. Includes the
// ablation from DESIGN.md §5: bit-packed vs float32 feature transport.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "autograd/grad_mode.hpp"
#include "autograd/ops.hpp"
#include "core/aggregator.hpp"
#include "core/entropy.hpp"
#include "core/model.hpp"
#include "dist/message.hpp"
#include "infer/engine.hpp"
#include "infer/workspace.hpp"
#include "nn/blocks.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ddnn;
using autograd::Variable;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulThreads(benchmark::State& state) {
  // Threaded-vs-serial GEMM: Arg is the pool size. On an N-core runner
  // the 256^3 case should show ~min(N, 4)x throughput at Arg(4) vs Arg(1)
  // with bit-identical outputs (see test_thread_pool).
  ThreadPool::set_size(static_cast<int>(state.range(0)));
  const std::int64_t n = 256;
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::set_size(0);  // restore the DDNN_THREADS / hardware default
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_Im2col(benchmark::State& state) {
  Rng rng(2);
  const Tensor x = Tensor::randn(Shape{32, 3, 32, 32}, rng);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 32, .in_w = 32};
  for (auto _ : state) {
    benchmark::DoNotOptimize(im2col(x, g));
  }
}
BENCHMARK(BM_Im2col);

void BM_Conv2dForward(benchmark::State& state) {
  const auto filters = state.range(0);
  Rng rng(3);
  autograd::NoGradGuard no_grad;
  const Variable x(Tensor::randn(Shape{32, 3, 32, 32}, rng));
  const Variable w(Tensor::randn(Shape{filters, 3, 3, 3}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::conv2d(x, w, Variable(), 1, 1));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(4)->Arg(8)->Arg(32);

void BM_Conv2dForwardThreads(benchmark::State& state) {
  // Threaded-vs-serial conv forward (im2col + GEMM): Arg is the pool size.
  ThreadPool::set_size(static_cast<int>(state.range(0)));
  Rng rng(3);
  autograd::NoGradGuard no_grad;
  const Variable x(Tensor::randn(Shape{32, 3, 32, 32}, rng));
  const Variable w(Tensor::randn(Shape{32, 3, 3, 3}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::conv2d(x, w, Variable(), 1, 1));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::set_size(0);
}
BENCHMARK(BM_Conv2dForwardThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_Conv2dTrainStep(benchmark::State& state) {
  // Forward + backward through one ConvP-sized convolution.
  Rng rng(4);
  Variable x = Variable::parameter(Tensor::randn(Shape{32, 3, 32, 32}, rng));
  Variable w = Variable::parameter(Tensor::randn(Shape{4, 3, 3, 3}, rng));
  const Variable ones(Tensor::ones(Shape{32 * 4 * 32 * 32, 1}));
  for (auto _ : state) {
    Variable y = autograd::conv2d(x, w, Variable(), 1, 1);
    Variable loss = autograd::matmul(
        autograd::reshape(y, Shape{1, y.numel()}), ones);
    x.zero_grad();
    w.zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(w.grad());
  }
}
BENCHMARK(BM_Conv2dTrainStep);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(5);
  autograd::NoGradGuard no_grad;
  const Variable x(Tensor::randn(Shape{32, 4, 32, 32}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::max_pool2d(x, 3, 2, 1));
  }
}
BENCHMARK(BM_MaxPool);

void BM_BatchNorm(benchmark::State& state) {
  Rng rng(6);
  autograd::NoGradGuard no_grad;
  const Variable x(Tensor::randn(Shape{32, 4, 16, 16}, rng));
  const Variable gamma(Tensor::ones(Shape{4}));
  const Variable beta(Tensor::zeros(Shape{4}));
  Tensor rm = Tensor::zeros(Shape{4});
  Tensor rv = Tensor::ones(Shape{4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        autograd::batch_norm(x, gamma, beta, rm, rv, true, 0.1f, 1e-5f));
  }
}
BENCHMARK(BM_BatchNorm);

void BM_Binarize(benchmark::State& state) {
  Rng rng(7);
  autograd::NoGradGuard no_grad;
  const Variable x(Tensor::randn(Shape{32, 4, 16, 16}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::binarize(x));
  }
}
BENCHMARK(BM_Binarize);

void BM_DeviceConvPBlock(benchmark::State& state) {
  // The device ConvP block (3 -> 4 sign conv, then the fused pool/BN/sign
  // tail) on the engine at batch Arg: Arg 1 is the per-sample compute a
  // simulated end device performs.
  Rng rng(8);
  nn::ConvPBlock block(3, 4, rng);
  block.set_training(false);
  const Tensor x = Tensor::randn(Shape{state.range(0), 3, 32, 32}, rng);
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "bench_device_convp"};
  auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{block.infer(in[0], w)};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::run_section(ws, desc, {x}, "", body));
  }
}
BENCHMARK(BM_DeviceConvPBlock)->Arg(1)->Arg(64);

void BM_BinaryConv2dInfer(benchmark::State& state) {
  // The engine path of a binarized conv on ±1 input: cached tap-packed
  // weights + the channel-packed XNOR conv. Compare the BENCH_engine.json
  // comparison this binary writes on exit.
  Rng rng(8);
  nn::BinaryConv2d conv(4, 8, 3, 1, 1, rng);
  conv.set_training(false);
  const Tensor x = ops::sign(Tensor::randn(Shape{8, 4, 16, 16}, rng));
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "bench_binary_conv"};
  auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{conv.infer(in[0], w)};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::run_section(ws, desc, {x}, "", body));
  }
}
BENCHMARK(BM_BinaryConv2dInfer);

void BM_CloudXnorConv(benchmark::State& state) {
  // The model's XNOR conv: the cloud ConvP block's 16 -> 48 binary conv
  // over the ±1 8x8 edge features, at batch Arg.
  Rng rng(8);
  nn::BinaryConv2d conv(16, 48, 3, 1, 1, rng);
  conv.set_training(false);
  const Tensor x =
      ops::sign(Tensor::randn(Shape{state.range(0), 16, 8, 8}, rng));
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kCloud,
                                infer::next_section_id(), "bench_cloud_xnor"};
  auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{conv.infer(in[0], w)};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::run_section(ws, desc, {x}, "", body));
  }
}
BENCHMARK(BM_CloudXnorConv)->Arg(1)->Arg(64);

/// The edge's CC fuse inputs: six ±1 device feature maps [batch, 4, 16, 16].
std::vector<Tensor> edge_branches(std::int64_t batch, Rng& rng) {
  std::vector<Tensor> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back(ops::sign(Tensor::randn(Shape{batch, 4, 16, 16}, rng)));
  }
  return out;
}

void BM_EdgeCcFuse(benchmark::State& state) {
  // The edge's CC fuse of six device feature maps through the 1x1
  // projection (24 -> 4 channels), at batch Arg.
  Rng rng(8);
  core::FeatureMapAggregator agg(core::AggKind::kConcat, 6, 4, rng);
  agg.set_training(false);
  const std::vector<Tensor> branches = edge_branches(state.range(0), rng);
  const std::vector<bool> active(6, true);
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kEdge,
                                infer::next_section_id(), "bench_edge_cc"};
  auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{agg.infer(in, active, w)};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        infer::run_section(ws, desc, branches, "111111", body));
  }
}
BENCHMARK(BM_EdgeCcFuse)->Arg(1)->Arg(64);

void BM_BinaryLinearInfer(benchmark::State& state) {
  Rng rng(8);
  nn::BinaryLinear fc(1024, 128, rng);
  fc.set_training(false);
  const Tensor x = ops::sign(Tensor::randn(Shape{8, 1024}, rng));
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "bench_binary_fc"};
  auto body = [&](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{fc.infer(in[0], w)};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::run_section(ws, desc, {x}, "", body));
  }
}
BENCHMARK(BM_BinaryLinearInfer);

void BM_PackSigns(benchmark::State& state) {
  Rng rng(9);
  const Tensor feats = ops::sign(Tensor::randn(Shape{4, 16, 16}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_signs(feats));
  }
  state.SetBytesProcessed(state.iterations() *
                          packed_size_bytes(feats.numel()));
}
BENCHMARK(BM_PackSigns);

void BM_WireBinaryVsFloat(benchmark::State& state) {
  // Ablation (DESIGN.md §5): bytes-on-wire for binary vs float32 transport
  // of a device feature map. The timed work is the full encode — the packed
  // binary codec, or a plain float32 payload copy (the protocol has no
  // float feature-map codec) — and the byte counters show the 32x payload
  // difference.
  Rng rng(10);
  const Tensor feats = ops::sign(Tensor::randn(Shape{1, 4, 16, 16}, rng));
  const bool binary = state.range(0) == 1;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    if (binary) {
      const auto msg = dist::encode_binary_feature_map(feats);
      bytes = msg.payload_bytes();
      benchmark::DoNotOptimize(msg.payload.data());
    } else {
      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(feats.numel()) * sizeof(float));
      std::memcpy(payload.data(), feats.data(), payload.size());
      bytes = static_cast<std::int64_t>(payload.size());
      benchmark::DoNotOptimize(payload.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["payload_B"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WireBinaryVsFloat)->Arg(1)->Arg(0);

void BM_NormalizedEntropy(benchmark::State& state) {
  const std::vector<float> probs{0.5f, 0.3f, 0.2f};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::normalized_entropy(probs));
  }
}
BENCHMARK(BM_NormalizedEntropy);

void BM_StackAggregation(benchmark::State& state) {
  // MP aggregation across 6 device branches.
  Rng rng(11);
  autograd::NoGradGuard no_grad;
  std::vector<Variable> branches;
  for (int i = 0; i < 6; ++i) {
    branches.emplace_back(Tensor::randn(Shape{32, 3}, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::stack_max(branches));
  }
}
BENCHMARK(BM_StackAggregation);

// ------------------------------------------------- autograd vs engine JSON

/// Best-of-N wall time of fn() in milliseconds (after warmup). Best-of
/// rather than mean: the comparison machine may be a shared core, and the
/// minimum is the least contaminated by scheduler noise.
template <typename Fn>
double min_time_ms(Fn&& fn, int warmup = 10, int reps = 120) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct EngineRow {
  std::string name;
  double autograd_ms;
  double engine_ms;
  double speedup() const { return autograd_ms / engine_ms; }
};

/// Best-of-N wall time of `body` run as a planned section over `inputs`.
double section_time_ms(
    const std::vector<Tensor>& inputs, const std::string& sig,
    const std::function<std::vector<Tensor>(const std::vector<Tensor>&,
                                            infer::Workspace&)>& body) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "bench_cmp"};
  return min_time_ms([&] {
    benchmark::DoNotOptimize(infer::run_section(ws, desc, inputs, sig, body));
  });
}

/// Times the autograd forward against the engine plan on the binarized
/// primitives, the model's cloud XNOR conv and edge CC fuse at batch 1 and
/// 64, and a full device section, and writes BENCH_engine.json to
/// $DDNN_RESULTS_DIR (default `results/`). The engine acceptance bar
/// is the device-section row: >= 3x over the autograd path at batch 1.
void write_engine_comparison() {
  Rng rng(8);
  autograd::NoGradGuard no_grad;
  std::vector<EngineRow> rows;

  {
    nn::BinaryConv2d conv(4, 8, 3, 1, 1, rng);
    conv.set_training(false);
    const Tensor x = ops::sign(Tensor::randn(Shape{8, 4, 16, 16}, rng));
    const Variable vx(x);
    rows.push_back(
        {"binary_conv",
         min_time_ms([&] { benchmark::DoNotOptimize(conv.forward(vx)); }),
         section_time_ms({x}, "", [&](const std::vector<Tensor>& in,
                                      infer::Workspace& w) {
           return std::vector<Tensor>{conv.infer(in[0], w)};
         })});
  }
  {
    nn::BinaryLinear fc(1024, 128, rng);
    fc.set_training(false);
    const Tensor x = ops::sign(Tensor::randn(Shape{8, 1024}, rng));
    const Variable vx(x);
    rows.push_back(
        {"binary_fc",
         min_time_ms([&] { benchmark::DoNotOptimize(fc.forward(vx)); }),
         section_time_ms({x}, "", [&](const std::vector<Tensor>& in,
                                      infer::Workspace& w) {
           return std::vector<Tensor>{fc.infer(in[0], w)};
         })});
  }
  for (const std::int64_t batch : {1, 64}) {
    const std::string tag = "_b" + std::to_string(batch);
    nn::BinaryConv2d conv(16, 48, 3, 1, 1, rng);
    conv.set_training(false);
    const Tensor x = ops::sign(Tensor::randn(Shape{batch, 16, 8, 8}, rng));
    const Variable vx(x);
    rows.push_back(
        {"cloud_xnor_conv" + tag,
         min_time_ms([&] { benchmark::DoNotOptimize(conv.forward(vx)); }),
         section_time_ms({x}, "", [&](const std::vector<Tensor>& in,
                                      infer::Workspace& w) {
           return std::vector<Tensor>{conv.infer(in[0], w)};
         })});

    core::FeatureMapAggregator agg(core::AggKind::kConcat, 6, 4, rng);
    agg.set_training(false);
    const std::vector<Tensor> branches = edge_branches(batch, rng);
    const std::vector<Variable> vbranches(branches.begin(), branches.end());
    const std::vector<bool> active(6, true);
    rows.push_back(
        {"edge_cc_fuse" + tag,
         min_time_ms([&] {
           benchmark::DoNotOptimize(agg.forward(vbranches, active));
         }),
         section_time_ms(branches, "111111",
                         [&](const std::vector<Tensor>& in,
                             infer::Workspace& w) {
                           return std::vector<Tensor>{
                               agg.infer(in, active, w)};
                         })});
  }
  {
    // A full device section (trunk + local exit head) at batch 1: the
    // per-sample work of one simulated end device, preset (c).
    core::DdnnModel model(
        core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
    model.set_training(false);
    const Variable view(
        Tensor::rand_uniform(Shape{1, 3, 32, 32}, rng, 0.0f, 1.0f));
    auto run_section = [&] {
      const Variable features = model.device_section_features(0, view);
      benchmark::DoNotOptimize(model.device_section_logits(0, features));
    };
    infer::set_engine_kind(infer::EngineKind::kAutograd);
    const double autograd_ms = min_time_ms(run_section);
    infer::set_engine_kind(infer::EngineKind::kPlan);
    const double engine_ms = min_time_ms(run_section);
    infer::clear_engine_override();
    rows.push_back({"device_section", autograd_ms, engine_ms});
  }

  const std::string dir = env_string("DDNN_RESULTS_DIR", "results");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/BENCH_engine.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"autograd_ms\": %.6f, "
                 "\"engine_ms\": %.6f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.autograd_ms, r.engine_ms, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nautograd vs engine (best-of-120, written to %s):\n",
              path.c_str());
  for (const auto& r : rows) {
    std::printf("  %-20s autograd %8.4f ms   engine %8.4f ms   %5.2fx\n",
                r.name.c_str(), r.autograd_ms, r.engine_ms, r.speedup());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_engine_comparison();
  return 0;
}
