// ddnn_perf: the repository benchmark harness.
//
// Drives one workload through the public entry points of src/core, src/dist
// and the `ddnn serve` roles, checks its outputs against the repository's
// parity oracles, and prints every metric by name and unit, ending with one
// JSON result line. perfbench/run.py builds this binary, trains the fixture
// model and is the command to run; see perfbench/README.md for the workload
// and metric definitions.
//
//   ddnn_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --model <fixture.ddnn> --ddnn <path to the ddnn CLI>
//             --work-dir <dir> [--trace-out <spans.json>]
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload twice (untraced, then traced with spans around every call
// into a module's public functions) and reports the per-layer metrics.
// No span or hook lives inside the program: every span opens and closes in
// this file.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/grad_mode.hpp"
#include "autograd/ops.hpp"
#include "core/config.hpp"
#include "core/comm_cost.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "data/loader.hpp"
#include "data/mvmc.hpp"
#include "dist/message.hpp"
#include "dist/node.hpp"
#include "dist/queueing.hpp"
#include "dist/runtime.hpp"
#include "dist/serve.hpp"
#include "dist/transport.hpp"
#include "infer/engine.hpp"
#include "infer/planner.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "opt/optimizer.hpp"
#include "tensor/bitgemm.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace {

using namespace ddnn;
namespace fs = std::filesystem;
using nn::Variable;

// ------------------------------------------------------------ definitions
//
// Everything below is part of the workload definitions; changing a value
// changes what the benchmark measures, so parent and change must agree.

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 5;
/// Samples in the fixed subsets the correctness oracles compare.
constexpr int kOracleSamples = 64;
/// Batch size of the offline evaluation workload and of every b64 probe.
constexpr std::size_t kBatch = 64;
/// Distinct test samples generated for the inference workloads. Their views
/// (38 MB) fit in the last-level cache, so per-sample time measures the
/// program rather than how fast a shared host streams inputs from DRAM.
constexpr int kUniqueSamples = 512;
/// Samples per repetition, cycled over the distinct ones: an eval pass, a
/// sim pass and a served drive. 1000 leaves 10 samples beyond p99.
constexpr int kEvalSamples = 1024;
constexpr int kSimSamples = 1000;
constexpr int kServedSamples = 1000;
/// Samples in the warm pass that records sim/served plans during set-up.
constexpr int kWarmSamples = 16;
/// Exit thresholds (normalized entropy) per non-final exit. sim-local-heavy
/// sits in the paper's regime (~70 % local exits); served-cloud-heavy sends
/// most samples across both TCP hops (~10/23/67 % local/edge/cloud).
const std::vector<double> kSimThresholds{0.98, 0.9};
const std::vector<double> kServedThresholds{0.8, 0.8};
/// The examples/fleet_sim topology the sim workload replays its traces on.
constexpr std::int64_t kFleetArrivals = 1'000'000;
/// Bounded waits for the served roles.
constexpr double kRoleBindTimeoutS = 30.0;
constexpr double kRoleExitTimeoutS = 15.0;

const char* const kWorkloads[] = {"eval-batch64", "sim-local-heavy",
                                  "served-cloud-heavy"};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"samples_per_s", "1/s"},
    {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
    {"cpu_ms_per_sample", "ms"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (--trace 1), in BENCHMARK.json order. A layer the
/// workload never calls reports 0.
const MetricDef kPerLayer[] = {
    {"data.generate_s", "s"},
    {"tensor.sign_conv2d.b1_us", "us"},
    {"tensor.sign_conv2d.b64_us", "us"},
    {"tensor.xnor_conv2d.b1_us", "us"},
    {"tensor.xnor_conv2d.b64_us", "us"},
    {"tensor.xnor_linear.b1_us", "us"},
    {"tensor.xnor_linear.b64_us", "us"},
    {"tensor.pack_signs.b1_us", "us"},
    {"tensor.matmul.train_us", "us"},
    {"tensor.im2col.train_us", "us"},
    {"tensor.col2im.train_us", "us"},
    {"infer.first_pass_ms", "ms"},
    {"infer.arena_peak_bytes.device", "bytes"},
    {"infer.arena_peak_bytes.edge", "bytes"},
    {"infer.arena_peak_bytes.cloud", "bytes"},
    {"core.device_section.b1_us", "us"},
    {"core.device_section.b64_us", "us"},
    {"core.local_aggregate.b1_us", "us"},
    {"core.local_aggregate.b64_us", "us"},
    {"core.edge_section.b1_us", "us"},
    {"core.edge_section.b64_us", "us"},
    {"core.cloud_section.b1_us", "us"},
    {"core.cloud_section.b64_us", "us"},
    {"core.apply_policy_ms", "ms"},
    {"core.threshold_search_ms", "ms"},
    {"core.train.forward_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"opt.step_ms", "ms"},
    {"dist.classify_us", "us"},
    {"dist.runtime.self_us", "us"},
    {"dist.codec.encode_features_us", "us"},
    {"dist.codec.decode_features_us", "us"},
    {"dist.frame.encode_us", "us"},
    {"dist.frame.decode_us", "us"},
    {"dist.frame.crc32_us", "us"},
    {"dist.serve.self_us", "us"},
    {"dist.serve.retries", "count"},
    {"dist.serve.timeouts", "count"},
    {"dist.bytes_per_sample", "bytes"},
    {"dist.exit_frac.local", "ratio"},
    {"dist.exit_frac.edge", "ratio"},
    {"dist.exit_frac.cloud", "ratio"},
    {"dist.fleet_arrivals_per_s", "1/s"},
    {"obs.export_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
};

// ------------------------------------------------------------------ utils

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

/// User + system CPU seconds of this process (all threads) or of its
/// reaped children.
double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double max_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  DDNN_CHECK(!v.empty(), "median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  DDNN_CHECK(!v.empty(), "percentile of nothing");
  std::sort(v.begin(), v.end());
  return percentile_nearest_rank(v, q);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Moves one unit of single-CPU work to the next CPU the process may use,
/// so that a run samples every CPU in turn. On a shared virtual machine one
/// CPU can run 1.6x slower than another for seconds at a time (another
/// tenant busy on the same physical core); a run that stays on one CPU
/// reports that CPU's luck, one that rotates reports the machine's.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
    }
  }

  /// Pin the calling thread and `pids` (whole processes' main threads) to
  /// the next CPU. A failed pin leaves the scheduler in charge.
  void next(const std::vector<pid_t>& pids = {}) {
    if (cpus_.empty()) return;
    const int cpu = cpus_[next_++ % cpus_.size()];
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    ::sched_setaffinity(0, sizeof(mask), &mask);
    for (const pid_t pid : pids) ::sched_setaffinity(pid, sizeof(mask), &mask);
  }

  std::size_t size() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// A failure the run reports by name instead of a metric.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder for the traced run. Spans nest by an explicit
/// open/close stack (one thread); spans of one sample share `sample`.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t sample = -1;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    double dur() const { return end_s - start_s; }
  };

  /// RAII span; a no-op when the tracer is off or absent.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::int64_t sample)
        : t_(t != nullptr && t->on_ ? t : nullptr) {
      if (t_ != nullptr) id_ = t_->open(std::move(name), sample);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Record a finished span measured elsewhere (e.g. from a callback).
  void add(std::string name, std::int64_t sample, double start_s,
           double end_s) {
    if (!on_) return;
    spans_.push_back({std::move(name), sample,
                      stack_.empty() ? -1 : stack_.back(), start_s, end_s});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Mean duration (seconds) of the spans named `name`; 0 when none.
  double mean_dur(const std::string& name) const {
    double total = 0.0;
    std::int64_t n = 0;
    for (const auto& s : spans_) {
      if (s.name == name) {
        total += s.dur();
        ++n;
      }
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  }

  /// Self time of every span: its duration minus the time its direct
  /// children cover (children of one thread never overlap).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur();
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur();
    }
    return self;
  }

  /// Write every span as JSON: name, sample, parent, start, end, self.
  void write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw BenchError("cannot write trace file '" + path + "'");
    }
    const auto self = self_times();
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fprintf(f, "{\"time_unit\": \"us\", \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"sample\": %lld, "
                   "\"parent\": %d, \"start\": %.3f, \"end\": %.3f, "
                   "\"self\": %.3f}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.sample),
                   s.parent, 1e6 * (s.start_s - t0), 1e6 * (s.end_s - t0),
                   1e6 * self[i], i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  int open(std::string name, std::int64_t sample) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), sample,
                      stack_.empty() ? -1 : stack_.back(), now_s(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    stack_.pop_back();
  }

  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  std::string ddnn_path;
  std::string work_dir;
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw BenchError("bad argument '" + key + "' (expected --key value)");
    }
    kv[key.substr(2)] = argv[++i];
  }
  auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) throw BenchError(std::string("missing --") + k);
    return it->second;
  };
  o.workload = need("workload");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    throw BenchError("unknown workload '" + o.workload + "'");
  }
  o.seed = std::stoull(need("seed"));
  o.seconds = std::stod(need("seconds"));
  if (!(o.seconds > 0.0)) throw BenchError("--seconds must be > 0");
  const std::string trace = need("trace");
  if (trace != "0" && trace != "1") throw BenchError("--trace must be 0 or 1");
  o.trace = trace == "1";
  o.model_path = need("model");
  o.ddnn_path = need("ddnn");
  o.work_dir = need("work-dir");
  if (kv.count("trace-out") != 0) o.trace_out = kv["trace-out"];
  return o;
}

// ----------------------------------------------------------------- set-up

/// The benchmark's model: preset e (6 devices, one edge, cloud), f = 4 —
/// the configuration `ddnn train --preset e` builds the fixture with.
core::DdnnConfig fixture_config() {
  auto cfg = core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud,
                                      6, 4);
  cfg.local_agg = core::AggKind::kMaxPool;
  cfg.cloud_agg = core::AggKind::kConcat;
  cfg.validate();
  return cfg;
}

/// What one set-up produces: generated inputs plus the loaded model.
struct Setup {
  core::DdnnConfig cfg;
  std::optional<data::MvmcDataset> dataset;
  /// One repetition's inputs: the test split cycled to the repetition's
  /// length (copies share the views' storage).
  std::vector<data::MvmcSample> inputs;
  std::unique_ptr<core::DdnnModel> model;
  std::vector<int> devices;
  double generate_s = 0.0;
  double first_pass_s = 0.0;
};

/// Generate the workload's data (the seed reaches the program only through
/// MvmcConfig) and load the fixture. The caller runs the first pass.
std::unique_ptr<Setup> load_setup(const Options& o, int test_samples,
                                  int stream_samples) {
  auto s = std::make_unique<Setup>();
  s->cfg = fixture_config();
  data::MvmcConfig mc;
  mc.seed = o.seed;
  mc.test_samples = test_samples;
  mc.train_samples = 0;
  const double t0 = now_s();
  s->dataset.emplace(data::MvmcDataset::generate(mc));
  s->generate_s = now_s() - t0;
  const auto& test = s->dataset->test();
  for (int i = 0; i < stream_samples; ++i) {
    s->inputs.push_back(test[static_cast<std::size_t>(i) % test.size()]);
  }
  s->model = std::make_unique<core::DdnnModel>(s->cfg);
  nn::load_state(*s->model, o.model_path);
  for (int d = 0; d < s->cfg.num_devices; ++d) s->devices.push_back(d);
  return s;
}

// ----------------------------------------------------- oracles and probes

std::vector<data::MvmcSample> head(const std::vector<data::MvmcSample>& v,
                                   std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(n, v.size()))};
}

/// Exit logits of `samples` (one batch) under the given engine.
std::vector<Tensor> exit_logits(core::DdnnModel& model,
                                const std::vector<data::MvmcSample>& samples,
                                const std::vector<int>& devices,
                                infer::EngineKind engine) {
  const infer::EngineKind before = infer::engine_kind();
  infer::set_engine_kind(engine);
  autograd::NoGradGuard no_grad;
  model.set_training(false);
  const auto batch =
      data::make_batch(samples, data::all_indices(samples.size()), devices);
  std::vector<Variable> views;
  for (const auto& v : batch.views) views.emplace_back(v);
  auto out = model.forward(views);
  std::vector<Tensor> logits;
  for (auto& l : out.exit_logits) logits.push_back(l.value().clone());
  infer::set_engine_kind(before);
  return logits;
}

/// Engine ≡ autograd: the fixed subset's exit logits must match bitwise.
void check_engine_parity(core::DdnnModel& model,
                         const std::vector<data::MvmcSample>& samples,
                         const std::vector<int>& devices) {
  const auto subset = head(samples, kOracleSamples);
  const auto plan =
      exit_logits(model, subset, devices, infer::EngineKind::kPlan);
  const auto ref =
      exit_logits(model, subset, devices, infer::EngineKind::kAutograd);
  for (std::size_t e = 0; e < ref.size(); ++e) {
    if (plan[e].shape() != ref[e].shape() ||
        std::memcmp(plan[e].data(), ref[e].data(),
                    static_cast<std::size_t>(ref[e].numel()) *
                        sizeof(float)) != 0) {
      throw BenchError("oracle: plan-engine exit " + std::to_string(e) +
                       " logits differ from the autograd engine");
    }
  }
  std::printf("oracle: plan == autograd exit logits on %zu samples\n",
              subset.size());
}

bool same_decision(const dist::InferenceTrace& a,
                   const dist::InferenceTrace& b) {
  return a.exit_taken == b.exit_taken && a.prediction == b.prediction &&
         std::memcmp(&a.entropy, &b.entropy, sizeof(double)) == 0 &&
         a.bytes_sent == b.bytes_sent && a.degraded == b.degraded &&
         a.dead == b.dead;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Per-device uplink bytes must equal the paper's Eq. 1 at the realized
/// local-exit fraction (healthy runs only).
void check_eq1(const core::DdnnConfig& cfg, const dist::RuntimeMetrics& m) {
  const double local = static_cast<double>(m.exit_counts.at(0)) /
                       static_cast<double>(m.samples);
  const double analytic = core::ddnn_comm_bytes(local, cfg.comm_params());
  for (int d = 0; d < cfg.num_devices; ++d) {
    if (std::fabs(m.device_bytes_per_sample(d) - analytic) > 1e-9) {
      throw BenchError("oracle: device " + std::to_string(d) + " sent " +
                       std::to_string(m.device_bytes_per_sample(d)) +
                       " B/sample, Eq. 1 says " + std::to_string(analytic));
    }
  }
}

/// Replay one sample's route through the DdnnModel partition API with a
/// span per section: every device section, the local aggregator, and the
/// edge and cloud sections when the sample escalated that far.
void replay_route(core::DdnnModel& model, const data::MvmcSample& sample,
                  const std::vector<int>& devices, int exit_taken,
                  std::int64_t id, Tracer& tr) {
  autograd::NoGradGuard no_grad;
  const std::size_t n = devices.size();
  std::vector<Variable> features;
  std::vector<Variable> logits;
  const std::vector<bool> active(n, true);
  for (std::size_t b = 0; b < n; ++b) {
    const Tensor& v = sample.views[static_cast<std::size_t>(devices[b])];
    const Variable input(v.reshape(Shape{1, v.dim(0), v.dim(1), v.dim(2)}));
    Tracer::Scope s(&tr, "core.device_section.b1", id);
    features.push_back(
        model.device_section_features(static_cast<int>(b), input));
    logits.push_back(
        model.device_section_logits(static_cast<int>(b), features.back()));
  }
  {
    Tracer::Scope s(&tr, "core.local_aggregate.b1", id);
    model.local_aggregate(logits, active);
  }
  if (exit_taken < 1) return;
  core::DdnnModel::EdgeResult edge;
  {
    Tracer::Scope s(&tr, "core.edge_section.b1", id);
    edge = model.edge_section(0, features, active);
  }
  if (exit_taken < 2) return;
  Tracer::Scope s(&tr, "core.cloud_section.b1", id);
  model.cloud_section({edge.features}, {true});
}

/// Sum of the route-replay section spans per sample id.
std::map<std::int64_t, double> route_sums(const Tracer& tr) {
  std::map<std::int64_t, double> sums;
  for (const auto& s : tr.spans()) {
    if (s.name.rfind("core.", 0) == 0 && s.name.size() > 3 &&
        s.name.compare(s.name.size() - 3, 3, ".b1") == 0) {
      sums[s.sample] += s.dur();
    }
  }
  return sums;
}

/// Time `reps` spans named `name`, each covering `inner` calls of `fn`
/// (after one untimed warm call). Returns the mean microseconds per call.
double probe(Tracer& tr, const std::string& name, int reps, int inner,
             const std::function<void()>& fn) {
  fn();
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope s(&tr, name, -1);
    for (int i = 0; i < inner; ++i) fn();
  }
  return 1e6 * tr.mean_dur(name) / inner;
}

/// [b, 3, S, S] views of device 0 from the first b inputs.
Tensor view_batch(const std::vector<data::MvmcSample>& samples, int b) {
  return data::make_batch(samples,
                          data::all_indices(static_cast<std::size_t>(b)), {0})
      .views[0];
}

/// ±1 tensor from the signs of a real batch (kernel inputs must be binary
/// for the XNOR path; their values do not change the work).
Tensor signs_like(const Tensor& x, Shape shape) {
  Tensor out(shape);
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = x.data()[i % n] >= 0.5f ? 1.0f : -1.0f;
  }
  return out;
}

bitgemm::PackedSigns random_weights(std::int64_t rows, std::int64_t cols,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(static_cast<std::size_t>(rows * cols));
  for (auto& x : w) x = rng.uniform() < 0.5 ? -1.0f : 1.0f;
  return bitgemm::pack_signs_matrix(w.data(), rows, cols);
}

using LayerMetrics = std::map<std::string, double>;

/// Kernel, section, codec and training-step probes at the model's shapes on
/// the workload's own inputs. `b1_routes` is false when the workload
/// produced no per-sample route spans, in which case the first samples are
/// replayed along the full device -> edge -> cloud route.
void run_probes(Setup& s, const std::vector<data::MvmcSample>& inputs,
                bool b1_routes, const std::string& fixture_path, Tracer& tr,
                LayerMetrics& lm) {
  const auto& cfg = s.cfg;
  core::DdnnModel& model = *s.model;
  const std::int64_t f = cfg.device_filters;
  const std::int64_t side = cfg.input_size;
  const std::int64_t dside = cfg.device_out_size();
  const std::int64_t edge_in = f * cfg.num_devices;  // CC-fused members
  const int b64 = static_cast<int>(kBatch);

  // Binary kernels at the device conv, edge conv and device exit head.
  const Conv2dGeometry dev_g{.in_channels = cfg.input_channels,
                             .in_h = side, .in_w = side};
  const Conv2dGeometry edge_g{.in_channels = edge_in, .in_h = dside,
                              .in_w = dside};
  const auto dev_w = random_weights(f, dev_g.patch_size(), 11);
  const auto edge_w =
      random_weights(cfg.edge_filters, edge_g.patch_size(), 12);
  const auto head_w = random_weights(cfg.num_classes, f * dside * dside, 13);
  for (const int b : {1, b64}) {
    const std::string tag = b == 1 ? ".b1" : ".b64";
    const int reps = b == 1 ? 200 : 20;
    const Tensor views = view_batch(inputs, b);
    Tensor dev_out(Shape{b, f, side, side});
    lm["tensor.sign_conv2d" + tag + "_us"] =
        probe(tr, "tensor.sign_conv2d" + tag, reps, 1,
              [&] { bitgemm::sign_conv2d(views, dev_g, dev_w, dev_out); });
    const Tensor edge_x = signs_like(views, Shape{b, edge_in, dside, dside});
    Tensor edge_out(Shape{b, cfg.edge_filters, dside, dside});
    lm["tensor.xnor_conv2d" + tag + "_us"] =
        probe(tr, "tensor.xnor_conv2d" + tag, reps, 1, [&] {
          bitgemm::xnor_conv2d(edge_x, edge_g, edge_w.bits, edge_out);
        });
    const Tensor head_x = signs_like(views, Shape{b, f * dside * dside});
    Tensor head_out(Shape{b, cfg.num_classes});
    lm["tensor.xnor_linear" + tag + "_us"] =
        probe(tr, "tensor.xnor_linear" + tag, reps, 1,
              [&] { bitgemm::xnor_linear(head_x, head_w.bits, head_out); });
  }
  const Tensor feat1 = signs_like(view_batch(inputs, 1),
                                  Shape{1, f, dside, dside});
  lm["tensor.pack_signs.b1_us"] = probe(tr, "tensor.pack_signs.b1", 50, 100,
                                        [&] { (void)pack_signs(feat1); });

  // Float kernels at the training shapes of the edge conv (batch 32).
  {
    const int bt = 32;
    const Tensor x = view_batch(inputs, bt);
    const Tensor ex = signs_like(x, Shape{bt, edge_in, dside, dside});
    const Tensor cols = im2col(ex, edge_g);
    Rng rng(14);
    const Tensor w =
        Tensor::rand_uniform(Shape{edge_g.patch_size(), cfg.edge_filters}, rng,
                             -1.0f, 1.0f);
    lm["tensor.im2col.train_us"] =
        probe(tr, "tensor.im2col.train", 20, 1,
              [&] { (void)im2col(ex, edge_g); });
    lm["tensor.matmul.train_us"] = probe(tr, "tensor.matmul.train", 20, 1,
                                         [&] { (void)ops::matmul(cols, w); });
    lm["tensor.col2im.train_us"] =
        probe(tr, "tensor.col2im.train", 20, 1,
              [&] { (void)col2im(cols, edge_g, bt); });
  }

  // Sections at batch 1 (full route) unless the workload's own per-sample
  // routes already produced them, then at batch 64.
  model.set_training(false);
  if (!b1_routes) {
    const auto subset = head(inputs, kOracleSamples);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      replay_route(model, subset[i], s.devices, 2,
                   -1 - static_cast<std::int64_t>(i), tr);
    }
  }
  {
    autograd::NoGradGuard no_grad;
    const auto batch = data::make_batch(
        inputs, data::all_indices(kBatch), s.devices);
    const std::size_t n = s.devices.size();
    const std::vector<bool> active(n, true);
    std::vector<Variable> views;
    for (const auto& v : batch.views) views.emplace_back(v);
    std::vector<Variable> features(n);
    std::vector<Variable> logits(n);
    core::DdnnModel::EdgeResult edge;
    for (int r = 0; r < 11; ++r) {
      Tracer* t = r == 0 ? nullptr : &tr;  // the first rep records the plans
      for (std::size_t b = 0; b < n; ++b) {
        Tracer::Scope sp(t, "core.device_section.b64", -1);
        features[b] = model.device_section_features(static_cast<int>(b),
                                                    views[b]);
        logits[b] = model.device_section_logits(static_cast<int>(b),
                                                features[b]);
      }
      {
        Tracer::Scope sp(t, "core.local_aggregate.b64", -1);
        model.local_aggregate(logits, active);
      }
      {
        Tracer::Scope sp(t, "core.edge_section.b64", -1);
        edge = model.edge_section(0, features, active);
      }
      Tracer::Scope sp(t, "core.cloud_section.b64", -1);
      model.cloud_section({edge.features}, {true});
    }
  }

  // Wire codec and framing at the device feature frame's size.
  {
    autograd::NoGradGuard no_grad;
    const Shape fshape = dist::device_feature_shape(cfg);
    const dist::Message msg = dist::encode_binary_feature_map(feat1);
    const dist::Frame frame = dist::make_message_frame(msg, 0, 0);
    const auto wire = dist::encode_frame(frame);
    lm["dist.codec.encode_features_us"] =
        probe(tr, "dist.codec.encode_features", 50, 100,
              [&] { (void)dist::encode_binary_feature_map(feat1); });
    lm["dist.codec.decode_features_us"] =
        probe(tr, "dist.codec.decode_features", 50, 100,
              [&] { (void)dist::decode_features(msg, fshape); });
    lm["dist.frame.encode_us"] = probe(tr, "dist.frame.encode", 50, 100, [&] {
      (void)dist::encode_frame(dist::make_message_frame(msg, 0, 0));
    });
    lm["dist.frame.decode_us"] = probe(tr, "dist.frame.decode", 50, 100, [&] {
      (void)dist::decode_frame(wire.data(), wire.size());
    });
    lm["dist.frame.crc32_us"] = probe(tr, "dist.frame.crc32", 50, 100, [&] {
      (void)dist::crc32(wire.data(), wire.size());
    });
  }
  for (const char* name :
       {"core.device_section", "core.local_aggregate", "core.edge_section",
        "core.cloud_section"}) {
    for (const char* b : {".b1", ".b64"}) {
      lm[name + std::string(b) + "_us"] = 1e6 * tr.mean_dur(name + std::string(b));
    }
  }

  // A traced training step on a private copy of the fixture:
  // DdnnModel::forward + softmax_cross_entropy, Variable::backward,
  // Adam::step. The first step warms up and is not reported.
  {
    core::DdnnModel copy(cfg);
    nn::load_state(copy, fixture_path);
    copy.set_training(true);
    opt::Adam adam(copy.parameters());
    const int bt = 32;
    for (int r = 0; r < 5; ++r) {
      std::vector<std::size_t> idx;
      for (int i = 0; i < bt; ++i) {
        idx.push_back(static_cast<std::size_t>((r * bt + i)) % inputs.size());
      }
      const auto batch = data::make_batch(inputs, idx, s.devices);
      std::vector<Variable> views;
      for (const auto& v : batch.views) views.emplace_back(v);
      Tracer* t = r == 0 ? nullptr : &tr;
      Tracer::Scope whole(t, "core.train.step", -1);
      Variable loss;
      {
        Tracer::Scope sp(t, "core.train.forward", -1);
        auto out = copy.forward(views);
        for (auto& logits : out.exit_logits) {
          Variable term = autograd::softmax_cross_entropy(logits, batch.labels);
          loss = loss.defined() ? autograd::add(loss, term) : term;
        }
      }
      adam.zero_grad();
      {
        Tracer::Scope sp(t, "autograd.backward", -1);
        loss.backward();
      }
      Tracer::Scope sp(t, "opt.step", -1);
      adam.step();
    }
    lm["core.train.forward_ms"] = 1e3 * tr.mean_dur("core.train.forward");
    lm["autograd.backward_ms"] = 1e3 * tr.mean_dur("autograd.backward");
    lm["opt.step_ms"] = 1e3 * tr.mean_dur("opt.step");
  }
}

// ----------------------------------------------------------- served roles

/// One `ddnn serve` child process. The destructor kills and reaps it, so no
/// exit path of the harness leaves a role behind; PR_SET_PDEATHSIG covers
/// the harness itself being killed.
class Role {
 public:
  Role(std::string name, const std::vector<std::string>& args,
       const std::string& log_path)
      : name_(std::move(name)), log_(log_path) {
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("DDNN_THREADS=", 0) == 0 ||
          kv.rfind("DDNN_RESULTS_DIR=", 0) == 0) {
        continue;
      }
      env.push_back(kv);
    }
    env.push_back("DDNN_THREADS=1");
    env.push_back("DDNN_RESULTS_DIR=off");
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (const auto& kv : env) envp.push_back(const_cast<char*>(kv.c_str()));
    envp.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (log_fd < 0) throw BenchError("cannot open role log '" + log_path + "'");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) throw BenchError("fork failed for served role " + name_);
  }
  ~Role() { kill_and_reap(); }
  Role(const Role&) = delete;
  Role& operator=(const Role&) = delete;

  /// Wait (bounded) for the role to write its bound port to `port_file`.
  int wait_port(const std::string& port_file) {
    const double deadline = now_s() + kRoleBindTimeoutS;
    while (now_s() < deadline) {
      const std::string text = read_file(port_file);
      if (!text.empty() && text.back() == '\n') return std::stoi(text);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw BenchError("served role '" + name_ +
                         "' exited before binding its port (" +
                         describe(status) + "); log: " + log_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw BenchError("served role '" + name_ + "' did not bind within " +
                     std::to_string(kRoleBindTimeoutS) + " s; log: " + log_);
  }

  pid_t pid() const { return pid_; }

  /// User + system CPU seconds the live role has used (/proc/<pid>/stat).
  double cpu_s() const {
    std::istringstream in(read_file("/proc/" + std::to_string(pid_) + "/stat"));
    std::string field;
    // The command name (field 2) has no spaces: it is "(ddnn)".
    double ticks = 0.0;
    for (int i = 1; i <= 15 && in >> field; ++i) {
      if (i == 14 || i == 15) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Wait (bounded) for the role to exit on its own after its peers hung
  /// up; a non-zero exit or a hang is an error.
  void wait_exit() {
    const double deadline = now_s() + kRoleExitTimeoutS;
    while (now_s() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          throw BenchError("served role '" + name_ + "' failed (" +
                           describe(status) + "); log: " + log_);
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw BenchError("served role '" + name_ + "' did not exit within " +
                     std::to_string(kRoleExitTimeoutS) + " s; log: " + log_);
  }

 private:
  static std::string describe(int status) {
    if (WIFEXITED(status)) {
      return "exit status " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
      return "killed by signal " + std::to_string(WTERMSIG(status));
    }
    return "status " + std::to_string(status);
  }
  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  std::string name_;
  std::string log_;
  pid_t pid_ = -1;
};

// -------------------------------------------------------------- workloads

/// One repetition of a workload's unit of work: a pass over its inputs.
struct Rep {
  std::int64_t samples = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // user+sys, the served roles included
  /// Per-sample wall latencies (sim, served). A batch job delivers every
  /// result when its pass ends, so there it is the rep's wall time.
  std::vector<double> latency_s;
};

/// One timed phase: repetitions until the time budget is spent.
struct Phase {
  std::int64_t attempted = 0;  // samples
  std::int64_t failed = 0;     // dead, degraded or errored samples
  std::vector<Rep> reps;

  /// Median over repetitions of the samples per second of the units' own
  /// time (the tracing overhead compares these, so loop bookkeeping and
  /// route replays between units do not count).
  double unit_rate() const {
    std::vector<double> rates;
    for (const auto& r : reps) {
      double total = 0.0;
      for (const double l : r.latency_s) total += l;
      rates.push_back(static_cast<double>(r.samples) / total);
    }
    return median(rates);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate data, load the model and run the first (plan-recording)
  /// pass, recording its duration in Setup::first_pass_s.
  virtual std::unique_ptr<Setup> setup(const Options& o) = 0;
  /// Run whole units of work until `budget_s` has elapsed (at least one).
  /// Spans go to `tr` when it is on.
  virtual Phase run(Setup& s, double budget_s, Tracer& tr) = 0;
  /// Correctness oracles; throw BenchError on any mismatch.
  virtual void check(Setup& s) = 0;
  /// Workload-specific per-layer metrics after the traced phase.
  virtual void layer_metrics(const Tracer& tr, LayerMetrics& lm) = 0;
  /// True when the traced phase replays each sample's route (b1 sections).
  virtual bool per_sample_routes() const { return false; }
  /// Stop what the last set-up started outside its Setup (served roles).
  virtual void release() {}
};

/// Exit counts of a decision list (per exit index).
std::vector<std::int64_t> count_exits(const std::vector<int>& exits,
                                      int num_exits) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_exits), 0);
  for (const int e : exits) {
    if (e >= 0) ++counts[static_cast<std::size_t>(e)];
  }
  return counts;
}

std::string counts_str(const std::vector<std::int64_t>& c) {
  const char* names[] = {"local", "edge", "cloud"};
  std::string out;
  for (std::size_t e = 0; e < c.size(); ++e) {
    out += std::string(e ? " " : "") + (e < 3 ? names[e] : "exit") + " " +
           std::to_string(c[e]);
  }
  return out;
}

void set_exit_fracs(const std::vector<std::int64_t>& c, LayerMetrics& lm) {
  std::int64_t n = 0;
  for (const auto x : c) n += x;
  const char* names[] = {"local", "edge", "cloud"};
  for (std::size_t e = 0; e < c.size() && e < 3; ++e) {
    lm[std::string("dist.exit_frac.") + names[e]] =
        n == 0 ? 0.0 : static_cast<double>(c[e]) / static_cast<double>(n);
  }
}

class EvalWorkload : public Workload {
 public:
  std::unique_ptr<Setup> setup(const Options& o) override {
    auto s = load_setup(o, kUniqueSamples, kEvalSamples);
    // One batch per pool worker records every worker's plans.
    const auto warm = head(
        s->inputs, kBatch * static_cast<std::size_t>(ThreadPool::instance().size()));
    const double t0 = now_s();
    core::evaluate_exits(*s->model, warm, s->devices, kBatch);
    s->first_pass_s = now_s() - t0;
    return s;
  }

  Phase run(Setup& s, double budget_s, Tracer& tr) override {
    Phase p;
    const double t0 = now_s();
    do {
      const double u0 = now_s();
      const double c0 = cpu_s(RUSAGE_SELF);
      Tracer::Scope pass(&tr, "eval.pass", -1);
      core::ExitEval eval;
      {
        Tracer::Scope sp(&tr, "core.evaluate_exits", -1);
        eval = core::evaluate_exits(*s.model, s.inputs, s.devices, kBatch);
      }
      std::vector<double> thresholds;
      {
        Tracer::Scope sp(&tr, "core.threshold_search", -1);
        thresholds = core::search_thresholds_best_overall(eval, 0.1);
      }
      core::PolicyResult policy;
      {
        Tracer::Scope sp(&tr, "core.apply_policy", -1);
        policy = core::apply_policy(eval, thresholds);
      }
      Rep r;
      r.samples = eval.sample_count();
      r.wall_s = now_s() - u0;
      r.cpu_s = cpu_s(RUSAGE_SELF) - c0;
      r.latency_s = {r.wall_s};
      p.reps.push_back(std::move(r));
      p.attempted += eval.sample_count();
      std::vector<int> exits;
      for (const auto& d : policy.decisions) exits.push_back(d.exit_taken);
      auto counts = count_exits(exits, s.cfg.num_exits());
      if (counts_.empty()) {
        counts_ = counts;
        thresholds_ = thresholds;
      } else if (counts != counts_ || thresholds != thresholds_) {
        throw BenchError("eval: a repeated pass changed its exit counts");
      }
    } while (now_s() - t0 < budget_s);
    std::printf("eval-batch64: %zu passes of %zu samples; thresholds %.2f "
                "%.2f; exit counts per pass: %s\n",
                p.reps.size(), s.inputs.size(), thresholds_.at(0),
                thresholds_.at(1), counts_str(counts_).c_str());
    return p;
  }

  void check(Setup& s) override {
    check_engine_parity(*s.model, s.inputs, s.devices);
  }

  void layer_metrics(const Tracer& tr, LayerMetrics& lm) override {
    lm["core.apply_policy_ms"] = 1e3 * tr.mean_dur("core.apply_policy");
    lm["core.threshold_search_ms"] = 1e3 * tr.mean_dur("core.threshold_search");
    set_exit_fracs(counts_, lm);
  }

 private:
  std::vector<std::int64_t> counts_;
  std::vector<double> thresholds_;
};

/// Per-pass outcome check shared by the two hierarchy workloads: every pass
/// over the same samples must reproduce the first pass's decisions.
void check_repeat(const char* workload,
                  std::vector<dist::InferenceTrace>& first,
                  const std::vector<dist::InferenceTrace>& pass) {
  if (first.empty()) {
    first = pass;
    return;
  }
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (!same_decision(first[i], pass[i])) {
      throw BenchError(std::string(workload) + ": sample " +
                       std::to_string(i) +
                       " changed its decision between passes");
    }
  }
}

std::int64_t failed_in(const std::vector<dist::InferenceTrace>& traces) {
  std::int64_t n = 0;
  for (const auto& t : traces) n += (t.dead || t.degraded) ? 1 : 0;
  return n;
}

class SimWorkload : public Workload {
 public:
  explicit SimWorkload(const Options& o) : work_dir_(o.work_dir) {}

  std::unique_ptr<Setup> setup(const Options& o) override {
    auto s = load_setup(o, kUniqueSamples, kSimSamples);
    s->model->set_training(false);
    runtime_.reset();
    runtime_ = std::make_unique<dist::HierarchyRuntime>(
        *s->model, kSimThresholds, s->devices);
    const double t0 = now_s();
    for (int i = 0; i < kWarmSamples; ++i) runtime_->classify(s->inputs[i]);
    s->first_pass_s = now_s() - t0;
    runtime_->reset_metrics();
    return s;
  }

  Phase run(Setup& s, double budget_s, Tracer& tr) override {
    const auto& samples = s.inputs;
    Phase p;
    std::vector<dist::InferenceTrace> traces(samples.size());
    const double t0 = now_s();
    int passes = 0;
    do {
      cpus_.next();
      Rep r;
      const double p0 = now_s();
      const double c0 = cpu_s(RUSAGE_SELF);
      // A fresh registry and series per pass, bound and exported as
      // `ddnn simulate --metrics-out --series-out` does.
      obs::MetricsRegistry registry;
      obs::WindowedSeries series(0.5, "t");
      runtime_->reset_metrics();
      runtime_->bind_metrics(&registry);
      runtime_->bind_series(&series);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::int64_t id = next_id_++;
        Tracer::Scope root(&tr, "sample", id);
        const double u0 = now_s();
        {
          Tracer::Scope sp(&tr, "dist.classify", id);
          traces[i] = runtime_->classify(samples[i]);
        }
        r.latency_s.push_back(now_s() - u0);
        if (tr.on()) {
          replay_route(*s.model, samples[i], s.devices, traces[i].exit_taken,
                       id, tr);
        }
      }
      runtime_->bind_metrics(nullptr);
      runtime_->bind_series(nullptr);
      {
        Tracer::Scope sp(&tr, "obs.export", -1);
        registry.write_json(work_dir_ + "/sim_metrics.json");
        series.write(work_dir_ + "/sim_series.csv");
      }
      r.wall_s = now_s() - p0;
      r.cpu_s = cpu_s(RUSAGE_SELF) - c0;
      r.samples = static_cast<std::int64_t>(samples.size());
      p.reps.push_back(std::move(r));
      metrics_ = runtime_->metrics();
      check_repeat("sim-local-heavy", first_, traces);
      p.attempted += static_cast<std::int64_t>(samples.size());
      p.failed += failed_in(traces);
      ++passes;
    } while (now_s() - t0 < budget_s);
    std::printf("sim-local-heavy: %d passes of %zu samples, each on one of "
                "%zu CPUs in turn; exit counts per pass: %s; %.1f B/sample\n",
                passes, samples.size(), cpus_.size(),
                counts_str(metrics_.exit_counts).c_str(),
                static_cast<double>(metrics_.total_bytes) /
                    static_cast<double>(metrics_.samples));
    if (!tr.on()) replay_fleet(s);
    return p;
  }

  void check(Setup& s) override {
    check_eq1(s.cfg, metrics_);
    // Decisions match the autograd-engine runtime on a fixed subset.
    const auto subset = head(s.inputs, kOracleSamples);
    infer::set_engine_kind(infer::EngineKind::kAutograd);
    dist::HierarchyRuntime ref(*s.model, kSimThresholds, s.devices);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (!same_decision(ref.classify(subset[i]), first_[i])) {
        infer::set_engine_kind(infer::EngineKind::kPlan);
        throw BenchError("oracle: sample " + std::to_string(i) +
                         " decided differently on the autograd engine");
      }
    }
    infer::set_engine_kind(infer::EngineKind::kPlan);
    std::printf("oracle: plan == autograd runtime decisions on %zu samples; "
                "device bytes match Eq. 1\n",
                subset.size());
  }

  void layer_metrics(const Tracer& tr, LayerMetrics& lm) override {
    const auto routes = route_sums(tr);
    std::vector<double> classify, self;
    for (const auto& sp : tr.spans()) {
      if (sp.name != "dist.classify") continue;
      classify.push_back(sp.dur());
      const auto it = routes.find(sp.sample);
      self.push_back(sp.dur() - (it == routes.end() ? 0.0 : it->second));
    }
    lm["dist.classify_us"] = 1e6 * mean(classify);
    lm["dist.runtime.self_us"] = 1e6 * mean(self);
    lm["obs.export_ms"] = 1e3 * tr.mean_dur("obs.export");
    lm["dist.bytes_per_sample"] = static_cast<double>(metrics_.total_bytes) /
                                  static_cast<double>(metrics_.samples);
    lm["dist.fleet_arrivals_per_s"] = fleet_rate_;
    set_exit_fracs(metrics_.exit_counts, lm);
    std::printf("decomposition: classify %.2f us = route sections %.2f us + "
                "runtime self %.2f us\n",
                1e6 * mean(classify), 1e6 * (mean(classify) - mean(self)),
                1e6 * mean(self));
  }

  bool per_sample_routes() const override { return true; }

 private:
  /// simulate_fleet over the last pass's traces on the examples/fleet_sim
  /// topology; the simulated arrivals it processes per wall second.
  void replay_fleet(const Setup& s) {
    dist::FleetConfig fleet;
    fleet.num_devices = 120;
    fleet.num_edges = 4;
    fleet.edge_servers = 1;
    fleet.cloud_servers = 10;
    fleet.arrival_rate_hz = 2000.0;
    fleet.first_cloud_exit = s.cfg.num_exits() - 1;
    fleet.seed = 1;
    const double t0 = now_s();
    const auto stats = dist::simulate_fleet(first_, fleet, kFleetArrivals);
    fleet_rate_ = static_cast<double>(stats.arrivals) / (now_s() - t0);
    if (stats.arrivals != kFleetArrivals ||
        stats.arrivals != stats.completed + stats.shed + stats.dead) {
      throw BenchError("fleet: arrivals != completed + shed + dead");
    }
    std::printf("fleet: %lld arrivals, %lld completed, %lld shed, %lld dead\n",
                static_cast<long long>(stats.arrivals),
                static_cast<long long>(stats.completed),
                static_cast<long long>(stats.shed),
                static_cast<long long>(stats.dead));
  }

  std::string work_dir_;
  CpuRotation cpus_;
  std::unique_ptr<dist::HierarchyRuntime> runtime_;
  dist::RuntimeMetrics metrics_;
  std::vector<dist::InferenceTrace> first_;
  std::int64_t next_id_ = 0;
  double fleet_rate_ = 0.0;
};

/// The cloud and edge `ddnn serve` processes of one set-up. A role exits
/// once every peer has hung up, so an idle connection to each keeps them
/// serving across the drives of a run; stop() closes those and waits for
/// both to exit cleanly.
class Roles {
 public:
  Roles(const Options& o, const core::DdnnConfig& cfg) {
    const std::string dir = o.work_dir;
    const std::vector<std::string> common{
        "--preset", "e", "--devices", std::to_string(cfg.num_devices),
        "--filters", std::to_string(cfg.device_filters), "--model",
        o.model_path, "--listen", "0", "--threshold",
        std::to_string(kServedThresholds.at(1)), "--idle-timeout", "60"};
    auto args = [&](const char* role, const std::string& port_file,
                    std::vector<std::string> extra) {
      std::vector<std::string> a{o.ddnn_path, "serve", "--role", role,
                                 "--port-file", port_file};
      a.insert(a.end(), common.begin(), common.end());
      a.insert(a.end(), extra.begin(), extra.end());
      return a;
    };
    fs::remove(dir + "/cloud.port");
    fs::remove(dir + "/edge.port");
    cloud_ = std::make_unique<Role>(
        "cloud", args("cloud", dir + "/cloud.port", {}), dir + "/cloud.log");
    cloud_addr = "127.0.0.1:" +
                 std::to_string(cloud_->wait_port(dir + "/cloud.port"));
    keep_cloud_ = connect(cloud_addr);
    edge_ = std::make_unique<Role>(
        "edge", args("edge", dir + "/edge.port", {"--cloud", cloud_addr}),
        dir + "/edge.log");
    edge_addr =
        "127.0.0.1:" + std::to_string(edge_->wait_port(dir + "/edge.port"));
    keep_edge_ = connect(edge_addr);
  }

  /// User + system CPU both roles have used so far.
  double cpu_s() const { return cloud_->cpu_s() + edge_->cpu_s(); }

  std::vector<pid_t> pids() const { return {cloud_->pid(), edge_->pid()}; }

  void stop() {
    keep_edge_->close();
    keep_cloud_->close();
    edge_->wait_exit();
    cloud_->wait_exit();
  }

  std::string cloud_addr;
  std::string edge_addr;

 private:
  static std::shared_ptr<dist::FrameConn> connect(const std::string& addr) {
    auto conn = dist::connect_to(addr, 5.0);
    if (conn == nullptr) throw BenchError("cannot connect to role at " + addr);
    return conn;
  }

  std::unique_ptr<Role> cloud_;
  std::unique_ptr<Role> edge_;
  std::shared_ptr<dist::FrameConn> keep_cloud_;
  std::shared_ptr<dist::FrameConn> keep_edge_;
};

class ServedWorkload : public Workload {
 public:
  /// Each pass runs the driver thread and both roles on one CPU, the next
  /// one in turn: with one sample in flight the tiers never compute at
  /// once, and on a shared virtual machine cross-CPU wake-ups made the
  /// closed loop's speed swing by a quarter from run to run.
  explicit ServedWorkload(const Options& o) : o_(o) { cpus_.next(); }

  void release() override {
    if (roles_ != nullptr) roles_->stop();
    roles_.reset();
  }

  std::unique_ptr<Setup> setup(const Options& o) override {
    auto s = load_setup(o, kUniqueSamples, kServedSamples);
    s->model->set_training(false);
    const double t0 = now_s();
    roles_ = std::make_unique<Roles>(o, s->cfg);
    drive(*s, head(s->inputs, kWarmSamples), "");
    s->first_pass_s = now_s() - t0;
    return s;
  }

  Phase run(Setup& s, double budget_s, Tracer& tr) override {
    const auto& samples = s.inputs;
    Phase p;
    const double t0 = now_s();
    int passes = 0;
    do {
      cpus_.next(roles_->pids());
      const bool first = first_.empty();
      Rep r;
      const auto result =
          drive(s, samples, first ? o_.work_dir + "/served.csv" : "", &r);
      for (const auto& t : result.traces) r.latency_s.push_back(t.latency_s);
      r.samples = static_cast<std::int64_t>(samples.size());
      p.reps.push_back(std::move(r));
      check_repeat("served-cloud-heavy", first_, result.traces);
      metrics_ = result.metrics;
      p.attempted += static_cast<std::int64_t>(samples.size());
      p.failed += failed_in(result.traces) +
                  static_cast<std::int64_t>(samples.size()) -
                  metrics_.samples;
      if (tr.on()) {
        retries_ += metrics_.reliability.retries;
        timeouts_ += metrics_.reliability.timeouts;
        for (std::size_t i = 0; i < samples.size(); ++i) {
          const std::int64_t id = next_id_++;
          latency_by_id_[id] = result.traces[i].latency_s;
          replay_route(*s.model, samples[i], s.devices,
                       result.traces[i].exit_taken, id, tr);
        }
      }
      ++passes;
    } while (now_s() - t0 < budget_s);
    std::printf("served-cloud-heavy: %d passes of %zu samples, each on one "
                "of %zu CPUs in turn; exit counts per pass: %s; %.1f "
                "B/sample\n",
                passes, samples.size(), cpus_.size(),
                counts_str(metrics_.exit_counts).c_str(),
                static_cast<double>(metrics_.total_bytes) /
                    static_cast<double>(metrics_.samples));
    return p;
  }

  void check(Setup& s) override {
    release();
    // served == simulated: the decisions CSV must be byte-identical to the
    // HierarchyRuntime oracle's on the same samples and thresholds.
    dist::HierarchyRuntime ref(*s.model, kServedThresholds, s.devices);
    std::vector<dist::InferenceTrace> traces;
    for (const auto& sample : s.inputs) traces.push_back(ref.classify(sample));
    const std::string oracle = o_.work_dir + "/oracle.csv";
    dist::write_decisions_csv(oracle, traces);
    const std::string served = read_file(o_.work_dir + "/served.csv");
    if (served.empty() || served != read_file(oracle)) {
      throw BenchError("oracle: served decisions CSV differs from the "
                       "simulator's");
    }
    check_eq1(s.cfg, ref.metrics());
    std::printf("oracle: served decisions CSV == simulator oracle (%zu "
                "samples); device bytes match Eq. 1\n",
                traces.size());
  }

  void layer_metrics(const Tracer& tr, LayerMetrics& lm) override {
    const auto routes = route_sums(tr);
    std::vector<double> latency, self;
    for (const auto& [id, l] : latency_by_id_) {
      const auto it = routes.find(id);
      latency.push_back(l);
      self.push_back(l - (it == routes.end() ? 0.0 : it->second));
    }
    lm["dist.serve.self_us"] = 1e6 * mean(self);
    lm["dist.serve.retries"] = static_cast<double>(retries_);
    lm["dist.serve.timeouts"] = static_cast<double>(timeouts_);
    lm["dist.bytes_per_sample"] = static_cast<double>(metrics_.total_bytes) /
                                  static_cast<double>(metrics_.samples);
    set_exit_fracs(metrics_.exit_counts, lm);
    std::printf("decomposition: served latency %.2f us = route sections "
                "%.2f us + serve self %.2f us\n",
                1e6 * mean(latency), 1e6 * (mean(latency) - mean(self)),
                1e6 * mean(self));
  }

  bool per_sample_routes() const override { return true; }

 private:
  /// Drive `samples` through the roles in-process: a closed loop, one
  /// connection per tier, one sample in flight. Fills the wall time of the
  /// drive and the CPU it cost, the roles' included, into `rep`.
  dist::DriveResult drive(Setup& s, const std::vector<data::MvmcSample>& samples,
                          const std::string& decisions_out,
                          Rep* rep = nullptr) {
    dist::ServeOptions opts;
    opts.cloud_addr = roles_->cloud_addr;
    opts.edge_addr = roles_->edge_addr;
    opts.thresholds = kServedThresholds;
    opts.reliability.timeout_s = 0.25;  // `ddnn serve --timeout-ms` default
    opts.connect_timeout_s = 5.0;
    opts.decision_timeout_s = 5.0;
    opts.decisions_out = decisions_out;
    const double c0 = cpu_s(RUSAGE_SELF) + roles_->cpu_s();
    const double t0 = now_s();
    dist::DriveResult result;
    try {
      result = dist::drive_hierarchy(*s.model, samples, s.devices, opts);
    } catch (const ddnn::Error& e) {
      throw BenchError(std::string("served driver failed: ") + e.what());
    }
    if (rep != nullptr) {
      rep->wall_s = now_s() - t0;
      rep->cpu_s = cpu_s(RUSAGE_SELF) + roles_->cpu_s() - c0;
    }
    return result;
  }

  Options o_;
  CpuRotation cpus_;
  std::unique_ptr<Roles> roles_;
  dist::RuntimeMetrics metrics_;
  std::vector<dist::InferenceTrace> first_;
  std::map<std::int64_t, double> latency_by_id_;
  std::int64_t next_id_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t timeouts_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "eval-batch64") return std::make_unique<EvalWorkload>();
  if (o.workload == "sim-local-heavy") return std::make_unique<SimWorkload>(o);
  return std::make_unique<ServedWorkload>(o);
}

// ----------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    json += std::string(i ? ", " : "") + "\"" + def.name +
            "\": {\"value\": " + fmt(value) + ", \"unit\": \"" + def.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Options& o) {
  fs::create_directories(o.work_dir);
  std::printf("compiler: g++ %s; flags: %s\n", __VERSION__, DDNN_PERF_FLAGS);
  std::printf("workload %s, seed %llu, %g s, trace %d, DDNN_THREADS=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, ThreadPool::instance().size());
  auto w = make_workload(o);

  // Set-up, repeated; the last one's products are measured.
  std::vector<double> setup_t, gen_t, first_t;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s.reset();
    w->release();
    const double t0 = now_s();
    s = w->setup(o);
    setup_t.push_back(now_s() - t0);
    gen_t.push_back(s->generate_s);
    first_t.push_back(s->first_pass_s);
  }

  Tracer tr;
  const Phase phase = w->run(*s, o.trace ? 0.5 * o.seconds : o.seconds, tr);
  std::vector<std::pair<MetricDef, double>> out;
  std::int64_t attempted = phase.attempted;
  std::int64_t failed = phase.failed;
  if (!o.trace) {
    w->check(*s);
    const double rss = std::max(max_rss_mb(RUSAGE_SELF),
                                max_rss_mb(RUSAGE_CHILDREN));
    // Each time metric reads one quantile of the per-repetition values
    // (nearest-rank throughout). On a shared machine a CPU runs up to 1.7x
    // slower while other tenants are busy, in spells of 0.1 s to minutes.
    // The slowed state shows up in nearly every run while undisturbed
    // spells come and go, so throughput, CPU per sample and median latency
    // read the slow quartile: what the run sustained in three repetitions
    // out of four. A repetition's p99 is its tenth-slowest sample, which
    // any multi-millisecond stall of the machine sets, so p99 reads the
    // fast quartile. A batch repetition has one latency, its wall time, so
    // there p99 is p50.
    std::vector<double> rate, p50, p99, cpu;
    for (const auto& r : phase.reps) {
      rate.push_back(static_cast<double>(r.samples) / r.wall_s);
      p50.push_back(percentile(r.latency_s, 0.50));
      p99.push_back(percentile(r.latency_s, 0.99));
      cpu.push_back(r.cpu_s / static_cast<double>(r.samples));
    }
    const double values[] = {
        median(setup_t),
        percentile(rate, 0.25),
        1e3 * percentile(p50, 0.75),
        1e3 * percentile(p99, phase.reps.front().latency_s.size() == 1
                                  ? 0.75
                                  : 0.25),
        1e3 * percentile(cpu, 0.75),
        rss,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
    std::printf("repetitions: %zu of %lld samples, %zu timed latencies "
                "each; samples/s per repetition: min %.6g median %.6g "
                "max %.6g\n",
                phase.reps.size(),
                static_cast<long long>(phase.reps.front().samples),
                phase.reps.front().latency_s.size(),
                *std::min_element(rate.begin(), rate.end()), median(rate),
                *std::max_element(rate.begin(), rate.end()));
  } else {
    tr.enable(true);
    const Phase traced = w->run(*s, 0.5 * o.seconds, tr);
    attempted += traced.attempted;
    failed += traced.failed;
    LayerMetrics lm;
    for (const auto& def : kPerLayer) lm[def.name] = 0.0;
    // Planned arena peaks of the workload itself, before the probes plan
    // other batch sizes.
    const auto stats = infer::plan_stats();
    lm["infer.arena_peak_bytes.device"] =
        static_cast<double>(stats.device_peak_bytes);
    lm["infer.arena_peak_bytes.edge"] =
        static_cast<double>(stats.edge_peak_bytes);
    lm["infer.arena_peak_bytes.cloud"] =
        static_cast<double>(stats.cloud_peak_bytes);
    lm["data.generate_s"] = median(gen_t);
    lm["infer.first_pass_ms"] = 1e3 * median(first_t);
    lm["bench.trace_overhead_frac"] =
        phase.unit_rate() / traced.unit_rate() - 1.0;
    w->layer_metrics(tr, lm);
    run_probes(*s, s->inputs, w->per_sample_routes(), o.model_path, tr,
               lm);
    w->check(*s);
    if (lm.size() != std::size(kPerLayer)) {
      throw BenchError("internal: undeclared per-layer metric recorded");
    }
    for (const auto& def : kPerLayer) out.emplace_back(def, lm.at(def.name));
    if (!o.trace_out.empty()) {
      tr.write_json(o.trace_out);
      std::printf("wrote %zu spans to %s\n", tr.spans().size(),
                  o.trace_out.c_str());
    }
  }

  for (const auto& [def, value] : out) {
    if (!std::isfinite(value)) {
      throw BenchError(std::string("metric ") + def.name + " is not finite");
    }
    std::printf("  %-34s %16.6g %s\n", def.name, value, def.unit);
  }
  std::printf("samples: attempted %lld, succeeded %lld, failed %lld\n",
              static_cast<long long>(attempted),
              static_cast<long long>(attempted - failed),
              static_cast<long long>(failed));
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);  // a dead role must surface as an error
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ddnn_perf: error: %s\n", e.what());
    return 1;
  }
}
