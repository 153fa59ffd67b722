// Thread-pool semantics and the determinism contract: a fixed DDNN_THREADS
// is bit-deterministic, DDNN_THREADS=1 reproduces the serial kernels
// exactly, and our kernels (disjoint-write chunking) are bit-identical
// across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/grad_mode.hpp"
#include "autograd/ops.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "data/mvmc.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn {
namespace {

using autograd::Variable;

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

/// Runs `fn` under `threads` compute threads and returns its result.
template <typename Fn>
auto with_threads(int threads, Fn fn) {
  PoolSizeGuard guard(threads);
  return fn();
}

// ------------------------------------------------------------ pool basics

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  PoolSizeGuard guard(4);
  std::vector<int> hits(10000, 0);
  parallel_for(0, 10000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRangeNeverInvokes) {
  PoolSizeGuard guard(4);
  int calls = 0;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SmallRangeRunsInlineAsOneChunk) {
  PoolSizeGuard guard(4);
  std::int64_t lo_seen = -1, hi_seen = -1;
  int calls = 0;
  parallel_for(3, 7, 8, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    lo_seen = lo;
    hi_seen = hi;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(lo_seen, 3);
  EXPECT_EQ(hi_seen, 7);
}

TEST(ThreadPool, PropagatesChunkExceptions) {
  PoolSizeGuard guard(4);
  EXPECT_THROW(
      parallel_for(0, 1000, 1,
                   [](std::int64_t, std::int64_t) { throw Error("boom"); }),
      Error);
  // The pool survives an exception and keeps scheduling work.
  std::vector<int> hits(100, 0);
  parallel_for(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  PoolSizeGuard guard(4);
  std::vector<int> hits(64 * 64, 0);
  parallel_for(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      parallel_for(0, 64, 1, [&](std::int64_t lo2, std::int64_t hi2) {
        for (std::int64_t j = lo2; j < hi2; ++j) {
          ++hits[static_cast<std::size_t>(i * 64 + j)];
        }
      });
    }
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, NestedCallFromCallerChunkDoesNotWaitForBusyHelpers) {
  // Both helpers block in their outer chunks until the caller's own chunk
  // has finished a nested parallel_for. The nested call must return once
  // its chunks are done; a pool that joins on helper exit waits for the
  // busy workers instead and only gets free when their timeout fires.
  // (The caller may claim more than one chunk; a helper that starts late
  // finds nothing left.)
  PoolSizeGuard guard(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  bool nested_done = false;
  std::atomic<int> timeouts{0};
  parallel_for(0, 3, 1, [&](std::int64_t, std::int64_t) {
    if (std::this_thread::get_id() == caller) {
      std::atomic<std::int64_t> sum{0};
      parallel_for(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sum += i;
      });
      EXPECT_EQ(sum.load(), 64 * 63 / 2);
      std::lock_guard<std::mutex> lock(mu);
      nested_done = true;
      cv.notify_all();
    } else {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return nested_done; })) {
        ++timeouts;
      }
    }
  });
  EXPECT_EQ(timeouts.load(), 0);
}

TEST(ThreadPool, EveryChunkIsNonEmptyAndCoversTheRangeOnce) {
  // Range 16 under a size-3 pool is cut into chunks of 2: 8 chunks, not
  // the 12 the chunk cap alone would issue.
  PoolSizeGuard guard(3);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  parallel_for(0, 16, 1, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    calls.emplace_back(lo, hi);
  });
  std::vector<int> hits(16, 0);
  for (const auto& [lo, hi] : calls) {
    EXPECT_LT(lo, hi);
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(calls.size(), 8u);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SizeOneAlwaysInline) {
  PoolSizeGuard guard(1);
  EXPECT_EQ(ThreadPool::instance().size(), 1);
  std::vector<std::int64_t> order;
  parallel_for(0, 1000, 10, [&](std::int64_t lo, std::int64_t) {
    order.push_back(lo);  // no synchronization: must be single-threaded
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i]);  // chunks in order, on one thread
  }
}

// --------------------------------------------- kernel determinism 1 vs 4

TEST(Determinism, MatmulBitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{70, 40}, rng);
  const Tensor b = Tensor::randn(Shape{40, 50}, rng);
  const Tensor serial = with_threads(1, [&] { return ops::matmul(a, b); });
  const Tensor threaded = with_threads(4, [&] { return ops::matmul(a, b); });
  expect_bitwise_equal(serial, threaded);
}

TEST(Determinism, MatmulTnAndNtBitIdenticalAcrossThreadCounts) {
  Rng rng(12);
  const Tensor at = Tensor::randn(Shape{40, 70}, rng);
  const Tensor b = Tensor::randn(Shape{40, 50}, rng);
  expect_bitwise_equal(with_threads(1, [&] { return ops::matmul_tn(at, b); }),
                       with_threads(4, [&] { return ops::matmul_tn(at, b); }));
  const Tensor a = Tensor::randn(Shape{70, 40}, rng);
  const Tensor bt = Tensor::randn(Shape{50, 40}, rng);
  expect_bitwise_equal(with_threads(1, [&] { return ops::matmul_nt(a, bt); }),
                       with_threads(4, [&] { return ops::matmul_nt(a, bt); }));
}

TEST(Determinism, ElementwiseAndSoftmaxBitIdenticalAcrossThreadCounts) {
  Rng rng(13);
  const Tensor x = Tensor::randn(Shape{100000}, rng);  // above the cutoff
  expect_bitwise_equal(with_threads(1, [&] { return ops::exp(x); }),
                       with_threads(4, [&] { return ops::exp(x); }));
  const Tensor y = Tensor::randn(Shape{100000}, rng);
  expect_bitwise_equal(with_threads(1, [&] { return ops::add(x, y); }),
                       with_threads(4, [&] { return ops::add(x, y); }));
  const Tensor logits = Tensor::randn(Shape{5000, 3}, rng);
  expect_bitwise_equal(
      with_threads(1, [&] { return ops::softmax_rows(logits); }),
      with_threads(4, [&] { return ops::softmax_rows(logits); }));
}

TEST(Determinism, Im2colAndConvForwardBitIdenticalAcrossThreadCounts) {
  Rng rng(14);
  const Tensor x = Tensor::randn(Shape{8, 3, 16, 16}, rng);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 16, .in_w = 16};
  expect_bitwise_equal(with_threads(1, [&] { return im2col(x, g); }),
                       with_threads(4, [&] { return im2col(x, g); }));

  autograd::NoGradGuard no_grad;
  const Variable vx(x);
  const Variable w(Tensor::randn(Shape{4, 3, 3, 3}, rng));
  const Tensor conv_serial = with_threads(1, [&] {
    return autograd::conv2d(vx, w, Variable(), 1, 1).value();
  });
  const Tensor conv_threaded = with_threads(4, [&] {
    return autograd::conv2d(vx, w, Variable(), 1, 1).value();
  });
  expect_bitwise_equal(conv_serial, conv_threaded);
}

TEST(Determinism, Col2imBitIdenticalAcrossThreadCounts) {
  Rng rng(15);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 16, .in_w = 16};
  const Tensor cols = Tensor::randn(
      Shape{8 * g.out_h() * g.out_w(), g.patch_size()}, rng);
  expect_bitwise_equal(with_threads(1, [&] { return col2im(cols, g, 8); }),
                       with_threads(4, [&] { return col2im(cols, g, 8); }));
}

// --------------------------------------- end-to-end evaluation determinism

TEST(Determinism, EvaluateExitsAndPolicyIdenticalAcrossThreadCounts) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 8;
  data_cfg.test_samples = 40;
  data_cfg.seed = 99;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  const auto serial = with_threads(1, [&] {
    return core::evaluate_exits(model, dataset.test(), devices, 8);
  });
  const auto threaded = with_threads(4, [&] {
    return core::evaluate_exits(model, dataset.test(), devices, 8);
  });
  ASSERT_EQ(serial.num_exits(), threaded.num_exits());
  EXPECT_EQ(serial.labels, threaded.labels);
  for (std::size_t e = 0; e < serial.num_exits(); ++e) {
    expect_bitwise_equal(serial.exit_probs[e], threaded.exit_probs[e]);
  }

  const auto policy_serial =
      with_threads(1, [&] { return core::apply_policy(serial, {0.5}); });
  const auto policy_threaded =
      with_threads(4, [&] { return core::apply_policy(serial, {0.5}); });
  EXPECT_DOUBLE_EQ(policy_serial.overall_accuracy,
                   policy_threaded.overall_accuracy);
  EXPECT_EQ(policy_serial.exit_fraction, policy_threaded.exit_fraction);
  ASSERT_EQ(policy_serial.decisions.size(), policy_threaded.decisions.size());
  for (std::size_t i = 0; i < policy_serial.decisions.size(); ++i) {
    EXPECT_EQ(policy_serial.decisions[i].exit_taken,
              policy_threaded.decisions[i].exit_taken);
    EXPECT_EQ(policy_serial.decisions[i].prediction,
              policy_threaded.decisions[i].prediction);
    EXPECT_DOUBLE_EQ(policy_serial.decisions[i].entropy,
                     policy_threaded.decisions[i].entropy);
  }

  const auto search_serial = with_threads(
      1, [&] { return core::search_thresholds_best_overall(serial, 0.25); });
  const auto search_threaded = with_threads(
      4, [&] { return core::search_thresholds_best_overall(serial, 0.25); });
  EXPECT_EQ(search_serial, search_threaded);
}

}  // namespace
}  // namespace ddnn
