// Fixed-size thread pool behind the parallel kernels.
//
// All data-parallel hot paths (GEMM, im2col, batch evaluation, threshold
// sweeps) run through parallel_for(), which splits an index range into
// contiguous chunks and executes them on a process-wide pool. The pool size
// is DDNN_THREADS when set (>= 1), otherwise std::thread::hardware_concurrency.
//
// Determinism contract:
//  - DDNN_THREADS=1 executes every chunk inline on the calling thread, in
//    order, and reproduces the serial results bit-for-bit.
//  - Chunks always cover disjoint index ranges, so kernels whose chunks
//    write disjoint outputs (all of ours) are bit-deterministic for *any*
//    thread count. Reductions must accumulate per-chunk into preallocated
//    slices and combine serially in chunk order — never via float atomics.
//  - parallel_for() called from inside a pool worker runs inline (no nested
//    parallelism, no deadlock).
#pragma once

#include <cstdint>
#include <functional>

namespace ddnn {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use.
  static ThreadPool& instance();

  /// Replace the process-wide pool with one of `threads` compute threads
  /// (benchmarks and tests only; not safe while parallel work is in
  /// flight). `threads <= 0` restores the DDNN_THREADS / hardware default.
  static void set_size(int threads);

  /// Number of compute threads (the calling thread participates; with size
  /// N, N-1 helper threads are spawned). Always >= 1.
  int size() const { return size_; }

  /// Run fn(chunk_begin, chunk_end) over [begin, end) in contiguous chunks
  /// of at least `grain` indices. Runs inline when the range is within one
  /// grain, the pool has size 1, or the caller is itself a pool worker.
  /// Every chunk is non-empty. Returns as soon as every chunk has completed
  /// (helpers that never claimed one are not waited for). Rethrows the
  /// first exception thrown by any chunk.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(int threads);

  void worker_loop();
  void enqueue(std::function<void()> task);

  int size_ = 1;
  struct Impl;
  Impl* impl_ = nullptr;
};

/// Convenience wrapper over ThreadPool::instance().parallel_for().
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace ddnn
