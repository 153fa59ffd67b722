#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/error.hpp"

namespace ddnn {

namespace {

/// Set for the lifetime of every pool worker thread: parallel_for() calls
/// made from a worker run inline so nested parallelism cannot deadlock the
/// fixed-size pool.
thread_local bool t_in_pool_worker = false;

int default_pool_size() {
  const std::int64_t requested = env_int("DDNN_THREADS", 0);
  if (requested > 0) {
    return static_cast<int>(std::min<std::int64_t>(requested, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex g_instance_mutex;
std::unique_ptr<ThreadPool> g_instance;

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::deque<std::function<void()>> queue;
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;
};

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  impl_ = new Impl;
  // The calling thread is one of the `size_` compute threads, so only
  // size_-1 helpers are spawned; size 1 means fully inline execution.
  for (int i = 0; i < size_ - 1; ++i) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->cv.wait(lock,
                     [this] { return impl_->stop || !impl_->queue.empty(); });
      if (impl_->queue.empty()) {
        if (impl_->stop) return;
        continue;
      }
      task = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

ThreadPool& ThreadPool::instance() {
  std::lock_guard<std::mutex> lock(g_instance_mutex);
  if (!g_instance) {
    g_instance.reset(new ThreadPool(default_pool_size()));
  }
  return *g_instance;
}

void ThreadPool::set_size(int threads) {
  std::lock_guard<std::mutex> lock(g_instance_mutex);
  g_instance.reset();  // join the old pool before replacing it
  g_instance.reset(
      new ThreadPool(threads > 0 ? threads : default_pool_size()));
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  if (t_in_pool_worker || size_ <= 1 || range <= grain) {
    fn(begin, end);
    return;
  }

  // Chunk count is capped at a small multiple of the pool size for load
  // balance, then recounted from the chunk size so no chunk is empty; chunks
  // are contiguous and disjoint, so which thread runs which chunk never
  // affects results.
  const std::int64_t by_grain = (range + grain - 1) / grain;
  const std::int64_t target =
      std::min<std::int64_t>(std::int64_t{size_} * 4, by_grain);
  const std::int64_t chunk = (range + target - 1) / target;
  const std::int64_t nchunks = (range + chunk - 1) / chunk;

  struct CallState {
    std::atomic<std::int64_t> next{0};
    std::int64_t begin = 0, end = 0, chunk = 0, nchunks = 0;
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable done_cv;
    std::int64_t completed = 0;  // chunks finished, guarded by `mutex`
    std::exception_ptr error;
  };
  auto state = std::make_shared<CallState>();
  state->begin = begin;
  state->end = end;
  state->chunk = chunk;
  state->nchunks = nchunks;
  state->fn = &fn;

  // Claims chunks until none is left. `fn` is dereferenced only for a
  // claimed chunk, and the caller returns only once every chunk completed,
  // so a helper that wakes after the last claim touches nothing but the
  // shared state it co-owns.
  auto drain = [](CallState& s) {
    while (true) {
      const std::int64_t c = s.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s.nchunks) return;
      const std::int64_t lo = s.begin + c * s.chunk;
      const std::int64_t hi = std::min(s.end, lo + s.chunk);
      std::exception_ptr error;
      try {
        (*s.fn)(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s.mutex);
      if (error && !s.error) s.error = error;
      if (++s.completed == s.nchunks) s.done_cv.notify_one();
    }
  };

  const int helpers = static_cast<int>(
      std::min<std::int64_t>(size_ - 1, nchunks - 1));
  for (int h = 0; h < helpers; ++h) {
    enqueue([state, drain] { drain(*state); });
  }

  drain(*state);  // the caller is a compute thread too

  // Join on chunk completion, not on helper exit: a helper still queued
  // behind other work (the caller may itself be inside an outer
  // parallel_for whose chunks occupy every worker) is not waited for.
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->completed == nchunks; });
  if (state->error) std::rethrow_exception(state->error);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ThreadPool::instance().parallel_for(begin, end, grain, fn);
}

}  // namespace ddnn
