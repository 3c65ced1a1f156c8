#include "src/sim/worker_pool.h"

namespace ctms {

WorkerPool::WorkerPool(size_t threads) {
  if (threads <= 1) {
    return;
  }
  workers_.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkerPool::RunRound(size_t n, const std::function<void(size_t)>& fn) {
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    count_ = n;
    next_.store(0, std::memory_order_relaxed);
    remaining_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&]() { return remaining_ == 0; });
  fn_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&]() { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      fn = fn_;
      count = count_;
    }
    while (true) {
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        break;
      }
      (*fn)(i);
    }
    // Every worker checks in exactly once per generation — including one that claimed no
    // indices. RunRound must not return (and reset next_ / fn_ for the next round) while
    // any worker can still touch them: a zero-claim straggler doing fetch_add after the
    // reset would re-run index 0 with the previous round's dangling fn.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace ctms
