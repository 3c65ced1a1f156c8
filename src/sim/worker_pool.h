// WorkerPool: the one thread primitive. The fabric runs its conservative-lookahead rounds
// on it, and the campaign runner and the faultsweep run their independent cells on it.
//
// RunRound hands indices 0..n-1 to the workers and returns only when all have finished —
// that return IS the barrier: afterwards the caller (single-threaded) may read everything
// the round wrote without synchronization. Workers claim indices from a shared cursor, so
// which thread runs which index is unspecified; callers keep determinism by giving each
// index its own state (a fabric shard's Simulation and outbox, a campaign cell's result
// slot). The pool only decides wall-clock speed.
//
// A fabric run executes tens of thousands of rounds (duration / link latency), so workers
// persist across rounds and park on a condition variable between them; spawning threads
// per round would dominate the runtime.

#ifndef SRC_SIM_WORKER_POOL_H_
#define SRC_SIM_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ctms {

class WorkerPool {
 public:
  // threads <= 1 creates no workers; RunRound then executes inline on the caller.
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i) for every i in [0, n), spread across the workers (or inline), and returns
  // after the last one completes. `fn` must be safe to call concurrently for distinct i.
  void RunRound(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  size_t remaining_ = 0;  // workers yet to check in for the current generation

  std::vector<std::thread> workers_;
};

}  // namespace ctms

#endif  // SRC_SIM_WORKER_POOL_H_
