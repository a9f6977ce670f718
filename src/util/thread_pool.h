// ThreadPool: the process's one worker-pool type.
//
// Each worker owns a job deque: Submit pushes round-robin, and a worker
// drains its own deque front first and steals from the back of the others.
// ParallelFor is built on Submit (SolveWave is one region over its specs):
// the caller queues helper jobs and runs indices itself, and then waits
// only for the helpers that already entered its region -- a helper that
// starts later finds the region closed and returns. So regions from
// different callers run side by side, and a region may nest inside another
// on the same pool (a shard pass that re-plans an adaptive campaign runs
// the DP's layer scans on the pool that runs the pass).
//
// One process-wide instance, Shared(), runs the DP layer scans, the
// serving map's shard passes and, by default, SolveWave. A pool built with
// `background` runs its workers at idle priority (SCHED_IDLE on Linux, per
// thread and unprivileged; no-op elsewhere), so its jobs yield the CPU to
// every normal-priority thread.
//
// Jobs must not throw and must not wait for another queued job, which may
// never start while every worker waits.

#ifndef CROWDPRICE_UTIL_THREAD_POOL_H_
#define CROWDPRICE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdprice {

class ThreadPool {
 public:
  /// Starts num_threads workers; num_threads <= 0 starts DefaultThreads().
  /// With `background`, the workers drop to idle scheduling priority.
  explicit ThreadPool(int num_threads, bool background = false)
      : ThreadPool(Workers{num_threads > 0 ? num_threads : DefaultThreads()},
                   background) {}
  /// Runs every queued job, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a job. Any thread may submit, a running job included.
  void Submit(std::function<void()> job);

  /// Runs fn(i) for every i in [0, count), load-balanced over the calling
  /// thread and up to min(size(), max_parallelism - 1) workers
  /// (max_parallelism <= 0: no cap beyond the pool), and returns when
  /// every call has returned. fn must not throw. Any thread may call it,
  /// concurrently with other callers, and fn may call ParallelFor on the
  /// same pool.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn,
                   int max_parallelism = 0);

  /// Jobs submitted and completed so far (diagnostics; ParallelFor's
  /// helpers count too). A job counts as completed after it returns, so
  /// completed() can trail a completion signal the job itself sends.
  int64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// hardware_concurrency, with a floor of 1.
  static int DefaultThreads();

  /// Process-wide normal-priority pool with DefaultThreads() - 1 workers
  /// (the caller of a region is the last thread; a one-core host gets no
  /// workers and runs regions inline): DP layer scans, shard passes and
  /// SolveWave's default. Started on first use, never destroyed.
  static ThreadPool& Shared();

 private:
  struct Workers {
    int count;  ///< exact; Shared() may start none
  };
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> jobs;
  };
  struct Region;

  ThreadPool(Workers workers, bool background);

  void WorkerLoop(int index, bool background);
  bool PopJob(int home, std::function<void()>* job);

  std::vector<std::unique_ptr<Queue>> queues_;  ///< one per worker (>= 1)
  std::atomic<uint64_t> next_queue_{0};         ///< round-robin submit cursor
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  int64_t queued_ = 0;  ///< jobs not yet popped (under sleep_mu_)
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace crowdprice

#endif  // CROWDPRICE_UTIL_THREAD_POOL_H_
