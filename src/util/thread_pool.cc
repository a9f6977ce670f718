#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace crowdprice {

namespace {

void DropToBackgroundPriority() {
#if defined(__linux__)
  // SCHED_IDLE is per-thread, unprivileged, and exactly the contract a
  // background pool wants: run only when nothing else is runnable.
  sched_param param{};
  sched_setscheduler(0, SCHED_IDLE, &param);
#endif
}

}  // namespace

/// One ParallelFor call. Helper jobs hold it by shared_ptr because they
/// can start after the call returned; `fn` lives on the caller's stack,
/// so only a helper that entered before `closed` may call it.
struct ThreadPool::Region {
  Region(const std::function<void(int64_t)>* fn, int64_t count)
      : fn(fn), count(count) {}

  void RunIndices() {
    int64_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
      (*fn)(i);
    }
  }

  /// A helper job's body.
  void Help() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return;
      ++inside;
    }
    RunIndices();
    std::lock_guard<std::mutex> lock(mu);
    if (--inside == 0 && closed) done_cv.notify_one();
  }

  /// The caller's side: once its own RunIndices returns every index is
  /// claimed; close the region and wait out the helpers inside it.
  void Close() {
    std::unique_lock<std::mutex> lock(mu);
    closed = true;
    done_cv.wait(lock, [this] { return inside == 0; });
  }

  const std::function<void(int64_t)>* const fn;
  const int64_t count;
  std::atomic<int64_t> next{0};

  std::mutex mu;
  std::condition_variable done_cv;
  int inside = 0;       ///< helpers running indices (under mu)
  bool closed = false;  ///< the caller stopped waiting for helpers (under mu)
};

ThreadPool::ThreadPool(Workers workers, bool background) {
  // Submit needs a queue even when Shared() starts no workers.
  const int queues = std::max(1, workers.count);
  for (int i = 0; i < queues; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(static_cast<size_t>(workers.count));
  for (int i = 0; i < workers.count; ++i) {
    workers_.emplace_back(
        [this, i, background] { WorkerLoop(i, background); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> job) {
  const size_t target = static_cast<size_t>(
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size());
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->jobs.push_back(std::move(job));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++queued_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::PopJob(int home, std::function<void()>* job) {
  const size_t count = queues_.size();
  for (size_t i = 0; i < count; ++i) {
    Queue& q = *queues_[(static_cast<size_t>(home) + i) % count];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.jobs.empty()) continue;
    if (i == 0) {
      // Owner drains its own queue in FIFO order...
      *job = std::move(q.jobs.front());
      q.jobs.pop_front();
    } else {
      // ...thieves steal from the opposite end.
      *job = std::move(q.jobs.back());
      q.jobs.pop_back();
    }
    std::lock_guard<std::mutex> sleep_lock(sleep_mu_);
    --queued_;
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(int index, bool background) {
  if (background) DropToBackgroundPriority();
  std::function<void()> job;
  for (;;) {
    if (PopJob(index, &job)) {
      job();
      job = nullptr;
      completed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    // Queued jobs are always drained before shutdown completes.
    if (shutdown_ && queued_ == 0) return;
    work_cv_.wait(lock, [this] { return queued_ > 0 || shutdown_; });
  }
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn,
                             int max_parallelism) {
  if (count <= 0) return;
  int64_t helpers = std::min<int64_t>(size(), count - 1);
  if (max_parallelism > 0) {
    helpers = std::min<int64_t>(helpers, max_parallelism - 1);
  }
  if (helpers == 0) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto region = std::make_shared<Region>(&fn, count);
  for (int64_t h = 0; h < helpers; ++h) {
    Submit([region] { region->Help(); });
  }
  region->RunIndices();
  region->Close();
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool =
      new ThreadPool(Workers{DefaultThreads() - 1}, /*background=*/false);
  return *pool;
}

}  // namespace crowdprice
