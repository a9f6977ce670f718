// ResolveLane: the serving layer's asynchronous re-solve path.
//
// Adaptive fleets re-price campaigns mid-flight. Before the solve farm,
// the only way to refresh a live campaign's policy was to solve inline and
// Apply a swap -- a re-solve storm stalled whatever thread it ran on. The
// lane decouples the two halves: EnqueueResolve hands the solve to a
// ThreadPool (by default ThreadPool::Background(), whose workers run at
// idle priority), where it runs as a one-spec engine::SolveWave -- so a
// deadline re-solve gets the farm's settings: one thread, pmf blocks
// shared through the process-wide PmfShareCache. The finished artifact
// hot-swaps in via ControlOp::SwapArtifactShared -- which publishes a
// fresh RCU snapshot, so DecideBatch never blocks on a re-solve; lookups
// answer from the old policy until the instant the new one is published.
//
// Per-campaign coalescing: while a campaign's re-solve is queued or
// running, further enqueues for it are dropped (counted in
// Stats::coalesced) -- a storm of rescale triggers costs one solve, and a
// trigger observed after the swap lands starts the next one.
//
// Retirement races are benign: a campaign retired while its solve runs
// just loses the swap (NotFound, counted as swap_failures, never an
// error). The lane must outlive its queued jobs; the destructor drains.

#ifndef CROWDPRICE_SERVING_RESOLVE_LANE_H_
#define CROWDPRICE_SERVING_RESOLVE_LANE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "engine/policy_spec.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace crowdprice::serving {

class ResolveLane {
 public:
  /// Monotone counters. enqueued == solved + solve_failures once drained;
  /// solved == swapped + swap_failures.
  struct Stats {
    int64_t enqueued = 0;   ///< Jobs accepted onto the farm.
    int64_t coalesced = 0;  ///< Enqueues dropped onto an in-flight job.
    int64_t solved = 0;     ///< Solves that produced an artifact.
    int64_t solve_failures = 0;
    int64_t swapped = 0;  ///< Artifacts published via SwapArtifactShared.
    int64_t swap_failures = 0;  ///< Swap lost the race (campaign retired).
  };

  /// `map` is not owned and must outlive the lane. Null `pool` uses
  /// ThreadPool::Background().
  explicit ResolveLane(CampaignShardMap* map, ThreadPool* pool = nullptr);
  /// Drains before destruction (queued jobs reference the lane).
  ~ResolveLane();

  ResolveLane(const ResolveLane&) = delete;
  ResolveLane& operator=(const ResolveLane&) = delete;

  /// Queues "solve `spec`, then swap the artifact into campaign `id`".
  /// Returns immediately; OK means queued (or coalesced onto an in-flight
  /// re-solve of the same campaign). Non-owned pointers inside the spec
  /// (acceptance functions) must stay valid until the solve completes.
  Status EnqueueResolve(CampaignId id, engine::PolicySpec spec);

  /// The adaptive-fleet trigger: re-solve campaign `id`'s deadline policy
  /// with its arrival belief scaled by `factor` (> 0, finite -- the
  /// shrinkage correction of pricing/adaptive.h computed fleet-side). Fails
  /// NotFound for unknown campaigns and FailedPrecondition for non-deadline
  /// policies.
  Status EnqueueRescale(CampaignId id, double factor);

  /// Blocks until every queued job has finished, helping the farm drain
  /// on the calling thread.
  void Drain();

  Stats stats() const;

 private:
  void RunResolve(CampaignId id, const engine::PolicySpec& spec);

  CampaignShardMap* const map_;
  ThreadPool* const pool_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::unordered_set<CampaignId> pending_;  ///< campaigns with a job in flight
  int64_t in_flight_ = 0;
  Stats stats_;
};

}  // namespace crowdprice::serving

#endif  // CROWDPRICE_SERVING_RESOLVE_LANE_H_
