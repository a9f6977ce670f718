// CampaignSnapshot: the immutable per-campaign state the wait-free read
// path serves from.
//
// Each live campaign publishes exactly one snapshot -- pinned artifact,
// controller, admission limits -- behind an atomic pointer in the shard
// map. Lookups follow that pointer under an rcu::ReadGuard and answer
// without ever observing a half-swapped campaign: SwapArtifact builds a
// whole new snapshot and publishes it in one pointer store.
//
// Lifetime is RCU alone: Retire/Swap hand the unlinked snapshot to the
// RCU domain, which deletes it once every in-flight Decide/DecideBatch
// pass has drained. The destructor ticks SnapshotCounters::reclaimed.
//
// Concurrency: Decide calls the controller directly on the reader's
// thread. Stateless controllers need nothing more; a controller that
// keeps state between decides (adaptive) guards that state itself.

#ifndef CROWDPRICE_SERVING_SNAPSHOT_H_
#define CROWDPRICE_SERVING_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "engine/policy_artifact.h"
#include "market/controller.h"
#include "market/types.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"

namespace crowdprice::serving {

/// Map-wide snapshot lifecycle counters (shared_ptr-held by the map and
/// every snapshot, so late reclamations after map teardown still land).
/// Invariant at any quiescent moment: published == reclaimed + live
/// campaigns.
struct SnapshotCounters {
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> reclaimed{0};
};

class CampaignSnapshot {
 public:
  /// `artifact` may be null (AdmitController campaigns); `controller` must
  /// not be. Publication counts immediately.
  CampaignSnapshot(std::shared_ptr<const engine::PolicyArtifact> artifact,
                   std::unique_ptr<market::PricingController> controller,
                   const CampaignLimits& limits,
                   std::shared_ptr<SnapshotCounters> counters)
      : artifact_(std::move(artifact)),
        controller_(std::move(controller)),
        limits_(limits),
        counters_(std::move(counters)) {
    if (counters_ != nullptr) {
      counters_->published.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ~CampaignSnapshot() {
    if (counters_ != nullptr) {
      counters_->reclaimed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  CampaignSnapshot(const CampaignSnapshot&) = delete;
  CampaignSnapshot& operator=(const CampaignSnapshot&) = delete;

  /// Answers `request` (already rebased onto the campaign clock) on the
  /// calling thread.
  Result<market::OfferSheet> Decide(
      const market::DecisionRequest& request) const {
    return controller_->Decide(request);
  }

  const CampaignLimits& limits() const { return limits_; }

  /// The pinned artifact; null for controller-backed campaigns (which is
  /// what makes them non-exportable -- see
  /// CampaignShardMap::ExportCampaign).
  const std::shared_ptr<const engine::PolicyArtifact>& artifact() const {
    return artifact_;
  }

 private:
  std::shared_ptr<const engine::PolicyArtifact> artifact_;
  std::unique_ptr<market::PricingController> controller_;
  CampaignLimits limits_;
  std::shared_ptr<SnapshotCounters> counters_;
};

}  // namespace crowdprice::serving

#endif  // CROWDPRICE_SERVING_SNAPSHOT_H_
