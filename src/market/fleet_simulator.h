// FleetSimulator: thousands of concurrent campaigns on one shared clock.
//
// RunSimulation plays one campaign start-to-finish; real marketplaces run
// many batches at once against the same worker arrival process -- and the
// marketplace is an open system: new batches arrive while others are
// mid-flight, live batches get re-priced (hot artifact swaps) or pulled.
// The fleet simulator admits every campaign into a
// serving::CampaignShardMap (so the serving layer's lifecycle -- admit,
// tick, swap, retire on completion, deadline or event -- is exercised
// under load) and drives all of them with one event loop: global time
// advances one arrival-rate bucket at a time, and at each slice every
// shard advances its campaigns concurrently on the serving pool.
//
// Streaming admission: an ArrivalSchedule lists admission events (campaign
// spec + admit time + optional mid-life SwapArtifact / retire events).
// RunStreaming consumes it: admit times are quantized up to the next
// arrival-bucket edge, and each campaign is admitted into the live shard
// map on the event loop's admission lane -- which runs concurrently with
// the shard passes still ticking earlier campaigns, taking only the
// target shard's mutex (no global barrier). Every session decides through
// CampaignShardMap::Decide by campaign id, the same read path a server
// serves from. Mid-life events apply at bucket-edge barriers: SwapArtifact
// re-pins the campaign's policy, and the session's next decide reads it
// (no rebind); retire pulls the campaign and finalizes its truncated
// outcome.
//
// Determinism: each campaign owns its Rng and its CampaignSession, and a
// session only ever plays whole arrival buckets (see market/session.h), so
// slicing the fleet's clock never changes any campaign's draw sequence.
// Per-campaign outcomes are therefore bit-identical to running
// market::RunSimulation serially with the same controller and Rng started
// at the campaign's admit time -- whatever the shard count and whatever
// the admission interleaving. That property is the correctness harness for
// this whole layer (tests/fleet_simulator_test.cc asserts it over 1000+
// campaigns admitted at random bucket edges).

#ifndef CROWDPRICE_MARKET_FLEET_SIMULATOR_H_
#define CROWDPRICE_MARKET_FLEET_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arrival/rate_function.h"
#include "choice/acceptance.h"
#include "engine/policy_artifact.h"
#include "market/controller.h"
#include "market/simulator.h"
#include "market/types.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"
#include "util/rng.h"

namespace crowdprice::market {

/// Outcome of one fleet campaign. Outcomes are returned in schedule order,
/// but a streaming fleet completes campaigns in marketplace order -- key
/// results by `campaign_id` (stable from admission to retirement), not by
/// position.
struct FleetOutcome {
  /// Position of this campaign in the consumed ArrivalSchedule (equals the
  /// admission order for Run()).
  size_t schedule_index = 0;
  serving::CampaignId campaign_id = 0;
  /// Wall-clock admission time after bucket-edge quantization (0 for
  /// campaigns admitted before the run).
  double admit_hours = 0.0;
  /// kRetiredCompleted when the batch finished, kRetiredDeadline when the
  /// deadline passed with tasks unassigned, kRetiredExplicit when a
  /// scheduled retire event pulled the campaign mid-run.
  serving::CampaignState final_state = serving::CampaignState::kLive;
  SimulationResult result;
};

/// Admission events for a streaming fleet run: which campaigns enter the
/// marketplace, when, and what happens to them mid-life. Build one, attach
/// optional SwapArtifactAt / RetireAt events to its entries, and hand it
/// to FleetSimulator::RunStreaming.
class ArrivalSchedule {
 public:
  /// Schedules a campaign playing a shared immutable artifact, admitted at
  /// wall-clock `admit_hours` (quantized up to the next arrival-bucket
  /// edge by the run). The acceptance function is borrowed and must
  /// outlive the run; the Rng is the campaign's own stream. Returns the
  /// entry's schedule index.
  Result<size_t> AdmitShared(
      double admit_hours,
      std::shared_ptr<const engine::PolicyArtifact> artifact,
      const SimulatorConfig& config,
      const choice::AcceptanceFunction& acceptance, Rng rng);

  /// Schedules a campaign played by an explicit controller (baselines).
  Result<size_t> AdmitController(
      double admit_hours, std::unique_ptr<PricingController> controller,
      const SimulatorConfig& config,
      const choice::AcceptanceFunction& acceptance, Rng rng);

  /// Schedules a hot artifact swap on entry `index` at wall-clock
  /// `at_hours` (>= the entry's admit time; quantized to a bucket edge).
  /// The swap re-pins the live campaign's policy through
  /// CampaignShardMap::SwapArtifactShared, and the session's decides from
  /// that edge on read the new policy; a campaign that already completed
  /// skips the event.
  Status SwapArtifactAt(size_t index, double at_hours,
                        std::shared_ptr<const engine::PolicyArtifact> artifact);

  /// Schedules entry `index` to be pulled from the marketplace at
  /// wall-clock `at_hours` (>= its admit time; quantized to a bucket
  /// edge): the campaign retires explicitly and its outcome reflects the
  /// truncated run. A campaign that already completed skips the event.
  Status RetireAt(size_t index, double at_hours);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  friend class FleetSimulator;

  struct ControlEvent {
    bool retire = false;  ///< false: swap to `artifact`.
    double at_hours = 0.0;
    std::shared_ptr<const engine::PolicyArtifact> artifact;
  };

  struct Entry {
    double admit_hours = 0.0;
    SimulatorConfig config;
    /// Exactly one of artifact / controller is set.
    std::shared_ptr<const engine::PolicyArtifact> artifact;
    std::unique_ptr<PricingController> controller;
    const choice::AcceptanceFunction* acceptance = nullptr;
    Rng rng{0};
    std::vector<ControlEvent> events;
  };

  std::vector<Entry> entries_;
};

/// A uniform random arrival-bucket edge in [0, window_hours]: the shared
/// helper harnesses use to draw streaming admission times (0 when the
/// window is narrower than one bucket). Deterministic given the Rng.
double RandomBucketEdge(Rng& rng, double window_hours, double bucket_hours);

/// Telemetry from the last RunStreaming call: admission-lane churn and the
/// wall latency of admitting into the live map while traffic is in flight.
struct StreamingStats {
  uint64_t admitted = 0;
  uint64_t swapped = 0;           ///< Mid-life artifact swaps applied.
  uint64_t retired_by_event = 0;  ///< Mid-life retire events applied.
  uint64_t slices = 0;            ///< Event-loop bucket edges processed.
  double admit_mean_ms = 0.0;     ///< Mean admit-under-traffic latency.
  double admit_max_ms = 0.0;      ///< Worst admit-under-traffic latency.
};

class FleetSimulator {
 public:
  /// The fleet serves its campaigns from a CampaignShardMap with
  /// `num_shards` shards (see CampaignShardMap::Create).
  static Result<FleetSimulator> Create(int num_shards);

  FleetSimulator(FleetSimulator&&) = default;
  FleetSimulator& operator=(FleetSimulator&&) = default;

  /// Admits a campaign played by a solved policy; one immutable artifact
  /// may back many campaigns (one copy of the solved tables however large
  /// the fleet). The acceptance function is borrowed and must outlive
  /// Run(); the Rng is the campaign's own stream (fork one per campaign
  /// for independence).
  Result<serving::CampaignId> AdmitShared(
      std::shared_ptr<const engine::PolicyArtifact> artifact,
      const SimulatorConfig& config,
      const choice::AcceptanceFunction& acceptance, Rng rng);

  /// Admits a campaign played by an explicit controller (baselines).
  Result<serving::CampaignId> AdmitController(
      std::unique_ptr<PricingController> controller,
      const SimulatorConfig& config,
      const choice::AcceptanceFunction& acceptance, Rng rng);

  /// Plays every admitted campaign to completion or deadline against the
  /// shared arrival process and returns outcomes in admission order. All
  /// campaigns retire from the shard map as they finish; the pending set
  /// clears, so the simulator can be reused for another wave.
  ///
  /// While Run is in flight each campaign decides through the map's read
  /// path on its shard's thread, so a concurrent Decide/DecideBatch on a
  /// running campaign is safe (a stateful controller guards itself; the
  /// extra decide does shift that campaign's tracking state). A concurrent
  /// Retire, or a Tick that retires a running campaign, makes the run fail
  /// with NotFound at that campaign's next decide or tick.
  Result<std::vector<FleetOutcome>> Run(
      const arrival::PiecewiseConstantRate& rate);

  /// Plays an open marketplace: consumes `schedule`, admitting each
  /// campaign into the live shard map at its (bucket-edge-quantized) admit
  /// time while earlier campaigns are still being ticked on the serving
  /// pool, applying mid-life swap/retire events at bucket-edge barriers,
  /// and returns outcomes in schedule order once every campaign has
  /// completed, expired or been retired. Campaigns admitted before the
  /// call (the Admit* methods) join the run at wall-clock 0, ahead of the
  /// schedule's entries in outcome order. The Run() concurrency contract
  /// applies.
  Result<std::vector<FleetOutcome>> RunStreaming(
      const arrival::PiecewiseConstantRate& rate, ArrivalSchedule schedule);

  /// Telemetry from the last Run/RunStreaming call.
  const StreamingStats& streaming_stats() const { return streaming_stats_; }

  /// The serving layer under the fleet (shard stats, live campaigns).
  const serving::CampaignShardMap& shard_map() const { return map_; }
  /// Mutable access for serving-plane calls (DecideBatch, extra admits)
  /// between fleet waves -- see the Run() concurrency contract.
  serving::CampaignShardMap& mutable_shard_map() { return map_; }

 private:
  struct Pending {
    serving::CampaignId id = 0;
    SimulatorConfig config;
    const choice::AcceptanceFunction* acceptance = nullptr;
    Rng rng{0};
  };

  explicit FleetSimulator(serving::CampaignShardMap map);

  serving::CampaignShardMap map_;
  std::vector<Pending> pending_;
  StreamingStats streaming_stats_;
};

}  // namespace crowdprice::market

#endif  // CROWDPRICE_MARKET_FLEET_SIMULATOR_H_
