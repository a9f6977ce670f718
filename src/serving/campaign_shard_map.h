// CampaignShardMap: the multi-campaign serving layer.
//
// A live marketplace runs many concurrent task batches; each one is a
// solved policy (engine::PolicyArtifact) plus the controller playing it.
// The shard map owns those campaigns, partitions them into shards by
// campaign id, and serves lookups in batches: each lookup is a
// market::DecisionRequest answered by the campaign policy's OfferSheet
// (one offer per task type). DecideBatch partitions a request vector by
// shard and answers the shards' slices in parallel on ThreadPool::Shared(),
// so one call resolves sheets for hundreds of campaigns with no
// per-request locking and no cross-shard contention.
//
// Lifecycle: every mutation is a ControlOp applied through Apply, the
// map's single serializable control surface. Admit ops assign an id and
// build the controller from the artifact (the artifact is heap-pinned so
// controllers may point into it); tick ops report campaign progress and
// retire the campaign when the batch completes or its deadline passes;
// retire ops remove it explicitly; swap ops atomically replace the policy
// a live campaign plays without interrupting serving. The wire protocol
// (src/net) carries ControlOps directly, and multi-node placement
// (src/router) migrates campaigns with ExportCampaign + an explicit-id
// admit, so a campaign keeps its id as it moves between nodes. Per-shard
// counters (ShardStats) expose serving load and lifecycle churn.
//
// Thread safety: every public method is safe to call concurrently. The
// read path is wait-free: each live campaign publishes an immutable
// snapshot (pinned artifact + controller + limits, serving/snapshot.h)
// behind an atomic pointer, and each shard publishes its id -> campaign
// index the same way. Decide/DecideBatch/Contains/stats never take a
// mutex -- they enter an RCU read guard (serving/rcu.h), follow the
// published pointers, and answer. Admit/Retire/SwapArtifact (and the
// retiring arm of Tick) are the only writers: they serialize on a
// per-shard writer mutex, publish replacement structures, and hand the
// old ones to the RCU domain, which frees them only after every in-flight
// read pass drains (grace-period reclamation; see SnapshotStats). Every
// controller answers on the reader's thread. One that keeps state between
// decides (adaptive) guards that state itself: decides on that campaign
// wait for each other, re-plans included, and never for another campaign.

#ifndef CROWDPRICE_SERVING_CAMPAIGN_SHARD_MAP_H_
#define CROWDPRICE_SERVING_CAMPAIGN_SHARD_MAP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/policy_artifact.h"
#include "market/controller.h"
#include "market/types.h"
#include "util/result.h"

namespace crowdprice::serving {

using CampaignId = uint64_t;

/// Lifecycle bounds fixed at admission.
struct CampaignLimits {
  /// Tasks in the batch; the campaign retires once a Tick reports 0 left.
  int64_t total_tasks = 0;
  /// Campaign duration: the horizon handed to
  /// PolicyArtifact::MakeController, measured on the campaign's own clock.
  /// The campaign retires once a Tick reaches the wall-clock deadline
  /// admit_hours + deadline_hours.
  double deadline_hours = 0.0;
  /// Marketplace wall-clock time the campaign was admitted. Campaigns
  /// admitted at time 0 (the pre-streaming convention) keep Tick's
  /// wall-clock and campaign-clock deadlines equal.
  double admit_hours = 0.0;

  Status Validate() const;
};

enum class CampaignState {
  kLive = 0,
  kRetiredCompleted = 1,  ///< Batch fully assigned.
  kRetiredDeadline = 2,   ///< Deadline passed with tasks left.
  kRetiredExplicit = 3,   ///< Removed by Retire (operator/event retirement).
};

/// One campaign-lifecycle mutation: the single control surface every
/// mutation of the map goes through. ArrivalSchedule events, the wire
/// admission protocol (net/wire.h), and the router's migration path all
/// lower to a ControlOp handed to CampaignShardMap::Apply. Ops built from
/// the named constructors are always well-formed; Apply validates anyway
/// so deserialized ops can't smuggle bad state in.
struct ControlOp {
  enum class Kind {
    kAdmit = 0,         ///< New campaign from `artifact` or `controller`.
    kSwapArtifact = 1,  ///< Replace a live campaign's policy with `artifact`.
    kRetire = 2,        ///< Remove a live campaign unconditionally.
    kTick = 3,          ///< Progress report; may retire (completed/deadline).
  };

  Kind kind = Kind::kRetire;
  /// Target campaign. For admits, 0 means "assign a fresh id"; a nonzero
  /// id places the campaign under exactly that id (migration re-admits,
  /// which must preserve identity across nodes) and fails
  /// FailedPrecondition when the id is already live.
  CampaignId id = 0;
  /// Admission bounds. Admits only.
  CampaignLimits limits;
  /// The policy to admit or swap in. Admits carry exactly one of
  /// `artifact` / `controller`; swaps always carry `artifact`.
  std::shared_ptr<const engine::PolicyArtifact> artifact;
  /// Process-local admits only (baselines and tests): an explicit
  /// controller instead of a solved artifact. Not wire-serializable --
  /// net::SerializeControlOp rejects ops that carry one.
  std::unique_ptr<market::PricingController> controller;
  /// Tick only: marketplace wall clock and tasks left in the batch.
  double now_hours = 0.0;
  int64_t remaining_tasks = 0;

  /// One named constructor per lifecycle mutation, plus Tick (whose
  /// retiring arm is a mutation like any other).
  static ControlOp AdmitShared(
      std::shared_ptr<const engine::PolicyArtifact> artifact,
      const CampaignLimits& limits);
  /// Admission under a caller-chosen id: the migration re-admit. The wire
  /// carries it as `control admit-at` (net/wire.h).
  static ControlOp AdmitSharedWithId(
      CampaignId id, std::shared_ptr<const engine::PolicyArtifact> artifact,
      const CampaignLimits& limits);
  static ControlOp AdmitController(
      std::unique_ptr<market::PricingController> controller,
      const CampaignLimits& limits);
  static ControlOp SwapArtifactShared(
      CampaignId id, std::shared_ptr<const engine::PolicyArtifact> artifact);
  static ControlOp Retire(CampaignId id);
  static ControlOp Tick(CampaignId id, double now_hours,
                        int64_t remaining_tasks);
};

/// What a ControlOp did. `id` is the fresh id for admits, the target id
/// otherwise. `state` is kLive after admits, swaps, and ticks that left
/// the campaign live; the retirement state for retires and retiring
/// ticks.
struct ControlOutcome {
  CampaignId id = 0;
  CampaignState state = CampaignState::kLive;
};

/// Everything a campaign needs to move to another node: its identity, its
/// admission limits, and the (immutable, shared) solved policy it plays.
/// The migration protocol is ExportCampaign on the old owner ->
/// ControlOp::AdmitSharedWithId on the new owner -> ControlOp::Retire on
/// the old owner (src/router/router.h drives it over the wire).
struct CampaignExport {
  CampaignId id = 0;
  CampaignLimits limits;
  std::shared_ptr<const engine::PolicyArtifact> artifact;
};

/// One lookup in a DecideBatch call: which campaign, and the
/// market::DecisionRequest its policy should answer.
struct DecideRequest {
  CampaignId campaign_id = 0;
  market::DecisionRequest request;

  /// Single-type convenience mirroring the pre-sheet surface.
  static DecideRequest Single(CampaignId campaign_id, double now_hours,
                              int64_t remaining_tasks) {
    DecideRequest out;
    out.campaign_id = campaign_id;
    out.request = market::DecisionRequest::Single(now_hours, remaining_tasks);
    return out;
  }
};

/// Outcome of one DecideRequest. `status` is NotFound for unknown or
/// already-retired campaigns; `sheet` is valid iff status.ok().
struct DecideResponse {
  CampaignId campaign_id = 0;
  Status status;
  market::OfferSheet sheet;
};

/// Monotone per-shard counters plus the current live-campaign gauge.
/// Churn invariant (any quiescent moment): admitted == retired_completed +
/// retired_deadline + retired_explicit + live, and live <= peak_live <=
/// admitted.
///
/// Consistency: the counters live as relaxed atomics (each hot counter on
/// its own cache line) and shard_stats()/TotalStats() read them without
/// any lock, so a stats snapshot taken during traffic is not a single
/// instant -- each field is individually exact, but fields may be drawn
/// microseconds apart and transiently violate the churn invariant (e.g. a
/// concurrent admission may show in `admitted` but not yet in `live`).
/// At any quiescent moment every invariant holds exactly, as before.
struct ShardStats {
  uint64_t admitted = 0;
  uint64_t decides = 0;         ///< Sheets served (single + batched).
  uint64_t batch_requests = 0;  ///< Decides that arrived via DecideBatch.
  uint64_t swapped = 0;         ///< Hot artifact swaps on live campaigns.
  uint64_t retired_completed = 0;
  uint64_t retired_deadline = 0;
  uint64_t retired_explicit = 0;
  int64_t live = 0;
  int64_t peak_live = 0;  ///< High-water mark of `live` (admission churn).
};

/// Map-wide snapshot lifecycle counters (see snapshot_stats). After
/// QuiesceReclamation: published == reclaimed + live_campaigns.
struct SnapshotStats {
  uint64_t published = 0;   ///< Snapshots ever published (admits + swaps).
  uint64_t reclaimed = 0;   ///< Snapshots fully freed (grace period over).
  uint64_t live_campaigns = 0;  ///< Campaigns currently serving.
};

class CampaignShardMap {
 public:
  /// num_shards in [1, 4096]. The map starts no threads: batch and shard
  /// passes run on ThreadPool::Shared(), one shard per task, so at most
  /// min(num_shards, hardware_concurrency) threads serve one pass.
  static Result<CampaignShardMap> Create(int num_shards);

  ~CampaignShardMap();
  CampaignShardMap(CampaignShardMap&&) noexcept;
  CampaignShardMap& operator=(CampaignShardMap&&) noexcept;
  CampaignShardMap(const CampaignShardMap&) = delete;
  CampaignShardMap& operator=(const CampaignShardMap&) = delete;

  // --- Lifecycle ---------------------------------------------------------

  /// The one control-plane entry point: applies a lifecycle mutation.
  /// Admits build the campaign's controller (from the artifact via
  /// MakeController(limits.deadline_hours), or taking the op's explicit
  /// controller) and start serving under a fresh id (or the op's explicit
  /// id; see ControlOp::id); swaps atomically republish a live campaign's
  /// policy -- lookups before the swap answer from the old policy, after
  /// from the new one, never a mix, with id/limits/stats carrying over;
  /// retires remove the campaign; ticks report progress and retire on
  /// completion or deadline. Every ArrivalSchedule event and every wire
  /// control frame funnels through here, so lifecycle semantics live in
  /// exactly one place. Mutating arms serialize on the target shard's
  /// writer mutex; serving reads never block on any of it.
  Result<ControlOutcome> Apply(ControlOp op);

  /// Copies out everything campaign `id` needs to be re-admitted on
  /// another node: its id, limits, and a share of the pinned artifact
  /// (cheap -- no table copy). Fails NotFound for unknown/retired
  /// campaigns and FailedPrecondition for controller-backed campaigns,
  /// whose state is process-local by design. Wait-free like the rest of
  /// the read path.
  Result<CampaignExport> ExportCampaign(CampaignId id) const;

  // --- Serving -----------------------------------------------------------

  /// One lookup: the sheet the campaign's policy posts for `request`.
  /// Wait-free against every other operation, including swaps and
  /// retirements of the same campaign; only decides on the same stateful
  /// campaign wait for each other. (The single-offer shim finished its
  /// deprecation cycle; single-type callers pass DecisionRequest::Single
  /// and read sheet.offers[0].)
  ///
  /// Serving-plane requests carry the marketplace wall clock in
  /// `now_hours`; the map derives the campaign clock itself
  /// (`campaign_hours = max(0, now_hours - limits.admit_hours)`,
  /// overriding whatever the request carried) so streaming campaigns
  /// admitted mid-run are priced on their own clock. Campaigns admitted
  /// at time 0 keep both clocks equal, as before.
  Result<market::OfferSheet> Decide(CampaignId id,
                                    const market::DecisionRequest& request);

  /// Batched lookups: requests are partitioned by shard and each shard's
  /// slice is answered by one pool thread in one read-guarded pass --
  /// no locks taken, so concurrent Admit/Swap/Retire never stall the
  /// batch. Responses align with `requests` index-for-index; per-request
  /// failures (unknown campaign, controller error) land in the response
  /// status without failing the batch.
  std::vector<DecideResponse> DecideBatch(
      const std::vector<DecideRequest>& requests);

  // --- Introspection ------------------------------------------------------

  int num_shards() const;
  /// The shard serving `id` (ids round-robin across shards).
  int ShardOf(CampaignId id) const;
  bool Contains(CampaignId id) const;
  size_t live_campaigns() const;
  /// One shard's counters, read lock-free (see the ShardStats consistency
  /// note). shard in [0, num_shards).
  ShardStats shard_stats(int shard) const;
  /// Sum of all shard counter reads (same consistency caveat).
  ShardStats TotalStats() const;

  /// Snapshot lifecycle counters (published / reclaimed / live). The
  /// reconciliation invariant published == reclaimed + live_campaigns
  /// holds after QuiesceReclamation; between quiesce points `reclaimed`
  /// lags by the snapshots still inside a grace period.
  SnapshotStats snapshot_stats() const;

  /// Waits for every in-flight read pass and frees every retired
  /// structure (test/teardown hook; serving never needs it).
  void QuiesceReclamation();

  // --- Fleet-simulator hook ----------------------------------------------

  /// Runs fn(shard) for every shard concurrently on ThreadPool::Shared(),
  /// plus one `extra` task run concurrently with the shard passes (the
  /// streaming fleet's admission lane: Admit/Retire/SwapArtifact only
  /// take the target shard's writer mutex, and serving reads never take
  /// even that, so campaigns enter the map while every shard keeps being
  /// ticked, with no global barrier). fn and `extra` run with no map lock
  /// or read guard held, so they may call any public method.
  void ParallelOverShardsWith(const std::function<void(int)>& fn,
                              const std::function<void()>& extra);

 private:
  struct Shard;
  struct Impl;

  explicit CampaignShardMap(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdprice::serving

#endif  // CROWDPRICE_SERVING_CAMPAIGN_SHARD_MAP_H_
