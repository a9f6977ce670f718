#include "serving/campaign_shard_map.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "serving/rcu.h"
#include "serving/snapshot.h"
#include "util/macros.h"
#include "util/stringf.h"
#include "util/thread_pool.h"

namespace crowdprice::serving {

namespace {

/// The stable per-campaign anchor in a shard's index. The handle outlives
/// any individual snapshot (SwapArtifact just restores the pointer), and
/// is itself RCU-retired when the campaign leaves the map.
struct CampaignHandle {
  explicit CampaignHandle(const CampaignSnapshot* snap) : snapshot(snap) {}
  std::atomic<const CampaignSnapshot*> snapshot;
};

/// The RCU-published id -> campaign index. Writers copy-on-write it under
/// the shard writer mutex; readers walk it under a ReadGuard.
using Index = std::unordered_map<CampaignId, CampaignHandle*>;

void ReclaimIndex(void* object) { delete static_cast<Index*>(object); }

void ReclaimSnapshot(void* object) {
  delete static_cast<CampaignSnapshot*>(object);
}

/// A retired handle takes its campaign's last snapshot with it.
void ReclaimHandle(void* object) {
  auto* handle = static_cast<CampaignHandle*>(object);
  delete handle->snapshot.load(std::memory_order_acquire);
  delete handle;
}

/// Rebases a serving-plane request onto the campaign's own clock:
/// `now_hours` is the marketplace wall clock, the campaign clock is time
/// since admission (clamped at 0 against skewed callers).
market::DecisionRequest OnCampaignClock(const market::DecisionRequest& request,
                                        const CampaignLimits& limits) {
  market::DecisionRequest rebased = request;
  rebased.campaign_hours =
      std::max(0.0, request.now_hours - limits.admit_hours);
  return rebased;
}

Status NotLive(CampaignId id) {
  return Status::NotFound(StringF("campaign %llu is not live",
                                  static_cast<unsigned long long>(id)));
}

}  // namespace

Status CampaignLimits::Validate() const {
  if (total_tasks < 1) {
    return Status::InvalidArgument(
        StringF("limits.total_tasks must be >= 1; got %lld",
                static_cast<long long>(total_tasks)));
  }
  if (!(deadline_hours > 0.0) || !std::isfinite(deadline_hours)) {
    return Status::InvalidArgument(
        StringF("limits.deadline_hours must be > 0; got %g", deadline_hours));
  }
  if (!(admit_hours >= 0.0) || !std::isfinite(admit_hours)) {
    return Status::InvalidArgument(
        StringF("limits.admit_hours must be >= 0; got %g", admit_hours));
  }
  return Status::OK();
}

ControlOp ControlOp::AdmitShared(
    std::shared_ptr<const engine::PolicyArtifact> artifact,
    const CampaignLimits& limits) {
  ControlOp op;
  op.kind = Kind::kAdmit;
  op.limits = limits;
  op.artifact = std::move(artifact);
  return op;
}

ControlOp ControlOp::AdmitSharedWithId(
    CampaignId id, std::shared_ptr<const engine::PolicyArtifact> artifact,
    const CampaignLimits& limits) {
  ControlOp op = AdmitShared(std::move(artifact), limits);
  op.id = id;
  return op;
}

ControlOp ControlOp::AdmitController(
    std::unique_ptr<market::PricingController> controller,
    const CampaignLimits& limits) {
  ControlOp op;
  op.kind = Kind::kAdmit;
  op.limits = limits;
  op.controller = std::move(controller);
  return op;
}

ControlOp ControlOp::SwapArtifactShared(
    CampaignId id, std::shared_ptr<const engine::PolicyArtifact> artifact) {
  ControlOp op;
  op.kind = Kind::kSwapArtifact;
  op.id = id;
  op.artifact = std::move(artifact);
  return op;
}

ControlOp ControlOp::Retire(CampaignId id) {
  ControlOp op;
  op.kind = Kind::kRetire;
  op.id = id;
  return op;
}

ControlOp ControlOp::Tick(CampaignId id, double now_hours,
                          int64_t remaining_tasks) {
  ControlOp op;
  op.kind = Kind::kTick;
  op.id = id;
  op.now_hours = now_hours;
  op.remaining_tasks = remaining_tasks;
  return op;
}

namespace {

/// Per-shard counters as relaxed atomics, the hot ones (bumped from
/// reader threads) each on their own cache line so concurrent Decide
/// traffic on different shards -- or stats polling -- never false-shares.
/// Lifecycle counters only move under the writer mutex and share a line.
struct alignas(64) ShardCounters {
  struct alignas(64) Padded {
    std::atomic<uint64_t> value{0};
  };
  Padded decides;
  Padded batch_requests;
  alignas(64) std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> swapped{0};
  std::atomic<uint64_t> retired_completed{0};
  std::atomic<uint64_t> retired_deadline{0};
  std::atomic<uint64_t> retired_explicit{0};
  std::atomic<int64_t> live{0};
  std::atomic<int64_t> peak_live{0};
};

}  // namespace

struct CampaignShardMap::Shard {
  Shard() : index(new Index()) {}

  ~Shard() {
    // Map teardown: no readers by contract, free the live structures
    // directly (anything already retired sits in the RCU domain with
    // self-contained deleters).
    const Index* idx = index.load(std::memory_order_acquire);
    for (const auto& [id, handle] : *idx) {
      delete handle->snapshot.load(std::memory_order_acquire);
      delete handle;
    }
    delete idx;
  }

  /// Serializes Admit/Retire/SwapArtifact and Tick's retiring arm.
  std::mutex writer_mu;
  /// RCU-published; readers load seq_cst under a guard, writers replace
  /// copy-on-write under writer_mu.
  std::atomic<const Index*> index;
  ShardCounters counters;
};

struct CampaignShardMap::Impl {
  explicit Impl(int shard_count)
      : num_shards(shard_count),
        shards(static_cast<size_t>(shard_count)),
        snapshot_counters(std::make_shared<SnapshotCounters>()) {
    for (auto& shard : shards) shard = std::make_unique<Shard>();
  }

  Shard& ShardFor(CampaignId id) {
    return *shards[static_cast<size_t>(id % static_cast<uint64_t>(num_shards))];
  }

  /// Removes `id` from its shard under the writer mutex; the removed
  /// handle (and its snapshot) is freed after the grace period.
  /// Returns false when the campaign is not live.
  bool Remove(CampaignId id) {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.writer_mu);
    const Index* old_index = shard.index.load(std::memory_order_relaxed);
    auto it = old_index->find(id);
    if (it == old_index->end()) return false;
    CampaignHandle* handle = it->second;
    auto* new_index = new Index(*old_index);
    new_index->erase(id);
    shard.index.store(new_index, std::memory_order_seq_cst);
    rcu::Domain::Global().Retire(const_cast<Index*>(old_index), ReclaimIndex);
    rcu::Domain::Global().Retire(handle, ReclaimHandle);
    shard.counters.live.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Publishes a freshly built snapshot as a new campaign. Returns false
  /// -- and takes nothing -- when `id` is already live (only possible for
  /// explicit-id admits; the id-presence check and the publication are one
  /// critical section under the writer mutex, so two racing admits of the
  /// same id can never both land).
  bool Publish(CampaignId id, const CampaignSnapshot* snapshot) {
    auto* handle = new CampaignHandle(snapshot);
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.writer_mu);
    const Index* old_index = shard.index.load(std::memory_order_relaxed);
    if (old_index->count(id) > 0) {
      delete handle;
      return false;
    }
    auto* new_index = new Index(*old_index);
    new_index->emplace(id, handle);
    shard.index.store(new_index, std::memory_order_seq_cst);
    rcu::Domain::Global().Retire(const_cast<Index*>(old_index), ReclaimIndex);
    shard.counters.admitted.fetch_add(1, std::memory_order_relaxed);
    const int64_t live =
        shard.counters.live.fetch_add(1, std::memory_order_relaxed) + 1;
    int64_t peak = shard.counters.peak_live.load(std::memory_order_relaxed);
    while (live > peak && !shard.counters.peak_live.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
    return true;
  }

  int num_shards;
  std::vector<std::unique_ptr<Shard>> shards;
  std::shared_ptr<SnapshotCounters> snapshot_counters;
  std::atomic<CampaignId> next_id{1};
};

CampaignShardMap::CampaignShardMap(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

CampaignShardMap::~CampaignShardMap() {
  // Bound memory promptly: flush this map's retired structures out of the
  // shared domain (their deleters are self-contained, so strictly this is
  // hygiene, not correctness).
  if (impl_ != nullptr) rcu::Domain::Global().Drain();
}

CampaignShardMap::CampaignShardMap(CampaignShardMap&&) noexcept = default;
CampaignShardMap& CampaignShardMap::operator=(CampaignShardMap&&) noexcept =
    default;

Result<CampaignShardMap> CampaignShardMap::Create(int num_shards) {
  if (num_shards < 1 || num_shards > 4096) {
    return Status::InvalidArgument(
        StringF("num_shards must be in [1, 4096]; got %d", num_shards));
  }
  return CampaignShardMap(std::make_unique<Impl>(num_shards));
}

Result<ControlOutcome> CampaignShardMap::Apply(ControlOp op) {
  switch (op.kind) {
    case ControlOp::Kind::kAdmit: {
      CP_RETURN_IF_ERROR(op.limits.Validate());
      if ((op.artifact == nullptr) == (op.controller == nullptr)) {
        return Status::InvalidArgument(
            "admit op must carry exactly one of artifact / controller");
      }
      std::unique_ptr<market::PricingController> controller =
          std::move(op.controller);
      if (controller == nullptr) {
        // The shared_ptr pins the artifact for the snapshot's lifetime:
        // MakeController may return a controller that points into its
        // tables.
        CP_ASSIGN_OR_RETURN(
            controller, op.artifact->MakeController(op.limits.deadline_hours));
      }
      CampaignId id = op.id;
      if (id == 0) {
        id = impl_->next_id.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Explicit-id admit (migration): keep future fresh ids unique by
        // bumping the counter past the placed id.
        CampaignId expected = impl_->next_id.load(std::memory_order_relaxed);
        while (expected <= id &&
               !impl_->next_id.compare_exchange_weak(
                   expected, id + 1, std::memory_order_relaxed)) {
        }
      }
      auto* snapshot =
          new CampaignSnapshot(std::move(op.artifact), std::move(controller),
                               op.limits, impl_->snapshot_counters);
      if (!impl_->Publish(id, snapshot)) {
        delete snapshot;
        return Status::FailedPrecondition(
            StringF("campaign %llu is already live",
                    static_cast<unsigned long long>(id)));
      }
      return ControlOutcome{id, CampaignState::kLive};
    }

    case ControlOp::Kind::kSwapArtifact: {
      if (op.artifact == nullptr) {
        return Status::InvalidArgument("swap op must carry an artifact");
      }
      Shard& shard = impl_->ShardFor(op.id);
      std::lock_guard<std::mutex> lock(shard.writer_mu);
      const Index* index = shard.index.load(std::memory_order_relaxed);
      auto it = index->find(op.id);
      if (it == index->end()) return NotLive(op.id);
      CampaignHandle* handle = it->second;
      // Stable under writer_mu: only writers store the handle's snapshot.
      const CampaignSnapshot* old_snapshot =
          handle->snapshot.load(std::memory_order_relaxed);
      CP_ASSIGN_OR_RETURN(
          std::unique_ptr<market::PricingController> controller,
          op.artifact->MakeController(old_snapshot->limits().deadline_hours));
      // One pointer store publishes the whole new policy; a concurrent
      // read pass sees either the old snapshot or the new one, never a
      // mix.
      handle->snapshot.store(
          new CampaignSnapshot(std::move(op.artifact), std::move(controller),
                               old_snapshot->limits(),
                               impl_->snapshot_counters),
          std::memory_order_seq_cst);
      rcu::Domain::Global().Retire(const_cast<CampaignSnapshot*>(old_snapshot),
                                   ReclaimSnapshot);
      shard.counters.swapped.fetch_add(1, std::memory_order_relaxed);
      return ControlOutcome{op.id, CampaignState::kLive};
    }

    case ControlOp::Kind::kRetire: {
      if (!impl_->Remove(op.id)) return NotLive(op.id);
      impl_->ShardFor(op.id).counters.retired_explicit.fetch_add(
          1, std::memory_order_relaxed);
      return ControlOutcome{op.id, CampaignState::kRetiredExplicit};
    }

    case ControlOp::Kind::kTick: {
      Shard& shard = impl_->ShardFor(op.id);
      // Fast path: a live-and-staying-live campaign answers from the read
      // path alone. The retirement decision is a pure function of the
      // arguments and the (immutable) limits, so the writer path below
      // can only disagree about presence, never about the state.
      CampaignState state = CampaignState::kLive;
      {
        rcu::ReadGuard guard;
        const Index* index = shard.index.load(std::memory_order_seq_cst);
        auto it = index->find(op.id);
        if (it == index->end()) return NotLive(op.id);
        const CampaignLimits& limits =
            it->second->snapshot.load(std::memory_order_seq_cst)->limits();
        if (op.remaining_tasks <= 0) {
          state = CampaignState::kRetiredCompleted;
        } else if (op.now_hours >=
                   limits.admit_hours + limits.deadline_hours) {
          state = CampaignState::kRetiredDeadline;
        }
      }
      if (state == CampaignState::kLive) return ControlOutcome{op.id, state};
      // Retiring arm: re-checks presence under the writer mutex (a racing
      // tick or retire may have removed the campaign first).
      if (!impl_->Remove(op.id)) return NotLive(op.id);
      auto& counters = shard.counters;
      (state == CampaignState::kRetiredCompleted ? counters.retired_completed
                                                 : counters.retired_deadline)
          .fetch_add(1, std::memory_order_relaxed);
      return ControlOutcome{op.id, state};
    }
  }
  return Status::InvalidArgument(
      StringF("unknown control op kind %d", static_cast<int>(op.kind)));
}

Result<CampaignExport> CampaignShardMap::ExportCampaign(CampaignId id) const {
  Shard& shard = impl_->ShardFor(id);
  rcu::ReadGuard guard;
  const Index* index = shard.index.load(std::memory_order_seq_cst);
  auto it = index->find(id);
  if (it == index->end()) return NotLive(id);
  const CampaignSnapshot* snapshot =
      it->second->snapshot.load(std::memory_order_seq_cst);
  if (snapshot->artifact() == nullptr) {
    return Status::FailedPrecondition(
        StringF("campaign %llu is controller-backed and cannot be exported",
                static_cast<unsigned long long>(id)));
  }
  CampaignExport out;
  out.id = id;
  out.limits = snapshot->limits();
  // Sharing the artifact pointer is safe past the read guard: the
  // shared_ptr copy keeps the tables alive even after the snapshot itself
  // is reclaimed.
  out.artifact = snapshot->artifact();
  return out;
}

Result<market::OfferSheet> CampaignShardMap::Decide(
    CampaignId id, const market::DecisionRequest& request) {
  Shard& shard = impl_->ShardFor(id);
  rcu::ReadGuard guard;
  const Index* index = shard.index.load(std::memory_order_seq_cst);
  auto it = index->find(id);
  if (it == index->end()) return NotLive(id);
  const CampaignSnapshot* snapshot =
      it->second->snapshot.load(std::memory_order_seq_cst);
  shard.counters.decides.value.fetch_add(1, std::memory_order_relaxed);
  return snapshot->Decide(OnCampaignClock(request, snapshot->limits()));
}

std::vector<DecideResponse> CampaignShardMap::DecideBatch(
    const std::vector<DecideRequest>& requests) {
  std::vector<DecideResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // Partition request indices by shard. Each shard's slice is then served
  // by exactly one pool thread: it enters a read guard, loads the shard
  // index once, walks its indices, and writes disjoint response slots --
  // no locks anywhere in the pass.
  std::vector<std::vector<size_t>> by_shard(
      static_cast<size_t>(impl_->num_shards));
  for (size_t i = 0; i < requests.size(); ++i) {
    const int shard_index = ShardOf(requests[i].campaign_id);
    by_shard[static_cast<size_t>(shard_index)].push_back(i);
  }

  ThreadPool& pool = ThreadPool::Shared();
  pool.ParallelFor(impl_->num_shards, [&](int64_t shard_index) {
    const auto& indices = by_shard[static_cast<size_t>(shard_index)];
    if (indices.empty()) return;
    Shard& shard = *impl_->shards[static_cast<size_t>(shard_index)];
    rcu::ReadGuard guard;
    const Index* index = shard.index.load(std::memory_order_seq_cst);
    uint64_t served = 0;
    for (size_t i : indices) {
      const DecideRequest& request = requests[i];
      DecideResponse& response = responses[i];
      response.campaign_id = request.campaign_id;
      auto it = index->find(request.campaign_id);
      if (it == index->end()) {
        response.status = NotLive(request.campaign_id);
        continue;
      }
      const CampaignSnapshot* snapshot =
          it->second->snapshot.load(std::memory_order_seq_cst);
      ++served;
      Result<market::OfferSheet> sheet = snapshot->Decide(
          OnCampaignClock(request.request, snapshot->limits()));
      if (sheet.ok()) {
        response.sheet = std::move(sheet).value();
      } else {
        response.status = sheet.status();
      }
    }
    shard.counters.decides.value.fetch_add(served, std::memory_order_relaxed);
    shard.counters.batch_requests.value.fetch_add(served,
                                                  std::memory_order_relaxed);
  });
  return responses;
}

int CampaignShardMap::num_shards() const { return impl_->num_shards; }

int CampaignShardMap::ShardOf(CampaignId id) const {
  return static_cast<int>(id % static_cast<uint64_t>(impl_->num_shards));
}

bool CampaignShardMap::Contains(CampaignId id) const {
  Shard& shard = impl_->ShardFor(id);
  rcu::ReadGuard guard;
  return shard.index.load(std::memory_order_seq_cst)->count(id) > 0;
}

size_t CampaignShardMap::live_campaigns() const {
  size_t live = 0;
  rcu::ReadGuard guard;
  for (const auto& shard : impl_->shards) {
    live += shard->index.load(std::memory_order_seq_cst)->size();
  }
  return live;
}

ShardStats CampaignShardMap::shard_stats(int shard_index) const {
  if (shard_index < 0 || shard_index >= impl_->num_shards) return ShardStats{};
  const ShardCounters& c =
      impl_->shards[static_cast<size_t>(shard_index)]->counters;
  ShardStats stats;
  stats.admitted = c.admitted.load(std::memory_order_relaxed);
  stats.decides = c.decides.value.load(std::memory_order_relaxed);
  stats.batch_requests = c.batch_requests.value.load(std::memory_order_relaxed);
  stats.swapped = c.swapped.load(std::memory_order_relaxed);
  stats.retired_completed =
      c.retired_completed.load(std::memory_order_relaxed);
  stats.retired_deadline = c.retired_deadline.load(std::memory_order_relaxed);
  stats.retired_explicit = c.retired_explicit.load(std::memory_order_relaxed);
  stats.live = c.live.load(std::memory_order_relaxed);
  stats.peak_live = c.peak_live.load(std::memory_order_relaxed);
  return stats;
}

ShardStats CampaignShardMap::TotalStats() const {
  ShardStats total;
  for (int s = 0; s < impl_->num_shards; ++s) {
    const ShardStats stats = shard_stats(s);
    total.admitted += stats.admitted;
    total.decides += stats.decides;
    total.batch_requests += stats.batch_requests;
    total.swapped += stats.swapped;
    total.retired_completed += stats.retired_completed;
    total.retired_deadline += stats.retired_deadline;
    total.retired_explicit += stats.retired_explicit;
    total.live += stats.live;
    // Shard peaks need not be simultaneous; the sum is an upper bound on
    // the map-wide peak, which is what capacity sizing needs.
    total.peak_live += stats.peak_live;
  }
  return total;
}

SnapshotStats CampaignShardMap::snapshot_stats() const {
  SnapshotStats stats;
  stats.published =
      impl_->snapshot_counters->published.load(std::memory_order_relaxed);
  stats.reclaimed =
      impl_->snapshot_counters->reclaimed.load(std::memory_order_relaxed);
  stats.live_campaigns = live_campaigns();
  return stats;
}

void CampaignShardMap::QuiesceReclamation() { rcu::Domain::Global().Drain(); }

void CampaignShardMap::ParallelOverShardsWith(
    const std::function<void(int)>& fn, const std::function<void()>& extra) {
  // The extra lane rides the same region as index num_shards; the pool
  // load-balances, so it overlaps whichever shard passes are still
  // running. As in DecideBatch, at most num_shards threads take part.
  ThreadPool::Shared().ParallelFor(
      impl_->num_shards + 1,
      [&](int64_t index) {
        if (index < impl_->num_shards) {
          fn(static_cast<int>(index));
        } else {
          extra();
        }
      },
      impl_->num_shards);
}

}  // namespace crowdprice::serving
