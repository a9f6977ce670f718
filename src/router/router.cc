#include "router/router.h"

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/wire.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::router {

namespace {

using serving::CampaignExport;
using serving::CampaignId;
using serving::CampaignState;
using serving::ControlOp;
using serving::ControlOutcome;

std::string RetirePayload(CampaignId id) {
  // A retire always serializes.
  return net::SerializeControlOp(ControlOp::Retire(id)).value();
}

}  // namespace

struct CampaignRouter::Impl {
  RouterOptions options;
  BackendPool pool;

  /// The drain barrier: decide/control/export traffic holds it shared,
  /// Rebalance holds it exclusive while it migrates -- so a placement
  /// change waits out every in-flight request and no request ever sees a
  /// half-moved campaign.
  mutable std::shared_mutex drain_mu;
  PlacementTable placement;  ///< Written only under an exclusive drain_mu.

  /// Router-wide id assignment for admits.
  std::atomic<uint64_t> next_id{1};

  /// Campaigns admitted through the router and still live; the rebalance
  /// migration set. Its own mutex because decide/control traffic updates
  /// it while holding drain_mu only shared.
  mutable std::mutex live_mu;
  std::unordered_set<CampaignId> live;

  std::atomic<uint64_t> decide_requests{0};
  std::atomic<uint64_t> control_ops{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> rebalances{0};
  std::atomic<uint64_t> migrations{0};
  std::atomic<uint64_t> lost_campaigns{0};

  explicit Impl(BackendPool pool_in) : pool(std::move(pool_in)) {}

  void TrackLive(CampaignId id, bool is_live) {
    std::lock_guard<std::mutex> lock(live_mu);
    if (is_live) {
      live.insert(id);
    } else {
      live.erase(id);
    }
  }

  bool DecideBatchLines(const std::vector<std::string>& request_lines,
                        std::vector<std::string>* response_lines) {
    // Extract every campaign id up front; a line without one fails the
    // whole batch. Any other malformed line still goes to its owner, whose
    // own `err` answer splices back unchanged -- so a routed batch answers
    // byte for byte what the same lines answer sent direct.
    std::vector<CampaignId> ids;
    ids.reserve(request_lines.size());
    for (const std::string& line : request_lines) {
      const Result<CampaignId> id = net::DecideLineCampaignId(line);
      if (!id.ok()) return false;
      ids.push_back(*id);
    }

    std::shared_lock<std::shared_mutex> drain(drain_mu);
    decide_requests.fetch_add(request_lines.size(),
                              std::memory_order_relaxed);
    response_lines->assign(request_lines.size(), std::string());
    if (placement.empty()) {
      const Status status =
          Status::Unavailable("router has no backends to route to");
      for (size_t i = 0; i < ids.size(); ++i) {
        (*response_lines)[i] = net::DecideErrorLine(ids[i], status);
      }
      unavailable.fetch_add(request_lines.size(),
                            std::memory_order_relaxed);
      return true;
    }

    // One slice per owning backend, forwarded from this thread.
    std::vector<DecideSlice> slices;
    std::vector<std::vector<size_t>> slots;  // request index of each line
    std::unordered_map<std::string, size_t> slice_of;
    for (size_t i = 0; i < ids.size(); ++i) {
      std::string owner = placement.OwnerOf(ids[i]).value();
      const auto [it, inserted] = slice_of.try_emplace(owner, slices.size());
      if (inserted) {
        slices.emplace_back();
        slices.back().backend = std::move(owner);
        slots.emplace_back();
      }
      slices[it->second].request_lines.push_back(request_lines[i]);
      slots[it->second].push_back(i);
    }
    pool.ScatterDecideLines(&slices);
    for (size_t s = 0; s < slices.size(); ++s) {
      Result<std::vector<std::string>>& answer = slices[s].response_lines;
      for (size_t j = 0; j < slots[s].size(); ++j) {
        const size_t index = slots[s][j];
        if (answer.ok()) {
          (*response_lines)[index] = std::move((*answer)[j]);
        } else {
          (*response_lines)[index] =
              net::DecideErrorLine(ids[index], answer.status());
          unavailable.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    return true;
  }

  /// Forwards one control payload to `backend` and returns its parsed
  /// ack; `*ack` receives the ack to answer with -- the owner's own bytes,
  /// or an err ack when the owner could not be reached. Server-side
  /// verdicts (NotFound, InvalidArgument, ...) are final; transport
  /// failures and Unavailable verdicts retry inside the pool.
  Result<ControlOutcome> ApplyAt(const std::string& backend,
                                 const std::string& payload,
                                 std::string* ack) {
    Result<ControlOutcome> outcome =
        Status::Internal("control op was never forwarded");
    const Status status =
        pool.WithClient(backend, [&](net::PricingClient& client) {
          CP_ASSIGN_OR_RETURN(*ack, client.ApplyPayload(payload));
          outcome = net::DeserializeControlAck(*ack);
          if (!outcome.ok() && outcome.status().IsUnavailable()) {
            return outcome.status();  // Retried like a transport failure.
          }
          return Status::OK();
        });
    if (!status.ok()) {
      unavailable.fetch_add(1, std::memory_order_relaxed);
      *ack = net::SerializeControlAck(status);
      return status;
    }
    return outcome;
  }

  /// Routes one control payload by its header alone: admits get their
  /// router-wide id (an explicit admit-at id is honored, keeping next_id
  /// ahead of it) and reach the owner as `control admit-at`, so the backend
  /// places the campaign under exactly this id. Every byte after the header
  /// is forwarded untouched and the owner's ack comes back as it is.
  Result<std::string> ApplyControlPayload(const std::string& payload) {
    CP_ASSIGN_OR_RETURN(const net::ControlHeader header,
                        net::ReadControlHeader(payload));
    std::shared_lock<std::shared_mutex> drain(drain_mu);
    control_ops.fetch_add(1, std::memory_order_relaxed);
    if (placement.empty()) {
      return net::SerializeControlAck(
          Status::Unavailable("router has no backends to route to"));
    }
    CampaignId id = header.id;
    std::string placed;
    if (header.kind == ControlOp::Kind::kAdmit) {
      if (id == 0) {
        id = next_id.fetch_add(1, std::memory_order_relaxed);
        placed = net::PlaceAdmitAt(payload, header, id);
      } else {
        uint64_t expected = next_id.load(std::memory_order_relaxed);
        while (expected <= id &&
               !next_id.compare_exchange_weak(expected, id + 1,
                                              std::memory_order_relaxed)) {
        }
      }
    }
    const std::string owner = placement.OwnerOf(id).value();
    const std::string& forwarded = placed.empty() ? payload : placed;
    std::string ack;
    const Result<ControlOutcome> outcome = ApplyAt(owner, forwarded, &ack);
    if (outcome.ok()) {
      switch (header.kind) {
        case ControlOp::Kind::kAdmit:
          TrackLive(outcome->id, true);
          break;
        case ControlOp::Kind::kRetire:
          TrackLive(id, false);
          break;
        case ControlOp::Kind::kTick:
          if (outcome->state != CampaignState::kLive) TrackLive(id, false);
          break;
        case ControlOp::Kind::kSwapArtifact:
          break;
      }
    }
    return ack;
  }

  /// `id`'s export response payload off `backend`, unparsed.
  Result<std::string> Export(const std::string& backend, CampaignId id) {
    Result<std::string> response =
        Status::Internal("export was never forwarded");
    const Status status =
        pool.WithClient(backend, [&](net::PricingClient& client) {
          response = client.ExportPayload(id);
          return response.status();
        });
    if (!status.ok()) {
      unavailable.fetch_add(1, std::memory_order_relaxed);
      return status;
    }
    return response;
  }

  std::string ExportPayload(CampaignId id) {
    std::shared_lock<std::shared_mutex> drain(drain_mu);
    control_ops.fetch_add(1, std::memory_order_relaxed);
    Result<std::string> response =
        Status::Unavailable("router has no backends to route to");
    if (!placement.empty()) {
      response = Export(placement.OwnerOf(id).value(), id);
    }
    if (!response.ok()) {
      // The err form always serializes.
      return net::SerializeExportResponse(response.status()).value();
    }
    return std::move(response).value();
  }

  Result<size_t> Rebalance(const std::vector<std::string>& new_backends) {
    std::unique_lock<std::shared_mutex> drain(drain_mu);
    CP_ASSIGN_OR_RETURN(
        PlacementTable next,
        PlacementTable::Create(new_backends, placement.version() + 1));
    for (const std::string& backend : next.backends()) {
      if (!pool.Has(backend)) CP_RETURN_IF_ERROR(pool.Add(backend));
    }

    // Plan the diff: every live campaign whose owner changes.
    struct Move {
      CampaignId id = 0;
      std::string from;
      std::string to;
    };
    std::vector<Move> moves;
    {
      std::lock_guard<std::mutex> lock(live_mu);
      for (const CampaignId id : live) {
        Move move;
        move.id = id;
        move.from = placement.empty() ? "" : placement.OwnerOf(id).value();
        move.to = next.OwnerOf(id).value();
        if (move.from != move.to) moves.push_back(std::move(move));
      }
    }

    // Pass 1 -- copy: export off the old owner, re-admit on the new one
    // under the same id. Both copies exist until commit; no traffic can
    // observe that (we hold the drain barrier exclusively).
    std::vector<Move> copied;
    std::vector<CampaignId> lost;
    Status failure = Status::OK();
    // The export payload becomes the re-admit by a prefix swap, so the
    // artifact moves as the old owner wrote it and is never decoded here.
    std::string ack;
    for (const Move& move : moves) {
      Result<std::string> readmit = Export(move.from, move.id);
      if (readmit.ok()) readmit = net::ExportToAdmitAt(*readmit);
      if (!readmit.ok()) {
        if (readmit.status().IsUnavailable() && !next.Contains(move.from)) {
          // The old owner is dead and leaving the set: its campaigns'
          // state died with it. Drop them rather than wedging every
          // future rebalance.
          lost.push_back(move.id);
          continue;
        }
        failure = readmit.status();
        break;
      }
      const Result<ControlOutcome> admitted = ApplyAt(move.to, *readmit, &ack);
      if (!admitted.ok()) {
        failure = admitted.status();
        break;
      }
      copied.push_back(move);
    }
    if (!failure.ok()) {
      // Roll back: retire the fresh copies; the placement never changed,
      // so traffic keeps hitting the originals.
      for (const Move& move : copied) {
        (void)ApplyAt(move.to, RetirePayload(move.id), &ack);
      }
      return Status::Unavailable(StringF(
          "rebalance to placement v%llu aborted, no campaigns moved: %s",
          static_cast<unsigned long long>(next.version()),
          failure.message().c_str()));
    }

    // Pass 2 -- commit: publish the new table, then retire the old
    // copies (best effort: an unreachable old owner just means its copy
    // dies with it; nothing routes there anymore).
    const PlacementTable old = std::move(placement);
    placement = std::move(next);
    for (const Move& move : copied) {
      (void)ApplyAt(move.from, RetirePayload(move.id), &ack);
    }
    {
      std::lock_guard<std::mutex> lock(live_mu);
      for (const CampaignId id : lost) live.erase(id);
    }
    for (const std::string& backend : old.backends()) {
      if (!placement.Contains(backend)) (void)pool.Remove(backend);
    }
    rebalances.fetch_add(1, std::memory_order_relaxed);
    migrations.fetch_add(copied.size(), std::memory_order_relaxed);
    lost_campaigns.fetch_add(lost.size(), std::memory_order_relaxed);
    return copied.size();
  }
};

CampaignRouter::CampaignRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CampaignRouter::~CampaignRouter() = default;
CampaignRouter::CampaignRouter(CampaignRouter&&) noexcept = default;
CampaignRouter& CampaignRouter::operator=(CampaignRouter&&) noexcept =
    default;

Result<CampaignRouter> CampaignRouter::Create(
    const std::vector<std::string>& backends, const RouterOptions& options) {
  CP_ASSIGN_OR_RETURN(PlacementTable placement,
                      PlacementTable::Create(backends, 1));
  CP_ASSIGN_OR_RETURN(BackendPool pool,
                      BackendPool::Create(backends, options.pool));
  auto impl = std::make_unique<Impl>(std::move(pool));
  impl->options = options;
  impl->placement = std::move(placement);
  return CampaignRouter(std::move(impl));
}

bool CampaignRouter::DecideBatchLines(
    const std::vector<std::string>& request_lines,
    std::vector<std::string>* response_lines) {
  return impl_->DecideBatchLines(request_lines, response_lines);
}

Result<std::string> CampaignRouter::ApplyControlPayload(
    const std::string& payload) {
  return impl_->ApplyControlPayload(payload);
}

std::string CampaignRouter::ExportPayload(CampaignId id) {
  return impl_->ExportPayload(id);
}

Result<ControlOutcome> CampaignRouter::Apply(const ControlOp& op) {
  CP_ASSIGN_OR_RETURN(const std::string payload, net::SerializeControlOp(op));
  CP_ASSIGN_OR_RETURN(const std::string ack, ApplyControlPayload(payload));
  return net::DeserializeControlAck(ack);
}

Result<CampaignExport> CampaignRouter::ExportCampaign(CampaignId id) {
  return net::DeserializeExportResponse(ExportPayload(id));
}

PlacementTable CampaignRouter::placement() const {
  std::shared_lock<std::shared_mutex> drain(impl_->drain_mu);
  return impl_->placement;
}

size_t CampaignRouter::live_campaigns() const {
  std::lock_guard<std::mutex> lock(impl_->live_mu);
  return impl_->live.size();
}

Result<size_t> CampaignRouter::Rebalance(
    const std::vector<std::string>& new_backends) {
  return impl_->Rebalance(new_backends);
}

Result<size_t> CampaignRouter::AddBackend(const std::string& endpoint) {
  std::vector<std::string> backends = placement().backends();
  backends.push_back(endpoint);
  return Rebalance(backends);
}

Result<size_t> CampaignRouter::RemoveBackend(const std::string& endpoint) {
  const PlacementTable current = placement();
  std::vector<std::string> backends;
  bool found = false;
  for (const std::string& backend : current.backends()) {
    if (backend == endpoint) {
      found = true;
    } else {
      backends.push_back(backend);
    }
  }
  if (!found) {
    return Status::NotFound(
        StringF("backend '%s' is not in the placement", endpoint.c_str()));
  }
  return Rebalance(backends);
}

std::vector<BackendHealth> CampaignRouter::Health() const {
  return impl_->pool.Health();
}

void CampaignRouter::ProbeNow() { impl_->pool.ProbeNow(); }

RouterStats CampaignRouter::stats() const {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  RouterStats stats;
  stats.decide_requests = load(impl_->decide_requests);
  stats.control_ops = load(impl_->control_ops);
  stats.unavailable = load(impl_->unavailable);
  stats.rebalances = load(impl_->rebalances);
  stats.migrations = load(impl_->migrations);
  stats.lost_campaigns = load(impl_->lost_campaigns);
  return stats;
}

}  // namespace crowdprice::router
