// CampaignRouter: multi-node campaign placement over crowdprice_serve
// backends, with health-checked failover and live rebalancing.
//
// The router is a net::ServingSurface, so net::PricingServer fronts it
// with the exact frame protocol the backends speak -- clients cannot
// tell a router from a single node. Internally:
//
//   - Placement: a versioned rendezvous-hash PlacementTable
//     (router/placement.h) maps every campaign id to one owning backend.
//     Admits assign router-wide ids and place the campaign on its owner
//     via the explicit-id admit (`control admit-at`), so ids stay stable
//     as campaigns move.
//   - Decide fan-out: DecideBatchLines splits a batch's wire lines by
//     owning backend and forwards every slice verbatim from the calling
//     thread (BackendPool::ScatterDecideLines): it sends each slice over
//     the pool's leased connection, then reads each answer, so all the
//     backends work at once without a thread per batch, and splices the
//     response lines back in request order without parsing a sheet. A
//     batch with one owner is the same code with one slice. The wire is
//     canonical hex-float text, so a routed answer is byte-for-byte the
//     direct one -- per-line `err` answers (a bad request body, an
//     unknown campaign) included.
//   - Control splice: ApplyControlPayload reads only a control payload's
//     header line (net::ReadControlHeader) -- the verb and the target id
//     -- and forwards the payload to the owner with every byte after the
//     header untouched; a plain admit gets its router-wide id by the
//     `control admit` -> `control admit-at <id>` prefix rewrite. The
//     owner's ack comes back verbatim; the router parses that one short
//     line only to track the live set and to retry Unavailable. No
//     artifact is decoded here: the owner is the one node that reads it,
//     so a corrupt one is the owner's InvalidArgument and the owner's
//     protocol error. Exports pass through the same way.
//   - Failover: the BackendPool (router/backend_pool.h) health-probes
//     every backend, retries Unavailable outcomes with bounded backoff,
//     and marks repeat offenders down. A request whose owner is down (or
//     dies mid-call past the retry budget) answers a clean Unavailable --
//     per-request in a decide batch, as the call status on the control
//     plane -- and never crashes or wedges the router.
//   - Live rebalancing: Rebalance publishes a new placement under a drain
//     barrier (a writer lock all serving/control traffic reads): for each
//     live campaign whose owner changes, the router exports it from the
//     old owner, re-admits it on the new owner under the same id -- the
//     `export ok <id>` payload becomes `control admit-at <id>` by a
//     prefix swap, so the artifact moves as the old owner wrote it --
//     and retires the old copy. Copy-then-commit: a failed migration
//     rolls back and no decide ever observes a half-moved campaign.
//
// Thread safety: every public method is safe to call concurrently.
// Decide and control traffic hold the drain barrier shared; Rebalance
// holds it exclusively for the duration of the migration.

#ifndef CROWDPRICE_ROUTER_ROUTER_H_
#define CROWDPRICE_ROUTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.h"
#include "router/backend_pool.h"
#include "router/placement.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"

namespace crowdprice::router {

struct RouterOptions {
  /// Connection, retry, and health-probe policy for the backend pool.
  BackendPoolOptions pool;
};

/// Monotone counters over the router's lifetime.
struct RouterStats {
  uint64_t decide_requests = 0;  ///< Individual decide requests routed.
  uint64_t control_ops = 0;      ///< Control ops routed (exports included).
  uint64_t unavailable = 0;      ///< Requests answered Unavailable.
  uint64_t rebalances = 0;       ///< Successful placement changes.
  uint64_t migrations = 0;       ///< Campaigns moved across backends.
  uint64_t lost_campaigns = 0;   ///< Campaigns dropped with a dead backend.
};

class CampaignRouter final : public net::ServingSurface {
 public:
  /// Backends are "host:port" endpoints; the initial placement is version
  /// 1 over exactly this set. The set may be empty (every request answers
  /// Unavailable until a rebalance adds capacity).
  static Result<CampaignRouter> Create(
      const std::vector<std::string>& backends,
      const RouterOptions& options = {});

  ~CampaignRouter() override;
  CampaignRouter(CampaignRouter&&) noexcept;
  CampaignRouter& operator=(CampaignRouter&&) noexcept;
  CampaignRouter(const CampaignRouter&) = delete;
  CampaignRouter& operator=(const CampaignRouter&) = delete;

  // --- net::ServingSurface ----------------------------------------------

  /// Fan-out by owning backend (see file comment): routes wire body lines
  /// to their owners and splices the response lines back in request
  /// order. Lines whose owner cannot be reached answer Unavailable `err`
  /// lines (counted in stats().unavailable); lines the owner rejects carry
  /// the owner's own answer. Returns false, routing nothing, when any
  /// line has no readable campaign id.
  bool DecideBatchLines(const std::vector<std::string>& request_lines,
                        std::vector<std::string>* response_lines) override;

  /// Routes one control payload to the owning backend by its header line
  /// alone (see file comment) and returns the owner's ack verbatim. Admits
  /// assign the router-wide id (or honor an admit-at's explicit id). An
  /// owner that cannot be reached answers an Unavailable err ack (counted
  /// in stats().unavailable); a header that cannot be routed (an unknown
  /// verb, an unreadable id) is an InvalidArgument result that reaches no
  /// backend.
  Result<std::string> ApplyControlPayload(const std::string& payload) override;

  /// The owning backend's export response payload for `id`, verbatim.
  std::string ExportPayload(serving::CampaignId id) override;

  // --- In-process conveniences over the payload path ----------------------

  /// Serializes `op` and routes it through ApplyControlPayload.
  /// Controller-backed admits cannot cross the wire (InvalidArgument).
  Result<serving::ControlOutcome> Apply(const serving::ControlOp& op);

  /// ExportPayload, decoded.
  Result<serving::CampaignExport> ExportCampaign(serving::CampaignId id);

  // --- Placement ----------------------------------------------------------

  /// A copy of the current placement table.
  PlacementTable placement() const;

  /// Campaigns admitted through this router and not yet retired.
  size_t live_campaigns() const;

  /// Publishes a new backend set and migrates every live campaign whose
  /// owner changes (see file comment). Returns the number migrated. If a
  /// copy step fails against a backend that remains in the set, the
  /// rebalance rolls back and the placement is unchanged; campaigns
  /// exported off a backend being removed that cannot be reached are
  /// dropped (counted in stats().lost_campaigns) -- their state died with
  /// the node.
  Result<size_t> Rebalance(const std::vector<std::string>& new_backends);

  /// Rebalance conveniences: the current set plus/minus one endpoint.
  Result<size_t> AddBackend(const std::string& endpoint);
  Result<size_t> RemoveBackend(const std::string& endpoint);

  // --- Health --------------------------------------------------------------

  std::vector<BackendHealth> Health() const;
  /// One synchronous probe sweep (tests drive this instead of waiting on
  /// the probe interval).
  void ProbeNow();

  RouterStats stats() const;

 private:
  struct Impl;
  explicit CampaignRouter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdprice::router

#endif  // CROWDPRICE_ROUTER_ROUTER_H_
