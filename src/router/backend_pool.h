// BackendPool: the router's connection and health layer over its
// crowdprice_serve backends.
//
// Each backend ("host:port") holds one leased PricingClient connection,
// dialed lazily and reused across calls; WithClient serializes callers on
// the backend's lease, redials after transport failures, and retries
// Unavailable outcomes with bounded exponential backoff. Server-side
// verdicts (NotFound, InvalidArgument, ...) are final -- they return on
// the first attempt and never count against the backend's health.
// ScatterDecideLines forwards one decide batch's slices to several
// backends at once from the calling thread, with the same per-slice
// failure semantics.
//
// Health: a probe thread pings every backend on probe_interval_ms (each
// probe is a fresh connection, so a slow serving call never delays the
// probe), marking a backend down after down_after_failures consecutive
// misses and back up on the first successful ping. Serving calls that
// exhaust their retries count as misses too. Calls against a downed
// backend fail fast with Unavailable -- the code the router's failover
// keys on -- instead of paying the dial timeout again; the probe thread
// is what notices recovery.
//
// Thread safety: every public method is safe to call concurrently.
// Backends can be added and removed live (the router's rebalance path);
// a removal never tears a connection out from under an in-flight call.

#ifndef CROWDPRICE_ROUTER_BACKEND_POOL_H_
#define CROWDPRICE_ROUTER_BACKEND_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "util/result.h"

namespace crowdprice::router {

struct BackendPoolOptions {
  /// Per-connection options (frame cap + auth token), used for leased
  /// serving connections and health probes alike; a probe's dial and ping
  /// get a 2 s deadline in place of these serving deadlines.
  net::ClientOptions client;
  /// Health-probe period. <= 0 disables the probe thread; tests drive
  /// ProbeNow() by hand instead.
  int probe_interval_ms = 250;
  /// Consecutive failures (probe misses or exhausted calls) before a
  /// backend is marked down. At least 1.
  int down_after_failures = 2;
  /// Attempts per WithClient call (first try + retries). At least 1.
  int max_attempts = 3;
  /// Exponential backoff between attempts: initial delay, doubling up to
  /// the max.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 100;
};

/// One backend's share of a routed decide batch (ScatterDecideLines).
struct DecideSlice {
  std::string backend;                     ///< The owning backend's name.
  std::vector<std::string> request_lines;  ///< Wire body lines, verbatim.
  /// The backend's response lines, one per request line, or why the
  /// slice could not be answered (after the pool's retries).
  Result<std::vector<std::string>> response_lines =
      Status::Internal("slice was never forwarded");
};

/// One backend's health, as Health() reports it.
struct BackendHealth {
  std::string name;
  bool up = true;
  uint64_t consecutive_failures = 0;
  uint64_t failovers = 0;  ///< Calls that exhausted every attempt.
};

class BackendPool {
 public:
  /// Endpoints are "host:port" with a numeric IPv4 host. Starts the probe
  /// thread when probe_interval_ms > 0.
  static Result<BackendPool> Create(const std::vector<std::string>& endpoints,
                                    const BackendPoolOptions& options);

  ~BackendPool();  ///< Stops the probe thread, closes every connection.
  BackendPool(BackendPool&&) noexcept;
  BackendPool& operator=(BackendPool&&) noexcept;
  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  Status Add(const std::string& endpoint);
  /// Removes the backend from the pool; in-flight calls on it finish
  /// against their leased connection.
  Status Remove(const std::string& endpoint);
  bool Has(const std::string& endpoint) const;

  /// Runs `fn` over the named backend's leased connection (dialing or
  /// redialing first when needed). Unavailable outcomes -- from the dial,
  /// the transport, or `fn` itself -- retry up to max_attempts with
  /// exponential backoff, then mark the failure and return Unavailable;
  /// any other outcome is final and healthy. Fails fast Unavailable when
  /// the backend is marked down, NotFound when it is not in the pool.
  Status WithClient(const std::string& name,
                    const std::function<Status(net::PricingClient&)>& fn);

  /// Forwards every slice to its backend and collects every answer, on
  /// the calling thread: takes the slices' leases in backend-name order
  /// (so concurrent callers cannot deadlock), sends every slice, then
  /// reads every answer, releasing each lease once its answer is read. A
  /// slice whose backend is down or not pooled, or whose send or receive
  /// fails Unavailable, then goes through WithClient's retries, backoff
  /// and down-marking on its own. Slices must name distinct backends.
  void ScatterDecideLines(std::vector<DecideSlice>* slices);

  std::vector<BackendHealth> Health() const;

  /// One synchronous probe sweep over every backend (what the probe
  /// thread runs each interval). Exposed so tests control probe timing.
  void ProbeNow();

 private:
  struct Impl;
  explicit BackendPool(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdprice::router

#endif  // CROWDPRICE_ROUTER_BACKEND_POOL_H_
