// PricingClient: a blocking TCP client for crowdprice_serve, plus
// RemoteController, which adapts one remote campaign back into the
// market::PricingController interface so a CampaignSession (or any other
// controller consumer) can be priced by a server across the wire.
//
// The client speaks net/wire.h frames over one connection and is strictly
// request/response: each call writes one frame and blocks for the
// matching response frame (DecideBatchLines also comes as its two halves,
// so a caller can have one batch in flight on each of several clients).
// Callers serialize their own calls (one client
// per load-generator process / test thread); the server end interleaves
// any number of such connections concurrently.
//
// Transport failures surface as clean Status errors from the call:
// connection-level failures (refused, reset, closed mid-response) are
// Unavailable -- the code the router's failover keys on -- and
// unparseable responses are Internal/InvalidArgument. Server-side
// failures ride the payload and come back with their original code and
// message -- a NotFound for an unknown campaign is NotFound here too.
//
// With ClientOptions::auth_token set, Connect performs the hello
// handshake before returning, so an authed client is usable the moment
// Connect succeeds; a rejected handshake fails Connect with the server's
// verdict (Unauthenticated / FailedPrecondition). Reconnect() redials the
// remembered endpoint (and re-runs the handshake) after a transport
// failure, which is what lets one client object ride out a backend
// restart.
//
// Transport: bytes cross a pluggable net::Transport -- plain TCP by
// default, TLS (net/tls_transport.h) when ClientOptions::tls is
// configured. A failed TLS handshake fails Connect with Unauthenticated
// (certificate rejected) or Unavailable (transport-level), mirroring
// the auth-token story.
//
// Deadlines: Connect runs a non-blocking connect bounded by
// connect_timeout_ms (a black-holed backend is Unavailable at the
// deadline, never an indefinite hang), and every blocking call carries
// the io_timeout_ms idle deadline -- if the socket moves no bytes for
// that long mid-call, the call fails Unavailable and the connection is
// left for Reconnect. Progress resets the idle clock, so a slow-but-
// alive peer (a trickling socket) is never misdiagnosed as wedged.

#ifndef CROWDPRICE_NET_CLIENT_H_
#define CROWDPRICE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "market/controller.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"

namespace crowdprice::net {

struct ClientOptions {
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// When non-empty, Connect sends a hello with this token and fails with
  /// the server's verdict unless it is accepted.
  std::string auth_token;
  /// TLS material (see net/transport.h). All-empty keeps plain TCP.
  TlsOptions tls;
  /// Dial deadline in milliseconds: the TCP connect plus the TLS and
  /// auth handshakes must all land within this window or Connect fails
  /// Unavailable. <= 0 waits forever (not recommended).
  int connect_timeout_ms = 10000;
  /// Idle I/O deadline in milliseconds for every blocking call: when
  /// the socket moves no bytes for this long mid-call, the call fails
  /// Unavailable (a half-open peer, not a slow one -- progress resets
  /// the clock). <= 0 disables the deadline.
  int io_timeout_ms = 30000;
};

class PricingClient {
 public:
  /// Connects to a numeric IPv4 address ("127.0.0.1") and port, running
  /// the TLS and auth handshakes `options` ask for.
  static Result<PricingClient> Connect(const std::string& host, uint16_t port,
                                       const ClientOptions& options = {});

  ~PricingClient();  ///< Closes the connection.
  PricingClient(PricingClient&&) noexcept;
  PricingClient& operator=(PricingClient&&) noexcept;
  PricingClient(const PricingClient&) = delete;
  PricingClient& operator=(const PricingClient&) = delete;

  bool connected() const;
  void Close();

  /// Closes (if needed) and redials the endpoint Connect remembered,
  /// re-running the auth handshake. On failure the client stays closed
  /// and Reconnect may be retried.
  Status Reconnect();

  /// One ping/pong round trip; Unavailable (or the transport error) when
  /// the server is gone, OK when it answered a well-formed pong. The
  /// router's health probes are exactly this call.
  Status Ping();

  /// Sends an explicit hello and returns the server's verdict (OK,
  /// Unauthenticated, FailedPrecondition) or the transport error.
  /// Connect already does this when options carry a token; this exists
  /// for handshake tests and version-skew probes.
  Status Hello(const HelloRequest& hello);

  // --- Serving plane ----------------------------------------------------

  /// One round trip: ships the batch, returns the responses aligned
  /// index-for-index. Per-request failures ride in each response's
  /// status; the call itself fails only on transport/protocol errors.
  Result<std::vector<serving::DecideResponse>> DecideBatch(
      const std::vector<serving::DecideRequest>& requests);

  /// Line-splice variant of DecideBatch: ships pre-serialized request body
  /// lines verbatim and returns the response body lines without parsing
  /// the sheets. The response count is validated against the request
  /// count; a whole-batch error form surfaces as that Status. Exactly
  /// SendDecideBatchLines followed by ReceiveDecideBatchLines.
  Result<std::vector<std::string>> DecideBatchLines(
      const std::vector<std::string>& request_lines);

  /// DecideBatchLines's first half: ships the batch and returns without
  /// waiting for the answer, so one thread can put batches in flight on
  /// several connections before reading any (the router's fan-out). The
  /// next call on this client must be ReceiveDecideBatchLines.
  Status SendDecideBatchLines(const std::vector<std::string>& request_lines);

  /// DecideBatchLines's second half: reads the answer to the batch the
  /// last SendDecideBatchLines shipped, validated to hold `count` lines
  /// (that batch's request count).
  Result<std::vector<std::string>> ReceiveDecideBatchLines(size_t count);

  /// Single-request convenience over DecideBatch; the per-request status
  /// (e.g. NotFound) is folded into the returned Result.
  Result<market::OfferSheet> Decide(serving::CampaignId id,
                                    const market::DecisionRequest& request);

  // --- Control plane ----------------------------------------------------

  /// Ships `op` to the server's CampaignShardMap::Apply. Controller-backed
  /// admits cannot cross the wire (InvalidArgument).
  Result<serving::ControlOutcome> Apply(const serving::ControlOp& op);

  /// Apply's raw round trip (the router's forwarding path): ships a
  /// serialized control payload verbatim and returns the ack payload
  /// unparsed. The call fails only on transport/protocol errors.
  Result<std::string> ApplyPayload(const std::string& payload);

  /// Convenience wrappers over Apply, mirroring the control surface.
  Result<serving::CampaignId> AdmitShared(
      const std::shared_ptr<const engine::PolicyArtifact>& artifact,
      const serving::CampaignLimits& limits);
  Status SwapArtifactShared(
      serving::CampaignId id,
      const std::shared_ptr<const engine::PolicyArtifact>& artifact);
  Status Retire(serving::CampaignId id);
  Result<serving::CampaignState> Tick(serving::CampaignId id, double now_hours,
                                      int64_t remaining_tasks);

  /// Serializes a live campaign off the server for migration: the export
  /// response payload (id, limits and the artifact bytes), unparsed.
  Result<std::string> ExportPayload(serving::CampaignId id);

 private:
  struct Impl;
  explicit PricingClient(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Plays one remote campaign through the PricingController interface:
/// Decide forwards a one-request batch for the bound campaign id over the
/// borrowed client. The server rebases the request onto the campaign's
/// clock exactly as the in-process map does, so a session priced through
/// this controller draws the same offers bit-for-bit as a fleet session,
/// which decides through CampaignShardMap::Decide. Not thread-safe (the
/// client is single-stream); one session per client connection.
class RemoteController final : public market::PricingController {
 public:
  RemoteController(PricingClient* client, serving::CampaignId id)
      : client_(client), id_(id) {}

  Result<market::OfferSheet> Decide(
      const market::DecisionRequest& request) override {
    return client_->Decide(id_, request);
  }

 private:
  PricingClient* client_;
  serving::CampaignId id_;
};

}  // namespace crowdprice::net

#endif  // CROWDPRICE_NET_CLIENT_H_
