// PricingServer: the network front-end over a ServingSurface (a
// CampaignShardMap, or the router's multi-node placement layer).
//
// crowdprice_serve exposes the surface's two planes over TCP (net/wire.h
// frames):
//
//   - Serving plane: a kDecideBatchRequest payload is split into its body
//     lines and answered through ServingSurface::DecideBatchLines, the
//     one decide path for every surface, on the reactor that read the
//     frame. Over a shard map, each line is decoded, decided and encoded
//     there: batches under 256 requests walk CampaignShardMap::Decide per
//     request -- an RCU-guarded pointer chase with no locks -- so N
//     connections price concurrently and a control op on one shard never
//     stalls anyone, while bigger batches fan out per shard on
//     ThreadPool::Shared().
//   - Control plane: a kControlRequest payload goes to
//     ServingSurface::ApplyControlPayload as it arrived, and the ack
//     payload it returns goes back as it is. Over a shard map the payload
//     decodes to a serving::ControlOp and funnels into
//     CampaignShardMap::Apply (the same single writer surface
//     ArrivalSchedule events use); the outcome, or the server-side Status
//     (NotFound included), rides back in the ack. The router forwards the
//     payload to the owning backend instead, so only the node that applies
//     an artifact ever decodes it. kExportRequest frames answer
//     ServingSurface::ExportPayload, a live campaign serialized for
//     migration; kPingRequest frames answer pong without touching the
//     surface (health probes).
//
// Auth: with ServerOptions::auth_token set, a connection must open with a
// kHelloRequest carrying the matching token before any decide, control,
// or export frame is honored -- violations answer Unauthenticated in the
// offending frame's own error form, and a hello with the wrong wire
// version answers FailedPrecondition. Pings are always allowed (probes
// must stay cheap and credential-free). The token is compared in constant
// time: every byte of it, whatever the hello carries, and a wrong length
// fails the same way as a wrong byte.
//
// Architecture: `num_workers` reactor threads, each with its own epoll set
// and the connections assigned to it. A reactor reads, reassembles frames,
// answers decide, ping and hello frames inline, and writes the answer, so
// a decide is read, decided, encoded and written on one thread. Reactor 0
// also accepts, handing each new connection to the reactor with the fewest
// open ones (least-connections: independent connections land on different
// reactors, and a closed connection frees its slot). Control and export
// frames run on a side lane (a ThreadPool of its own as wide as the
// reactors, at normal priority), so a multi-millisecond artifact decode,
// an adaptive campaign's initial plan solve (built with its controller at
// admit) or a router forward never stalls the decides on a reactor. While
// its op runs the connection is parked -- no further frame of it is parsed
// and its socket is not read -- and the lane posts the encoded reply back to
// the owning reactor's eventfd inbox (the same inbox the acceptor hands
// sockets over by) under the connection's id, so replies leave in request
// order on every connection and a reply for a connection that has since
// closed is dropped.
//
// Backpressure: a connection whose unflushed output passes a fixed 1 MiB
// is neither read nor parsed until its peer drains it, so a client that
// pipelines without reading stalls in its own send buffer instead of
// growing the server's memory. Input is consumed by offset and compacted
// once per read.
//
// Transport: every connection's bytes cross a pluggable net::Transport
// -- plain TCP by default, TLS (net/tls_transport.h) when
// ServerOptions::tls carries cert material. Each reactor drives its
// connections' TLS handshakes through their WANT_READ/WANT_WRITE states
// like any other readiness edge, so one connection mid-handshake never
// blocks another's traffic; a connection whose handshake fails
// (plaintext client, bad certificate) is counted in
// tls_handshake_failures and closed -- never a crash, and the peer sees a
// clean close rather than a hang.
//
// Lifecycle: Start/Stop return Status (double start, double stop, and
// socket errors are errors, never UB) and the pair may be repeated. Stop
// is graceful: it stops accepting, then each reactor drains its own
// connections -- parked ops finish and their answers flush, bounded by
// drain_timeout_ms -- and closes them. A lane op still running at the
// deadline is waited out, its reply dropped.
//
// Malformed traffic never crashes the server: an unframeable byte stream
// (bad magic/version/oversized length) counts in
// ServerStats::protocol_errors and closes that connection; a well-framed
// but unparseable payload gets an error response on the wire and counts
// one protocol error on the node that could not read it (a control
// payload whose artifact is corrupt counts on the backend that decodes
// it, not on the router that forwarded it). In a decide
// batch, a line with a readable campaign id but a bad body answers its
// own `response <id> err` line (InvalidArgument) and the rest of the
// batch is decided as usual; a batch that cannot be split, or holds a
// line with no readable campaign id, answers the whole-batch `err` form
// (InvalidArgument) and counts one protocol error.

#ifndef CROWDPRICE_NET_SERVER_H_
#define CROWDPRICE_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"
#include "net/wire.h"
#include "serving/campaign_shard_map.h"
#include "util/result.h"

namespace crowdprice::net {

/// What a PricingServer fronts: a decide plane, a control plane, and the
/// migration export hook, each in wire payloads (net/wire.h) so that a
/// surface may forward bytes it never decodes. CampaignShardMap satisfies
/// it via the adapter inside PricingServer::Create(map, ...), which
/// decodes, applies and encodes; router::CampaignRouter implements it
/// directly as a byte-level proxy, which is how the router speaks the same
/// frame protocol to its own clients that it speaks to its backends.
/// Implementations must be safe to call from many threads at once.
/// DecideBatchLines runs on the reactor that read the frame, holding that
/// reactor's other connections for its duration; the control and export
/// methods run on the side lane.
class ServingSurface {
 public:
  virtual ~ServingSurface() = default;

  /// Answers a decide batch in wire body lines (net/wire.h, no trailing
  /// newlines): on true, `*response_lines` holds exactly one response
  /// line per request line, in request order. A line with a readable
  /// campaign id (DecideLineCampaignId) always gets its own answer --
  /// a bad body, an unknown campaign or an unreachable owner rides in
  /// that line's `err` status. False means some line has no readable
  /// campaign id; the server then answers the whole batch InvalidArgument.
  virtual bool DecideBatchLines(const std::vector<std::string>& request_lines,
                                std::vector<std::string>* response_lines) = 0;

  /// Applies one kControlRequest payload (a net/wire.h `control ...`
  /// stanza) and returns the kControlResponse payload: the ack for the
  /// applied outcome, or the err ack for a verdict such as NotFound. A
  /// non-OK result means the payload is unreadable; the server then answers
  /// the err ack and counts one protocol error.
  virtual Result<std::string> ApplyControlPayload(
      const std::string& payload) = 0;

  /// The kExportResponse payload for campaign `id`: its `export ok` form,
  /// or the `export err` form carrying why it cannot be exported.
  virtual std::string ExportPayload(serving::CampaignId id) = 0;
};

struct ServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back via
  /// port() after Start).
  uint16_t port = 0;
  /// Reactor threads (each owns the connections assigned to it and
  /// answers their decides inline); the side lane that runs control and
  /// export frames is as wide. At least 1.
  int num_workers = 4;
  /// Reject frames whose payload exceeds this many bytes.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Stop(): how long each reactor waits for parked ops to finish and
  /// answers to flush before closing its connections anyway.
  int drain_timeout_ms = 5000;
  /// Shared-secret token. Empty disables auth; otherwise every
  /// connection must hello with exactly this token first (see the file
  /// comment).
  std::string auth_token;
  /// TLS material (see net/transport.h): cert_file + key_file switch
  /// the wire to TLS; ca_file additionally demands client certificates.
  /// All-empty keeps plain TCP. Bad material fails Create, not Start.
  TlsOptions tls;
};

/// Monotone counters over the server's lifetime (across restarts).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;   ///< Well-framed frames read.
  uint64_t decide_requests = 0;   ///< Individual decide requests answered.
  uint64_t control_ops = 0;       ///< Readable control + export frames.
  uint64_t protocol_errors = 0;   ///< Unframeable streams + bad payloads.
  /// Connections dropped because the transport handshake failed (a
  /// plaintext client against a TLS server, a rejected certificate).
  uint64_t tls_handshake_failures = 0;
};

class PricingServer {
 public:
  /// Borrows `map`, which must outlive the server. Validates options.
  static Result<PricingServer> Create(serving::CampaignShardMap* map,
                                      const ServerOptions& options = {});

  /// Borrows an explicit surface (the router's entry point), which must
  /// outlive the server.
  static Result<PricingServer> Create(ServingSurface* surface,
                                      const ServerOptions& options = {});

  ~PricingServer();  ///< Stops the server if running.
  PricingServer(PricingServer&&) noexcept;
  PricingServer& operator=(PricingServer&&) noexcept;
  PricingServer(const PricingServer&) = delete;
  PricingServer& operator=(const PricingServer&) = delete;

  /// Binds, listens, and spawns the reactors and the side lane.
  /// FailedPrecondition if already running; Internal on socket errors.
  Status Start();

  /// Graceful shutdown (see file comment). FailedPrecondition if not
  /// running. After Stop returns, Start may be called again.
  Status Stop();

  bool running() const;

  /// The bound TCP port; 0 before the first successful Start.
  uint16_t port() const;

  ServerStats stats() const;

 private:
  struct Impl;
  explicit PricingServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdprice::net

#endif  // CROWDPRICE_NET_SERVER_H_
