#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/tls_transport.h"
#include "util/macros.h"
#include "util/stringf.h"
#include "util/thread_pool.h"

namespace crowdprice::net {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const char* what) {
  return Status::Internal(StringF("%s: %s", what, std::strerror(errno)));
}

/// A connection whose unflushed output exceeds this is neither read nor
/// parsed until its peer drains it, so a client that pipelines without
/// reading holds at most this much output plus one read turn of input.
constexpr size_t kMaxUnflushedBytes = size_t{1} << 20;
/// Bytes per read call, and read calls per connection per wake-up before
/// the reactor turns to its other connections (epoll is level-triggered,
/// so a connection with bytes left is reported again).
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kReadsPerTurn = 16;
constexpr int kListenBacklog = 128;

/// epoll keys: a reactor's eventfd, the listening socket (reactor 0 only),
/// and then one id per connection, never reused within a run.
constexpr uint64_t kWakeKey = 0;
constexpr uint64_t kListenKey = 1;
constexpr uint64_t kFirstConnId = 2;

/// True when `given` equals `want`, in time that depends only on
/// want.size(): every byte of the secret is compared whatever the input,
/// and a length mismatch takes the same path as a content mismatch.
bool TokenMatches(std::string_view given, std::string_view want) {
  unsigned int diff = given.size() == want.size() ? 0 : 1;
  for (size_t i = 0; i < want.size(); ++i) {
    const char got = i < given.size() ? given[i] : '\0';
    diff |= static_cast<unsigned char>(got ^ want[i]);
  }
  return diff == 0;
}

/// One connection, owned outright by its reactor thread: the transport
/// (and with it the fd), both byte buffers, and the epoll interest.
struct Conn {
  uint64_t id = 0;  ///< The handle side-lane replies carry back.
  std::unique_ptr<Transport> transport;
  std::string in;
  size_t in_pos = 0;  ///< Bytes of `in` already consumed as frames.
  std::string out;
  size_t out_pos = 0;  ///< Bytes of `out` already written.
  uint32_t events = EPOLLIN;  ///< The interest registered with epoll.
  bool authed = false;  ///< A hello with the right token landed.
  /// A control or export frame is on the side lane. Nothing more of this
  /// connection is parsed or read until its reply is appended, so replies
  /// leave in request order.
  bool parked = false;
  /// TLS can demand the opposite readiness (a handshake step or a read
  /// mid-rekey needs the socket writable, a flush mid-rekey needs it
  /// readable); these flags re-arm the stalled direction.
  bool read_wants_write = false;
  bool write_wants_read = false;

  size_t unflushed() const { return out.size() - out_pos; }
  /// Neither read nor parsed (see kMaxUnflushedBytes and `parked`).
  bool blocked() const { return parked || unflushed() > kMaxUnflushedBytes; }

  void Append(std::string frame) {
    if (out.empty()) {
      out = std::move(frame);
    } else {
      out += frame;
    }
  }
};

/// What other threads hand a reactor: an accepted socket to adopt
/// (`fd` >= 0), or a side-lane reply -- one encoded frame -- for
/// connection `conn`.
struct Mail {
  int fd = -1;
  uint64_t conn = 0;
  std::string frame;
};

/// One reactor: an epoll set, the connections registered in it, and the
/// eventfd inbox other threads post to.
struct Reactor {
  int epoll_fd = -1;
  int wake_fd = -1;
  /// Connections assigned here and not yet closed: the acceptor hands each
  /// new connection to the reactor with the fewest.
  std::atomic<int> open{0};

  std::mutex inbox_mu;
  std::vector<Mail> inbox;

  // Reactor thread only.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  std::vector<Mail> mail;  ///< The inbox, taken.
  uint64_t next_id = kFirstConnId;

  std::thread thread;

  Reactor() = default;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The thread is joined (PricingServer::Stop) before a reactor dies;
  /// sockets still waiting in the inbox are closed here.
  ~Reactor() {
    for (const Mail& m : inbox) {
      if (m.fd >= 0) close(m.fd);
    }
    if (wake_fd >= 0) close(wake_fd);
    if (epoll_fd >= 0) close(epoll_fd);
  }

  /// Nudges the reactor out of epoll_wait. EINTR retries; EAGAIN --
  /// eventfd counter saturation -- means a wake is already pending, so
  /// nothing is lost.
  void Wake() {
    const uint64_t one = 1;
    for (;;) {
      if (write(wake_fd, &one, sizeof(one)) >= 0) return;
      if (errno == EINTR) continue;
      return;
    }
  }

  void Post(Mail m) {
    {
      std::lock_guard<std::mutex> lock(inbox_mu);
      inbox.push_back(std::move(m));
    }
    Wake();
  }
};

/// Decide batches with at least this many requests fan out per shard on
/// ThreadPool::Shared(); smaller ones answer inline on the reactor. A
/// fan-out pays a hand-off to pool workers and back, so it only pays off
/// on big batches.
constexpr size_t kPoolBatchThreshold = 256;

/// The CampaignShardMap adapter behind Create(map, ...). It decodes each
/// request line, decides, and encodes each response line. A line whose
/// body does not parse answers its own `err` line, so one bad request
/// never costs its neighbours their answers.
class MapSurface final : public ServingSurface {
 public:
  explicit MapSurface(serving::CampaignShardMap* map) : map_(map) {}

  bool DecideBatchLines(const std::vector<std::string>& request_lines,
                        std::vector<std::string>* response_lines) override {
    response_lines->assign(request_lines.size(), std::string());
    std::vector<serving::DecideRequest> requests;
    std::vector<size_t> slots;  // request_lines index of each request
    requests.reserve(request_lines.size());
    slots.reserve(request_lines.size());
    for (size_t i = 0; i < request_lines.size(); ++i) {
      Result<serving::DecideRequest> request =
          DeserializeDecideRequestLine(request_lines[i]);
      if (request.ok()) {
        requests.push_back(std::move(request).value());
        slots.push_back(i);
        continue;
      }
      const Result<serving::CampaignId> id =
          DecideLineCampaignId(request_lines[i]);
      if (!id.ok()) return false;
      (*response_lines)[i] = DecideErrorLine(*id, request.status());
    }
    const std::vector<serving::DecideResponse> responses = Decide(requests);
    for (size_t r = 0; r < responses.size(); ++r) {
      (*response_lines)[slots[r]] = SerializeDecideResponseLine(responses[r]);
    }
    return true;
  }

  Result<std::string> ApplyControlPayload(const std::string& payload) override {
    CP_ASSIGN_OR_RETURN(serving::ControlOp op, DeserializeControlOp(payload));
    return SerializeControlAck(map_->Apply(std::move(op)));
  }

  std::string ExportPayload(serving::CampaignId id) override {
    // The err form always serializes, so the .value() cannot throw away a
    // real export.
    Result<std::string> response =
        SerializeExportResponse(map_->ExportCampaign(id));
    if (!response.ok()) {
      return SerializeExportResponse(response.status()).value();
    }
    return std::move(response).value();
  }

 private:
  std::vector<serving::DecideResponse> Decide(
      const std::vector<serving::DecideRequest>& requests) {
    if (requests.size() >= kPoolBatchThreshold) {
      return map_->DecideBatch(requests);
    }
    // Each inline lookup is the map's wait-free RCU read path, so every
    // reactor prices concurrently with all the others and with any
    // in-flight control op.
    std::vector<serving::DecideResponse> responses(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i].campaign_id = requests[i].campaign_id;
      Result<market::OfferSheet> sheet =
          map_->Decide(requests[i].campaign_id, requests[i].request);
      if (sheet.ok()) {
        responses[i].sheet = std::move(sheet).value();
      } else {
        responses[i].status = sheet.status();
      }
    }
    return responses;
  }

  serving::CampaignShardMap* map_;
};

}  // namespace

struct PricingServer::Impl {
  ServingSurface* surface = nullptr;
  std::unique_ptr<ServingSurface> owned_surface;  // set for map-backed servers
  ServerOptions options;
  std::shared_ptr<TransportFactory> transport_factory;

  // --- run state (rebuilt by each Start) --------------------------------
  bool running = false;
  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::vector<std::unique_ptr<Reactor>> reactors;
  /// Control and export frames: an artifact decode or a router forward
  /// runs here, never on a reactor. Destroyed after the reactors stop and
  /// before they are freed, so every reply it posts finds its inbox.
  std::unique_ptr<ThreadPool> lane;

  /// Stop() called: no new accepts, reactors drain. drain_deadline is
  /// written before `stopping` is released and read after it is acquired.
  std::atomic<bool> stopping{false};
  Clock::time_point drain_deadline;

  // ServerStats (monotone across restarts).
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> decide_requests{0};
  std::atomic<uint64_t> control_ops{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> tls_handshake_failures{0};

  // --- frame handlers (reactor threads and the side lane) ---------------

  /// The one decide path: split the payload into lines, let the surface
  /// answer them, join the answers. A batch that cannot be split, or
  /// holds a line with no readable campaign id, answers the whole-batch
  /// InvalidArgument form.
  std::string HandleDecideBatch(const std::string& payload) {
    Result<std::vector<std::string>> lines =
        SplitDecideBatchPayload(payload, "decide batch");
    std::vector<std::string> response_lines;
    if (!lines.ok() || !surface->DecideBatchLines(*lines, &response_lines)) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return SerializeBatchError(Status::InvalidArgument(
          lines.ok() ? "decide batch: a line has no readable campaign id"
                     : lines.status().message()));
    }
    decide_requests.fetch_add(lines->size(), std::memory_order_relaxed);
    return JoinDecideBatchPayload(response_lines);
  }

  std::string HandleControl(const std::string& payload) {
    Result<std::string> ack = surface->ApplyControlPayload(payload);
    if (!ack.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return SerializeControlAck(ack.status());
    }
    control_ops.fetch_add(1, std::memory_order_relaxed);
    return std::move(ack).value();
  }

  std::string HandleExport(const std::string& payload) {
    Result<serving::CampaignId> id = DeserializeExportRequest(payload);
    if (!id.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      // The err form always serializes.
      return SerializeExportResponse(id.status()).value();
    }
    control_ops.fetch_add(1, std::memory_order_relaxed);
    return surface->ExportPayload(*id);
  }

  /// Validates a hello and flips the connection to authed on success.
  /// The verdict (not the parse status) rides back in the hello-ack.
  Status HandleHello(Conn& conn, const std::string& payload) {
    Result<HelloRequest> hello = DeserializeHelloRequest(payload);
    if (!hello.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return hello.status();
    }
    if (hello->version != kWireVersion) {
      return Status::FailedPrecondition(
          StringF("wire version skew: client speaks %u, server speaks %u",
                  static_cast<unsigned>(hello->version),
                  static_cast<unsigned>(kWireVersion)));
    }
    if (!options.auth_token.empty() &&
        !TokenMatches(hello->token, options.auth_token)) {
      return Status::Unauthenticated(hello->token.empty()
                                         ? "missing auth token"
                                         : "bad auth token");
    }
    conn.authed = true;
    return Status::OK();
  }

  bool Authed(const Conn& conn) const {
    return options.auth_token.empty() || conn.authed;
  }

  /// `payload` framed as `type`. A payload over the frame cap answers its
  /// plane's error form instead and counts one protocol error.
  std::string EncodeResponse(FrameType type, const std::string& payload) {
    Result<std::string> frame =
        EncodeFrame(type, payload, options.max_frame_bytes);
    if (!frame.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      frame = EncodeFrame(type,
                          type == FrameType::kControlResponse
                              ? SerializeControlAck(frame.status())
                              : SerializeBatchError(frame.status()),
                          options.max_frame_bytes);
    }
    return frame.ok() ? std::move(frame).value() : std::string();
  }

  /// Parks `conn` and runs its control or export frame on the side lane;
  /// the reply comes back through `reactor`'s inbox under the
  /// connection's id, so a connection closed meanwhile just drops it.
  void RunOnLane(Reactor& reactor, Conn& conn, FrameType type,
                 std::string payload) {
    conn.parked = true;
    lane->Submit([this, home = &reactor, id = conn.id, type,
                  payload = std::move(payload)] {
      Mail reply;
      reply.conn = id;
      reply.frame =
          type == FrameType::kControlRequest
              ? EncodeResponse(FrameType::kControlResponse,
                               HandleControl(payload))
              : EncodeResponse(FrameType::kExportResponse,
                               HandleExport(payload));
      home->Post(std::move(reply));
    });
  }

  void HandleFrame(Reactor& reactor, Conn& conn, FrameType type,
                   std::string payload) {
    const Status not_authed =
        Status::Unauthenticated("connection has not completed the hello "
                                "handshake");
    switch (type) {
      case FrameType::kDecideBatchRequest:
        conn.Append(EncodeResponse(FrameType::kDecideBatchResponse,
                                   Authed(conn)
                                       ? HandleDecideBatch(payload)
                                       : SerializeBatchError(not_authed)));
        return;
      case FrameType::kControlRequest:
        if (Authed(conn)) {
          RunOnLane(reactor, conn, type, std::move(payload));
        } else {
          conn.Append(EncodeResponse(FrameType::kControlResponse,
                                     SerializeControlAck(not_authed)));
        }
        return;
      case FrameType::kExportRequest:
        if (Authed(conn)) {
          RunOnLane(reactor, conn, type, std::move(payload));
        } else {
          conn.Append(
              EncodeResponse(FrameType::kExportResponse,
                             SerializeExportResponse(not_authed).value()));
        }
        return;
      case FrameType::kPingRequest:
        // Pings answer before auth: a health probe must not need
        // credentials, and a down-marking based on auth churn would be
        // wrong anyway.
        if (!DeserializePingRequest(payload).ok()) {
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        conn.Append(EncodeResponse(FrameType::kPingResponse,
                                   SerializePingResponse()));
        return;
      case FrameType::kHelloRequest:
        conn.Append(
            EncodeResponse(FrameType::kHelloResponse,
                           SerializeHelloAck(HandleHello(conn, payload))));
        return;
      default:
        // A client sent a response-type frame; answer its own plane's
        // error form so it can resync.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        conn.Append(EncodeResponse(
            FrameType::kControlResponse,
            SerializeControlAck(Status::InvalidArgument(
                "server received a response-type frame"))));
        return;
    }
  }

  // --- reactor side -----------------------------------------------------

  void UpdateInterest(Reactor& reactor, Conn& conn) {
    uint32_t events = 0;
    if (!conn.blocked() || conn.write_wants_read) events |= EPOLLIN;
    if (conn.unflushed() > 0 || conn.read_wants_write) events |= EPOLLOUT;
    if (events == conn.events) return;
    epoll_event event{};
    event.events = events;
    event.data.u64 = conn.id;
    epoll_ctl(reactor.epoll_fd, EPOLL_CTL_MOD, conn.transport->fd(), &event);
    conn.events = events;
  }

  void CloseConn(Reactor& reactor, uint64_t id) {
    const auto it = reactor.conns.find(id);
    if (it == reactor.conns.end()) return;
    const std::unique_ptr<Conn> conn = std::move(it->second);
    reactor.conns.erase(it);
    epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, conn->transport->fd(),
              nullptr);
    conn->transport->Shutdown();
    reactor.open.fetch_sub(1, std::memory_order_relaxed);
  }  // The transport's destructor closes the fd.

  /// Answers every complete frame in conn.in until the connection blocks.
  /// Returns false when the connection must close (an unframeable stream:
  /// a length-prefixed protocol has no way to resync).
  bool ParseFrames(Reactor& reactor, Conn& conn) {
    while (!conn.blocked() &&
           conn.in.size() - conn.in_pos >= kFrameHeaderBytes) {
      const char* at = conn.in.data() + conn.in_pos;
      const size_t available = conn.in.size() - conn.in_pos;
      const Result<FrameHeader> header =
          DecodeFrameHeader(at, available, options.max_frame_bytes);
      if (!header.ok()) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      const size_t total = kFrameHeaderBytes + header->payload_bytes;
      if (available < total) break;
      std::string payload(at + kFrameHeaderBytes, header->payload_bytes);
      conn.in_pos += total;
      frames_received.fetch_add(1, std::memory_order_relaxed);
      HandleFrame(reactor, conn, header->type, std::move(payload));
    }
    if (conn.in_pos == conn.in.size()) {
      conn.in.clear();
      conn.in_pos = 0;
    }
    return true;
  }

  /// Writes as much of conn.out as the transport takes. Returns false when
  /// the connection must close.
  bool Flush(Conn& conn) {
    conn.write_wants_read = false;
    while (conn.out_pos < conn.out.size()) {
      const IoResult result = conn.transport->Write(
          conn.out.data() + conn.out_pos, conn.out.size() - conn.out_pos);
      if (result.outcome == IoOutcome::kOk) {
        conn.out_pos += result.bytes;
        continue;
      }
      if (result.outcome == IoOutcome::kWantWrite) break;
      if (result.outcome == IoOutcome::kWantRead) {
        conn.write_wants_read = true;
        break;
      }
      return false;
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    } else if (conn.out_pos > conn.out.size() / 2) {
      conn.out.erase(0, conn.out_pos);
      conn.out_pos = 0;
    }
    return true;
  }

  /// Moves a ready connection as far as it goes without waiting: answers
  /// buffered frames, flushes, and reads more until the socket runs dry,
  /// the connection blocks, or its read turn is used up. Reading even
  /// without an EPOLLIN edge is deliberate: a TLS transport can hold
  /// bytes epoll cannot see (after the handshake's last step, or once a
  /// blocked connection resumes). Returns false when it must close.
  bool Serve(Reactor& reactor, Conn& conn) {
    char buf[kReadChunk];
    for (int reads = 0;; ++reads) {
      if (!ParseFrames(reactor, conn) || !Flush(conn)) return false;
      if (conn.blocked() || reads == kReadsPerTurn) break;
      conn.read_wants_write = false;
      const IoResult result = conn.transport->Read(buf, sizeof(buf));
      if (result.outcome == IoOutcome::kOk) {
        // Compact once per read, not once per frame.
        conn.in.erase(0, conn.in_pos);
        conn.in_pos = 0;
        conn.in.append(buf, result.bytes);
        continue;
      }
      if (result.outcome == IoOutcome::kWantWrite) {
        conn.read_wants_write = true;
      } else if (result.outcome != IoOutcome::kWantRead) {
        return false;  // closed or transport error
      }
      break;
    }
    UpdateInterest(reactor, conn);
    return true;
  }

  /// Advances a connection's transport handshake one non-blocking step.
  /// Returns false when the connection must close (the handshake failed
  /// -- a plaintext client against TLS, a rejected certificate).
  bool DriveHandshake(Conn& conn) {
    const IoResult result = conn.transport->Handshake();
    switch (result.outcome) {
      case IoOutcome::kOk:
      case IoOutcome::kWantRead:
        conn.read_wants_write = false;
        return true;
      case IoOutcome::kWantWrite:
        conn.read_wants_write = true;
        return true;
      default:
        tls_handshake_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
  }

  void OnEvent(Reactor& reactor, uint64_t id, uint32_t events) {
    const auto it = reactor.conns.find(id);
    if (it == reactor.conns.end()) return;
    Conn& conn = *it->second;
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConn(reactor, id);
      return;
    }
    if (!conn.transport->ready()) {
      if (!DriveHandshake(conn)) {
        CloseConn(reactor, id);
        return;
      }
      if (!conn.transport->ready()) {
        UpdateInterest(reactor, conn);
        return;
      }
    }
    if (!Serve(reactor, conn)) CloseConn(reactor, id);
  }

  /// Acceptor (reactor 0): hands each new connection to the reactor with
  /// the fewest open ones, so independent connections land on different
  /// reactors and a closed one frees its slot.
  void Accept() {
    for (;;) {
      const int fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or a transient error; poll again later
      const int nodelay = 1;
      // Response frames are small; Nagle would hold them for the ACK.
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      Reactor* least = reactors.front().get();
      for (const std::unique_ptr<Reactor>& reactor : reactors) {
        if (reactor->open.load(std::memory_order_relaxed) <
            least->open.load(std::memory_order_relaxed)) {
          least = reactor.get();
        }
      }
      least->open.fetch_add(1, std::memory_order_relaxed);
      Mail adopt;
      adopt.fd = fd;
      least->Post(std::move(adopt));
    }
  }

  void Adopt(Reactor& reactor, int fd) {
    auto conn = std::make_unique<Conn>();
    conn->transport = transport_factory->Wrap(fd);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = reactor.next_id;
    // A failed Wrap has closed the fd; a failed add leaves it to the
    // transport's destructor.
    if (conn->transport == nullptr ||
        epoll_ctl(reactor.epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      reactor.open.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    conn->id = reactor.next_id++;
    reactor.conns.emplace(conn->id, std::move(conn));
    connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }

  void DrainInbox(Reactor& reactor) {
    uint64_t drained;
    while (read(reactor.wake_fd, &drained, sizeof(drained)) > 0) {
    }
    {
      std::lock_guard<std::mutex> lock(reactor.inbox_mu);
      reactor.mail.swap(reactor.inbox);
    }
    for (Mail& mail : reactor.mail) {
      if (mail.fd >= 0) {
        Adopt(reactor, mail.fd);
        continue;
      }
      const auto it = reactor.conns.find(mail.conn);
      if (it == reactor.conns.end()) continue;  // Closed while its op ran.
      Conn& conn = *it->second;
      conn.Append(std::move(mail.frame));
      conn.parked = false;
      if (!Serve(reactor, conn)) CloseConn(reactor, mail.conn);
    }
    reactor.mail.clear();
  }

  /// Every connection has its answers on the wire and nothing on the lane.
  static bool Quiescent(const Reactor& reactor) {
    for (const auto& [id, conn] : reactor.conns) {
      if (conn->parked || conn->unflushed() > 0) return false;
    }
    return true;
  }

  void Run(Reactor& reactor, bool acceptor) {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    bool draining = false;
    for (;;) {
      const int n = epoll_wait(reactor.epoll_fd, events, kMaxEvents, 100);
      if (!draining && stopping.load(std::memory_order_acquire)) {
        draining = true;
        if (acceptor) epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, listen_fd,
                                nullptr);
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t key = events[i].data.u64;
        if (key == kWakeKey) {
          DrainInbox(reactor);
        } else if (key == kListenKey) {
          if (!draining) Accept();
        } else {
          OnEvent(reactor, key, events[i].events);
        }
      }
      // Stop(): parked ops finish and answers flush, bounded by the drain
      // deadline; then every connection closes.
      if (draining &&
          (Quiescent(reactor) || Clock::now() >= drain_deadline)) {
        break;
      }
    }
    while (!reactor.conns.empty()) {
      CloseConn(reactor, reactor.conns.begin()->first);
    }
  }
};

PricingServer::PricingServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

PricingServer::~PricingServer() {
  if (impl_ != nullptr && impl_->running) {
    const Status stopped = Stop();
    static_cast<void>(stopped);
  }
}

PricingServer::PricingServer(PricingServer&&) noexcept = default;
PricingServer& PricingServer::operator=(PricingServer&&) noexcept = default;

namespace {

Status ValidateOptions(const ServerOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument(
        StringF("num_workers must be >= 1; got %d", options.num_workers));
  }
  return Status::OK();
}

/// Plain TCP unless options.tls carries material; bad material (missing
/// key, unreadable files) fails here -- at Create -- not at Start.
Result<std::shared_ptr<TransportFactory>> MakeServerTransportFactory(
    const ServerOptions& options) {
  if (!options.tls.enabled()) return MakePlainTransportFactory();
  return MakeTlsServerTransportFactory(options.tls);
}

/// A reactor's epoll set with its eventfd registered.
Result<std::unique_ptr<Reactor>> MakeReactor() {
  auto reactor = std::make_unique<Reactor>();
  reactor->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (reactor->epoll_fd < 0) return Errno("epoll_create1");
  reactor->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (reactor->wake_fd < 0) return Errno("eventfd");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeKey;
  if (epoll_ctl(reactor->epoll_fd, EPOLL_CTL_ADD, reactor->wake_fd, &event) !=
      0) {
    return Errno("epoll_ctl");
  }
  return reactor;
}

}  // namespace

Result<PricingServer> PricingServer::Create(serving::CampaignShardMap* map,
                                            const ServerOptions& options) {
  if (map == nullptr) {
    return Status::InvalidArgument("map must not be null");
  }
  CP_RETURN_IF_ERROR(ValidateOptions(options));
  auto impl = std::make_unique<Impl>();
  impl->owned_surface = std::make_unique<MapSurface>(map);
  impl->surface = impl->owned_surface.get();
  impl->options = options;
  CP_ASSIGN_OR_RETURN(impl->transport_factory,
                      MakeServerTransportFactory(options));
  return PricingServer(std::move(impl));
}

Result<PricingServer> PricingServer::Create(ServingSurface* surface,
                                            const ServerOptions& options) {
  if (surface == nullptr) {
    return Status::InvalidArgument("surface must not be null");
  }
  CP_RETURN_IF_ERROR(ValidateOptions(options));
  auto impl = std::make_unique<Impl>();
  impl->surface = surface;
  impl->options = options;
  CP_ASSIGN_OR_RETURN(impl->transport_factory,
                      MakeServerTransportFactory(options));
  return PricingServer(std::move(impl));
}

Status PricingServer::Start() {
  if (impl_->running) {
    return Status::FailedPrecondition("server is already running");
  }
  const int listen_fd =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Errno("socket");
  const auto fail = [listen_fd](const Status& status) {
    close(listen_fd);
    return status;
  };
  const int reuse = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(impl_->options.port);
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(Errno("bind"));
  }
  if (listen(listen_fd, kListenBacklog) != 0) {
    return fail(Errno("listen"));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    return fail(Errno("getsockname"));
  }
  std::vector<std::unique_ptr<Reactor>> reactors;
  for (int i = 0; i < impl_->options.num_workers; ++i) {
    Result<std::unique_ptr<Reactor>> reactor = MakeReactor();
    if (!reactor.ok()) return fail(reactor.status());
    reactors.push_back(std::move(reactor).value());
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenKey;
  if (epoll_ctl(reactors.front()->epoll_fd, EPOLL_CTL_ADD, listen_fd,
                &event) != 0) {
    return fail(Errno("epoll_ctl"));
  }

  impl_->listen_fd = listen_fd;
  impl_->bound_port = ntohs(addr.sin_port);
  impl_->stopping.store(false, std::memory_order_release);
  impl_->reactors = std::move(reactors);
  impl_->lane = std::make_unique<ThreadPool>(impl_->options.num_workers,
                                            /*background=*/false);
  Impl* impl = impl_.get();
  for (size_t i = 0; i < impl_->reactors.size(); ++i) {
    Reactor* reactor = impl_->reactors[i].get();
    reactor->thread =
        std::thread([impl, reactor, i] { impl->Run(*reactor, i == 0); });
  }
  impl_->running = true;
  return Status::OK();
}

Status PricingServer::Stop() {
  if (!impl_->running) {
    return Status::FailedPrecondition("server is not running");
  }
  impl_->drain_deadline =
      Clock::now() + std::chrono::milliseconds(impl_->options.drain_timeout_ms);
  impl_->stopping.store(true, std::memory_order_release);
  for (const std::unique_ptr<Reactor>& reactor : impl_->reactors) {
    reactor->Wake();
  }
  for (const std::unique_ptr<Reactor>& reactor : impl_->reactors) {
    reactor->thread.join();
  }
  // Lane jobs still running past the drain deadline finish here; their
  // replies land in inboxes nobody reads.
  impl_->lane.reset();
  impl_->reactors.clear();
  close(impl_->listen_fd);
  impl_->listen_fd = -1;
  impl_->running = false;
  return Status::OK();
}

bool PricingServer::running() const { return impl_->running; }

uint16_t PricingServer::port() const { return impl_->bound_port; }

ServerStats PricingServer::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      impl_->connections_accepted.load(std::memory_order_relaxed);
  stats.frames_received =
      impl_->frames_received.load(std::memory_order_relaxed);
  stats.decide_requests =
      impl_->decide_requests.load(std::memory_order_relaxed);
  stats.control_ops = impl_->control_ops.load(std::memory_order_relaxed);
  stats.protocol_errors =
      impl_->protocol_errors.load(std::memory_order_relaxed);
  stats.tls_handshake_failures =
      impl_->tls_handshake_failures.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace crowdprice::net
