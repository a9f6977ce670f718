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
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/tls_transport.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StringF("%s: %s", what, std::strerror(errno)));
}

/// One connection. The event-loop thread owns the transport (and with
/// it the fd), the read buffer, and all epoll state; `mu` guards the
/// frame FIFO and the outgoing byte stream, which workers and the loop
/// share. Held by shared_ptr so a worker mid-frame keeps the struct
/// alive across a concurrent close.
struct Conn {
  int fd = -1;

  // Event-loop thread only.
  std::unique_ptr<Transport> transport;
  std::string in;
  bool write_armed = false;
  /// TLS read/write can demand the opposite readiness (a key update
  /// mid-read needs the socket writable, a flush mid-rekey needs it
  /// readable); these flags tell the loop to re-drive the stalled
  /// direction when the other edge fires.
  bool read_wants_write = false;
  bool write_wants_read = false;

  /// A well-formed hello with the right token landed on this connection.
  /// Atomic because consecutive frames of one connection may be drained
  /// by different workers over time.
  std::atomic<bool> authed{false};

  std::mutex mu;
  std::deque<std::pair<FrameType, std::string>> pending;  // parsed frames
  bool busy = false;  ///< A worker currently owns this conn's FIFO.
  std::string out;
  size_t out_pos = 0;
  bool dead = false;  ///< Closed; workers must stop appending output.
};

/// Decide batches with at least this many requests fan out per shard on
/// the map's serving pool; smaller ones answer inline on the handler
/// thread. Pool regions serialize across concurrent callers, so the pool
/// trades cross-connection concurrency for within-batch parallelism and
/// only pays off on big batches.
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
    // handler thread prices concurrently with all the others and with any
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
  int epoll_fd = -1;
  int wake_fd = -1;
  uint16_t bound_port = 0;
  std::thread loop_thread;
  std::vector<std::thread> workers;

  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // loop thread only

  // Worker handoff: connections with a non-empty FIFO and no owner.
  std::mutex work_mu;
  std::condition_variable work_cv;
  std::deque<std::shared_ptr<Conn>> work;

  // Connections with response bytes awaiting a flush by the loop thread.
  std::mutex flush_mu;
  std::vector<std::shared_ptr<Conn>> flush;

  std::atomic<bool> stopping{false};  ///< Stop() called: no new accepts.
  std::atomic<bool> shutdown{false};  ///< Drain done: threads exit.

  // Drain accounting: frames parsed but not yet answered, and response
  // bytes not yet on the wire. Stop() waits for both to reach zero.
  std::atomic<int64_t> frames_inflight{0};
  std::atomic<int64_t> bytes_unflushed{0};

  // ServerStats (monotone across restarts).
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> decide_requests{0};
  std::atomic<uint64_t> control_ops{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> tls_handshake_failures{0};

  /// Nudges the event loop out of epoll_wait. A lost wake would strand
  /// Stop() (or a queued flush) until the loop's next poll timeout, so
  /// the write result is not ignored: EINTR retries, and EAGAIN --
  /// eventfd counter saturation -- means the counter is already nonzero
  /// and the fd already readable, so the wake this call wanted is
  /// provably pending and nothing is lost.
  void Wake() {
    const uint64_t one = 1;
    for (;;) {
      if (write(wake_fd, &one, sizeof(one)) >= 0) return;
      if (errno == EINTR) continue;
      return;  // EAGAIN: a wake is already pending; anything else has
               // no retry story beyond the loop's bounded poll timeout.
    }
  }

  void EnqueueFlush(const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(flush_mu);
      flush.push_back(conn);
    }
    Wake();
  }

  // --- worker side ------------------------------------------------------

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
  Status HandleHello(const std::shared_ptr<Conn>& conn,
                     const std::string& payload) {
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
    if (!options.auth_token.empty() && hello->token != options.auth_token) {
      return Status::Unauthenticated(hello->token.empty()
                                         ? "missing auth token"
                                         : "bad auth token");
    }
    conn->authed.store(true, std::memory_order_release);
    return Status::OK();
  }

  bool Authed(const std::shared_ptr<Conn>& conn) const {
    return options.auth_token.empty() ||
           conn->authed.load(std::memory_order_acquire);
  }

  void HandleFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                   const std::string& payload) {
    const Status not_authed =
        Status::Unauthenticated("connection has not completed the hello "
                                "handshake");
    std::string response_payload;
    FrameType response_type;
    switch (type) {
      case FrameType::kDecideBatchRequest:
        response_type = FrameType::kDecideBatchResponse;
        response_payload = Authed(conn) ? HandleDecideBatch(payload)
                                        : SerializeBatchError(not_authed);
        break;
      case FrameType::kControlRequest:
        response_type = FrameType::kControlResponse;
        response_payload = Authed(conn) ? HandleControl(payload)
                                        : SerializeControlAck(not_authed);
        break;
      case FrameType::kExportRequest:
        response_type = FrameType::kExportResponse;
        response_payload =
            Authed(conn) ? HandleExport(payload)
                         : SerializeExportResponse(not_authed).value();
        break;
      case FrameType::kPingRequest:
        // Pings answer before auth: a health probe must not need
        // credentials, and a down-marking based on auth churn would be
        // wrong anyway.
        response_type = FrameType::kPingResponse;
        if (!DeserializePingRequest(payload).ok()) {
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        response_payload = SerializePingResponse();
        break;
      case FrameType::kHelloRequest:
        response_type = FrameType::kHelloResponse;
        response_payload = SerializeHelloAck(HandleHello(conn, payload));
        break;
      default:
        // A client sent a response-type frame; answer its own plane's
        // error form so it can resync.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        response_type = FrameType::kControlResponse;
        response_payload = SerializeControlAck(Status::InvalidArgument(
            "server received a response-type frame"));
        break;
    }
    Result<std::string> frame = EncodeFrame(response_type, response_payload,
                                            options.max_frame_bytes);
    if (!frame.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      frame = EncodeFrame(
          response_type,
          response_type == FrameType::kControlResponse
              ? SerializeControlAck(frame.status())
              : SerializeBatchError(frame.status()),
          options.max_frame_bytes);
    }
    bool flush_needed = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->dead && frame.ok()) {
        conn->out += *frame;
        bytes_unflushed.fetch_add(static_cast<int64_t>(frame->size()),
                                  std::memory_order_relaxed);
        flush_needed = true;
      }
    }
    frames_inflight.fetch_sub(1, std::memory_order_relaxed);
    if (flush_needed) EnqueueFlush(conn);
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Conn> conn;
      {
        std::unique_lock<std::mutex> lock(work_mu);
        work_cv.wait(lock, [&] {
          return !work.empty() || shutdown.load(std::memory_order_acquire);
        });
        if (work.empty()) return;  // shutdown and nothing left
        conn = std::move(work.front());
        work.pop_front();
      }
      // Drain this connection's FIFO in order; the idle -> busy edge in
      // the loop thread guarantees exactly one worker owns it at a time.
      for (;;) {
        std::pair<FrameType, std::string> frame;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->pending.empty()) {
            conn->busy = false;
            break;
          }
          frame = std::move(conn->pending.front());
          conn->pending.pop_front();
        }
        HandleFrame(conn, frame.first, frame.second);
      }
    }
  }

  // --- event-loop side --------------------------------------------------

  void ArmWrite(Conn* conn, bool enable) {
    if (conn->write_armed == enable) return;
    epoll_event event{};
    event.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
    event.data.fd = conn->fd;
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &event);
    conn->write_armed = enable;
  }

  void CloseConn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    std::shared_ptr<Conn> conn = it->second;
    conns.erase(it);
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->dead = true;
      const auto dropped =
          static_cast<int64_t>(conn->out.size() - conn->out_pos);
      if (dropped > 0) {
        bytes_unflushed.fetch_sub(dropped, std::memory_order_relaxed);
      }
      conn->out.clear();
      conn->out_pos = 0;
    }
    if (conn->transport != nullptr) {
      conn->transport->Shutdown();
      conn->transport.reset();  // closes the fd
    }
  }

  /// Writes as much of conn->out as the transport takes. Loop thread
  /// only.
  void TryFlush(const std::shared_ptr<Conn>& conn) {
    if (conn->transport == nullptr || !conn->transport->ready()) return;
    bool fatal = false;
    bool partial = false;
    conn->write_wants_read = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      while (conn->out_pos < conn->out.size()) {
        const IoResult result =
            conn->transport->Write(conn->out.data() + conn->out_pos,
                                   conn->out.size() - conn->out_pos);
        if (result.outcome == IoOutcome::kOk) {
          conn->out_pos += result.bytes;
          bytes_unflushed.fetch_sub(static_cast<int64_t>(result.bytes),
                                    std::memory_order_relaxed);
          continue;
        }
        if (result.outcome == IoOutcome::kWantWrite) {
          partial = true;
          break;
        }
        if (result.outcome == IoOutcome::kWantRead) {
          conn->write_wants_read = true;
          break;
        }
        fatal = true;
        break;
      }
      if (conn->out_pos == conn->out.size()) {
        conn->out.clear();
        conn->out_pos = 0;
      }
    }
    if (fatal) {
      CloseConn(conn->fd);
      return;
    }
    ArmWrite(conn.get(), partial || conn->read_wants_write);
  }

  /// Advances a connection's transport handshake one non-blocking step.
  /// Returns false when the connection must close (the handshake failed
  /// -- a plaintext client against TLS, a rejected certificate).
  bool DriveHandshake(const std::shared_ptr<Conn>& conn) {
    const IoResult result = conn->transport->Handshake();
    switch (result.outcome) {
      case IoOutcome::kOk:
        ArmWrite(conn.get(), false);
        return true;
      case IoOutcome::kWantRead:
        ArmWrite(conn.get(), false);
        return true;
      case IoOutcome::kWantWrite:
        ArmWrite(conn.get(), true);
        return true;
      default:
        tls_handshake_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
  }

  void Accept() {
    for (;;) {
      const int fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or a transient error; poll again later
      const int nodelay = 1;
      // Response frames are small; Nagle would hold them for the ACK.
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->transport = transport_factory->Wrap(fd);
      if (conn->transport == nullptr) continue;  // Wrap closed the fd.
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = fd;
      if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
        continue;  // transport destructor closes the fd
      }
      conns.emplace(fd, std::move(conn));
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Reads available bytes and hands every complete frame to the worker
  /// pool. Returns false when the connection should close.
  bool ReadFrames(const std::shared_ptr<Conn>& conn) {
    char buf[64 * 1024];
    conn->read_wants_write = false;
    for (;;) {
      const IoResult result = conn->transport->Read(buf, sizeof(buf));
      if (result.outcome == IoOutcome::kOk) {
        conn->in.append(buf, result.bytes);
        continue;
      }
      if (result.outcome == IoOutcome::kWantRead) break;
      if (result.outcome == IoOutcome::kWantWrite) {
        conn->read_wants_write = true;
        ArmWrite(conn.get(), true);
        break;
      }
      return false;  // closed or transport error
    }
    bool enqueue = false;
    while (conn->in.size() >= kFrameHeaderBytes) {
      Result<FrameHeader> header = DecodeFrameHeader(
          conn->in.data(), conn->in.size(), options.max_frame_bytes);
      if (!header.ok()) {
        // Unframeable stream: no way to resync a length-prefixed
        // protocol, so drop the connection.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      const size_t total = kFrameHeaderBytes + header->payload_bytes;
      if (conn->in.size() < total) break;
      std::string payload =
          conn->in.substr(kFrameHeaderBytes, header->payload_bytes);
      conn->in.erase(0, total);
      frames_received.fetch_add(1, std::memory_order_relaxed);
      frames_inflight.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->pending.emplace_back(header->type, std::move(payload));
      if (!conn->busy) {
        conn->busy = true;
        enqueue = true;
      }
    }
    if (enqueue) {
      {
        std::lock_guard<std::mutex> lock(work_mu);
        work.push_back(conn);
      }
      work_cv.notify_one();
    }
    return true;
  }

  void EventLoop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    bool accepting = true;
    while (!shutdown.load(std::memory_order_acquire)) {
      const int n = epoll_wait(epoll_fd, events, kMaxEvents, 100);
      if (accepting && stopping.load(std::memory_order_acquire)) {
        epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
        accepting = false;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd) {
          uint64_t drained;
          while (read(wake_fd, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        if (fd == listen_fd) {
          if (accepting) Accept();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        std::shared_ptr<Conn> conn = it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConn(fd);
          continue;
        }
        const bool readable = (events[i].events & EPOLLIN) != 0;
        const bool writable = (events[i].events & EPOLLOUT) != 0;
        bool just_ready = false;
        if (!conn->transport->ready()) {
          if (!DriveHandshake(conn)) {
            CloseConn(fd);
            continue;
          }
          if (!conn->transport->ready()) continue;  // still mid-handshake
          // The handshake's final read may have pulled early application
          // bytes into the transport's buffer, where epoll cannot see
          // them -- read once unconditionally.
          just_ready = true;
        }
        if ((readable || just_ready ||
             (writable && conn->read_wants_write)) &&
            !ReadFrames(conn)) {
          CloseConn(fd);
          continue;
        }
        if (writable || (readable && conn->write_wants_read)) {
          TryFlush(conn);
        }
      }
      // Flush responses workers queued since the last pass.
      std::vector<std::shared_ptr<Conn>> to_flush;
      {
        std::lock_guard<std::mutex> lock(flush_mu);
        to_flush.swap(flush);
      }
      for (const auto& conn : to_flush) {
        if (conns.count(conn->fd) != 0) TryFlush(conn);
      }
    }
    // Teardown: close every connection (drain already ran in Stop).
    std::vector<int> fds;
    fds.reserve(conns.size());
    for (const auto& [fd, conn] : conns) fds.push_back(fd);
    for (int fd : fds) CloseConn(fd);
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
  if (options.listen_backlog < 1) {
    return Status::InvalidArgument(
        StringF("listen_backlog must be >= 1; got %d",
                options.listen_backlog));
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
  const int reuse = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(impl_->options.port);
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind");
    close(listen_fd);
    return status;
  }
  if (listen(listen_fd, impl_->options.listen_backlog) != 0) {
    const Status status = Errno("listen");
    close(listen_fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    const Status status = Errno("getsockname");
    close(listen_fd);
    return status;
  }
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    const Status status = Errno("epoll_create1");
    close(listen_fd);
    return status;
  }
  const int wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    const Status status = Errno("eventfd");
    close(epoll_fd);
    close(listen_fd);
    return status;
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd;
  epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &event);
  event.data.fd = wake_fd;
  epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &event);

  impl_->listen_fd = listen_fd;
  impl_->epoll_fd = epoll_fd;
  impl_->wake_fd = wake_fd;
  impl_->bound_port = ntohs(addr.sin_port);
  impl_->stopping.store(false, std::memory_order_release);
  impl_->shutdown.store(false, std::memory_order_release);
  impl_->frames_inflight.store(0, std::memory_order_relaxed);
  impl_->bytes_unflushed.store(0, std::memory_order_relaxed);

  Impl* impl = impl_.get();
  impl_->loop_thread = std::thread([impl] { impl->EventLoop(); });
  impl_->workers.reserve(static_cast<size_t>(impl_->options.num_workers));
  for (int i = 0; i < impl_->options.num_workers; ++i) {
    impl_->workers.emplace_back([impl] { impl->WorkerLoop(); });
  }
  impl_->running = true;
  return Status::OK();
}

Status PricingServer::Stop() {
  if (!impl_->running) {
    return Status::FailedPrecondition("server is not running");
  }
  // Phase 1: no new connections.
  impl_->stopping.store(true, std::memory_order_release);
  impl_->Wake();
  // Phase 2: wait for in-flight frames to be answered and flushed.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(impl_->options.drain_timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (impl_->frames_inflight.load(std::memory_order_relaxed) == 0 &&
        impl_->bytes_unflushed.load(std::memory_order_relaxed) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear the loop down.
  impl_->shutdown.store(true, std::memory_order_release);
  impl_->Wake();
  impl_->work_cv.notify_all();
  impl_->loop_thread.join();
  for (std::thread& worker : impl_->workers) worker.join();
  impl_->workers.clear();
  {
    std::lock_guard<std::mutex> lock(impl_->work_mu);
    impl_->work.clear();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->flush_mu);
    impl_->flush.clear();
  }
  close(impl_->wake_fd);
  close(impl_->epoll_fd);
  close(impl_->listen_fd);
  impl_->wake_fd = impl_->epoll_fd = impl_->listen_fd = -1;
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
