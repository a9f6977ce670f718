#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/tls_transport.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::net {

namespace {

using Clock = std::chrono::steady_clock;

/// A poll deadline: `armed == false` waits forever.
struct Deadline {
  bool armed = false;
  Clock::time_point at;

  static Deadline After(int timeout_ms) {
    Deadline deadline;
    if (timeout_ms > 0) {
      deadline.armed = true;
      deadline.at = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
    return deadline;
  }

  /// Milliseconds left (clamped at 0), or -1 when unarmed.
  int RemainingMs() const {
    if (!armed) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          at - Clock::now())
                          .count();
    return left < 0 ? 0 : static_cast<int>(left);
  }
};

/// Blocks until `fd` is ready for `events` or the deadline passes.
/// Timeout and poll failures are both Unavailable: from the caller's
/// seat the peer is unreachable either way.
Status Await(int fd, short events, const Deadline& deadline,
             const char* what) {
  for (;;) {
    const int remaining = deadline.RemainingMs();
    if (deadline.armed && remaining == 0) {
      return Status::Unavailable(StringF("%s timed out", what));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = poll(&pfd, 1, remaining);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::Unavailable(StringF("%s timed out", what));
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(
        StringF("%s: poll: %s", what, std::strerror(errno)));
  }
}

}  // namespace

struct PricingClient::Impl {
  std::shared_ptr<TransportFactory> factory;
  std::unique_ptr<Transport> transport;
  std::string host;
  uint16_t port = 0;
  ClientOptions options;

  bool connected() const { return transport != nullptr; }

  void Close() {
    if (transport != nullptr) {
      transport->Shutdown();
      transport.reset();
    }
  }

  /// Runs one non-blocking transport step to completion under the idle
  /// deadline: kWant* waits for the socket, kOk returns. Terminal
  /// outcomes surface as the transport's own Status (kClosed as
  /// Unavailable).
  Status Step(const IoResult& result, Deadline* idle, const char* what) {
    switch (result.outcome) {
      case IoOutcome::kOk:
        *idle = Deadline::After(options.io_timeout_ms);
        return Status::OK();
      case IoOutcome::kWantRead:
        return Await(transport->fd(), POLLIN, *idle, what);
      case IoOutcome::kWantWrite:
        return Await(transport->fd(), POLLOUT, *idle, what);
      case IoOutcome::kClosed:
        return Status::Unavailable(
            StringF("%s: connection closed by server", what));
      case IoOutcome::kError:
        return result.status;
    }
    return Status::Internal("unreachable");
  }

  Status SendAll(const std::string& bytes) {
    size_t sent = 0;
    Deadline idle = Deadline::After(options.io_timeout_ms);
    while (sent < bytes.size()) {
      const IoResult result =
          transport->Write(bytes.data() + sent, bytes.size() - sent);
      CP_RETURN_IF_ERROR(Step(result, &idle, "send"));
      sent += result.bytes;
    }
    return Status::OK();
  }

  Status RecvAll(char* out, size_t size) {
    size_t got = 0;
    Deadline idle = Deadline::After(options.io_timeout_ms);
    while (got < size) {
      const IoResult result = transport->Read(out + got, size - got);
      CP_RETURN_IF_ERROR(Step(result, &idle, "recv"));
      got += result.bytes;
    }
    return Status::OK();
  }

  Status SendFrame(FrameType type, const std::string& payload) {
    if (!connected()) {
      return Status::FailedPrecondition("client is not connected");
    }
    CP_ASSIGN_OR_RETURN(std::string frame,
                        EncodeFrame(type, payload, options.max_frame_bytes));
    return SendAll(frame);
  }

  /// Reads one frame; validates its type.
  Result<std::string> ReceiveFrame(FrameType response_type) {
    if (!connected()) {
      return Status::FailedPrecondition("client is not connected");
    }
    char header_bytes[kFrameHeaderBytes];
    CP_RETURN_IF_ERROR(RecvAll(header_bytes, kFrameHeaderBytes));
    CP_ASSIGN_OR_RETURN(FrameHeader header,
                        DecodeFrameHeader(header_bytes, kFrameHeaderBytes,
                                          options.max_frame_bytes));
    if (header.type != response_type) {
      return Status::Internal(
          StringF("unexpected response frame type %u",
                  static_cast<unsigned>(header.type)));
    }
    std::string response(header.payload_bytes, '\0');
    if (header.payload_bytes > 0) {
      CP_RETURN_IF_ERROR(RecvAll(response.data(), response.size()));
    }
    return response;
  }

  /// One request/response round trip.
  Result<std::string> RoundTrip(FrameType request_type,
                                const std::string& payload,
                                FrameType response_type) {
    CP_RETURN_IF_ERROR(SendFrame(request_type, payload));
    return ReceiveFrame(response_type);
  }

  /// Non-blocking connect bounded by the dial deadline. Returns the
  /// connected fd; a black-holed backend is Unavailable when the
  /// deadline passes, never an indefinite hang.
  Result<int> ConnectSocket(const Deadline& deadline) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(
          StringF("'%s' is not a numeric IPv4 address", host.c_str()));
    }
    const int fd =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return ErrnoStatus("socket");
    const int nodelay = 1;
    // Small decide frames must not eat Nagle delay waiting for an ACK.
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      const Status status = ErrnoStatus("connect");
      close(fd);
      return status;
    }
    const Status awaited = Await(fd, POLLOUT, deadline, "connect");
    if (!awaited.ok()) {
      close(fd);
      return awaited;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      errno = err != 0 ? err : errno;
      const Status status = ErrnoStatus("connect");
      close(fd);
      return status;
    }
    return fd;
  }

  /// Drives the transport handshake (TLS, or the plain no-op) to
  /// completion under the dial deadline.
  Status HandshakeBlocking(const Deadline& deadline) {
    for (;;) {
      const IoResult result = transport->Handshake();
      switch (result.outcome) {
        case IoOutcome::kOk:
          return Status::OK();
        case IoOutcome::kWantRead:
          CP_RETURN_IF_ERROR(
              Await(transport->fd(), POLLIN, deadline, "handshake"));
          break;
        case IoOutcome::kWantWrite:
          CP_RETURN_IF_ERROR(
              Await(transport->fd(), POLLOUT, deadline, "handshake"));
          break;
        case IoOutcome::kClosed:
          return Status::Unavailable(
              "connection closed by server during handshake");
        case IoOutcome::kError:
          return result.status;
      }
    }
  }

  /// Dials host:port, runs the transport handshake, then (when a token
  /// is configured) the hello handshake. On any failure the connection
  /// ends up closed.
  Status Dial() {
    const Deadline deadline = Deadline::After(options.connect_timeout_ms);
    CP_ASSIGN_OR_RETURN(const int fd, ConnectSocket(deadline));
    transport = factory->Wrap(fd);
    if (transport == nullptr) {
      return Status::Internal("transport setup failed");
    }
    Status handshake = HandshakeBlocking(deadline);
    if (handshake.ok() && !options.auth_token.empty()) {
      HelloRequest hello;
      hello.token = options.auth_token;
      handshake = DoHello(hello);
    }
    if (!handshake.ok()) {
      Close();
      return handshake;
    }
    return Status::OK();
  }

  Status DoHello(const HelloRequest& hello) {
    CP_ASSIGN_OR_RETURN(
        std::string ack,
        RoundTrip(FrameType::kHelloRequest, SerializeHelloRequest(hello),
                  FrameType::kHelloResponse));
    Status verdict;
    CP_RETURN_IF_ERROR(DeserializeHelloAck(ack, &verdict));
    return verdict;
  }
};

PricingClient::PricingClient(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

PricingClient::~PricingClient() = default;
PricingClient::PricingClient(PricingClient&&) noexcept = default;
PricingClient& PricingClient::operator=(PricingClient&&) noexcept = default;

Result<PricingClient> PricingClient::Connect(const std::string& host,
                                             uint16_t port,
                                             const ClientOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->host = host;
  impl->port = port;
  impl->options = options;
  if (options.tls.enabled()) {
    CP_ASSIGN_OR_RETURN(impl->factory,
                        MakeTlsClientTransportFactory(options.tls));
  } else {
    impl->factory = MakePlainTransportFactory();
  }
  CP_RETURN_IF_ERROR(impl->Dial());
  return PricingClient(std::move(impl));
}

bool PricingClient::connected() const {
  return impl_ != nullptr && impl_->connected();
}

void PricingClient::Close() {
  if (impl_ != nullptr) impl_->Close();
}

Status PricingClient::Reconnect() {
  Close();
  return impl_->Dial();
}

Status PricingClient::Ping() {
  CP_ASSIGN_OR_RETURN(
      std::string pong,
      impl_->RoundTrip(FrameType::kPingRequest, SerializePingRequest(),
                       FrameType::kPingResponse));
  return DeserializePingResponse(pong);
}

Status PricingClient::Hello(const HelloRequest& hello) {
  return impl_->DoHello(hello);
}

Result<std::vector<serving::DecideResponse>> PricingClient::DecideBatch(
    const std::vector<serving::DecideRequest>& requests) {
  CP_ASSIGN_OR_RETURN(
      std::string payload,
      impl_->RoundTrip(FrameType::kDecideBatchRequest,
                       SerializeDecideBatchRequest(requests),
                       FrameType::kDecideBatchResponse));
  CP_ASSIGN_OR_RETURN(std::vector<serving::DecideResponse> responses,
                      DeserializeDecideBatchResponse(payload));
  if (responses.size() != requests.size()) {
    return Status::Internal(
        StringF("batch response holds %zu entries for %zu requests",
                responses.size(), requests.size()));
  }
  return responses;
}

Result<std::vector<std::string>> PricingClient::DecideBatchLines(
    const std::vector<std::string>& request_lines) {
  CP_RETURN_IF_ERROR(SendDecideBatchLines(request_lines));
  return ReceiveDecideBatchLines(request_lines.size());
}

Status PricingClient::SendDecideBatchLines(
    const std::vector<std::string>& request_lines) {
  return impl_->SendFrame(FrameType::kDecideBatchRequest,
                          JoinDecideBatchPayload(request_lines));
}

Result<std::vector<std::string>> PricingClient::ReceiveDecideBatchLines(
    size_t count) {
  CP_ASSIGN_OR_RETURN(std::string payload,
                      impl_->ReceiveFrame(FrameType::kDecideBatchResponse));
  CP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                      SplitDecideBatchPayload(payload, "batch response"));
  if (lines.size() != count) {
    return Status::Internal(
        StringF("batch response holds %zu lines for %zu requests",
                lines.size(), count));
  }
  return lines;
}

Result<market::OfferSheet> PricingClient::Decide(
    serving::CampaignId id, const market::DecisionRequest& request) {
  serving::DecideRequest wire_request;
  wire_request.campaign_id = id;
  wire_request.request = request;
  CP_ASSIGN_OR_RETURN(std::vector<serving::DecideResponse> responses,
                      DecideBatch({wire_request}));
  serving::DecideResponse& response = responses.front();
  CP_RETURN_IF_ERROR(response.status);
  return std::move(response.sheet);
}

Result<serving::ControlOutcome> PricingClient::Apply(
    const serving::ControlOp& op) {
  CP_ASSIGN_OR_RETURN(const std::string payload, SerializeControlOp(op));
  CP_ASSIGN_OR_RETURN(const std::string ack, ApplyPayload(payload));
  return DeserializeControlAck(ack);
}

Result<std::string> PricingClient::ApplyPayload(const std::string& payload) {
  return impl_->RoundTrip(FrameType::kControlRequest, payload,
                          FrameType::kControlResponse);
}

Result<serving::CampaignId> PricingClient::AdmitShared(
    const std::shared_ptr<const engine::PolicyArtifact>& artifact,
    const serving::CampaignLimits& limits) {
  CP_ASSIGN_OR_RETURN(
      const serving::ControlOutcome outcome,
      Apply(serving::ControlOp::AdmitShared(artifact, limits)));
  return outcome.id;
}

Status PricingClient::SwapArtifactShared(
    serving::CampaignId id,
    const std::shared_ptr<const engine::PolicyArtifact>& artifact) {
  return Apply(serving::ControlOp::SwapArtifactShared(id, artifact)).status();
}

Status PricingClient::Retire(serving::CampaignId id) {
  return Apply(serving::ControlOp::Retire(id)).status();
}

Result<serving::CampaignState> PricingClient::Tick(serving::CampaignId id,
                                                   double now_hours,
                                                   int64_t remaining_tasks) {
  CP_ASSIGN_OR_RETURN(
      const serving::ControlOutcome outcome,
      Apply(serving::ControlOp::Tick(id, now_hours, remaining_tasks)));
  return outcome.state;
}

Result<std::string> PricingClient::ExportPayload(serving::CampaignId id) {
  return impl_->RoundTrip(FrameType::kExportRequest, SerializeExportRequest(id),
                          FrameType::kExportResponse);
}

}  // namespace crowdprice::net
