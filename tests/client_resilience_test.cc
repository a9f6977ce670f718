// PricingClient resilience: the transport layer must degrade to clean
// Status errors -- never a hang, never UB -- when the socket misbehaves.
// A trickle proxy forwards traffic a few bytes per syscall over tiny
// kernel buffers, forcing short reads and throttled writes on every
// frame; a mid-response cut simulates a server dying with a batch in
// flight; a dead port is Unavailable at Connect; and Reconnect() rides
// one client object across a server restart on the same port.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/campaign_shard_map.h"

namespace crowdprice::net {
namespace {

engine::PolicyArtifact SmallDeadlineArtifact() {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 8;
  spec.problem.penalty_cents = 150.0;
  spec.interval_lambdas.assign(8, 60.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(
                     30, choice::LogitAcceptance::Paper2014())
                     .value();
  return engine::Engine::Solve(spec).value();
}

serving::CampaignLimits SmallLimits() {
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  return limits;
}

/// Reserves a TCP port by binding an ephemeral socket and closing it.
/// The port is very likely still free moments later in a test container.
uint16_t ReserveLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// A single-connection TCP proxy that forwards at most `chunk` bytes per
/// syscall in each direction over deliberately tiny kernel buffers, so
/// the client's SendAll/RecvAll loops see short reads and throttled
/// writes on every frame. With `cut_client_after >= 0` the proxy closes
/// both sides after forwarding that many response bytes to the client --
/// a server dying mid-batch, as observed from the client's socket.
class TrickleProxy {
 public:
  TrickleProxy(uint16_t backend_port, int chunk, long cut_client_after = -1,
               int response_delay_ms = 0)
      : backend_port_(backend_port),
        chunk_(chunk),
        cut_client_after_(cut_client_after),
        response_delay_ms_(response_delay_ms) {}

  ~TrickleProxy() { Stop(); }

  bool Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // Tiny buffers (the kernel clamps to its floor) keep the client's
    // writes from completing in one gulp even for large frames.
    const int small = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1) != 0) {
      ::close(listen_fd_);
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    pump_ = std::thread([this] { Pump(); });
    return true;
  }

  void Stop() {
    stop_.store(true);
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (pump_.joinable()) pump_.join();
  }

  uint16_t port() const { return port_; }

 private:
  static bool SendAll(int fd, const char* data, size_t size) {
    size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  void Pump() {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) return;
    const int backend = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(backend_port_);
    if (backend < 0 ||
        ::connect(backend, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(client);
      if (backend >= 0) ::close(backend);
      return;
    }

    long to_client = 0;
    std::vector<char> buffer(static_cast<size_t>(chunk_));
    while (!stop_.load()) {
      fd_set readable;
      FD_ZERO(&readable);
      FD_SET(client, &readable);
      FD_SET(backend, &readable);
      timeval tv{};
      tv.tv_usec = 100 * 1000;  // Re-check the stop flag every 100ms.
      const int ready =
          ::select(std::max(client, backend) + 1, &readable, nullptr,
                   nullptr, &tv);
      if (ready < 0) break;
      if (ready == 0) continue;
      if (FD_ISSET(client, &readable)) {
        const ssize_t n = ::recv(client, buffer.data(), buffer.size(), 0);
        if (n <= 0 || !SendAll(backend, buffer.data(),
                               static_cast<size_t>(n))) {
          break;
        }
      }
      if (FD_ISSET(backend, &readable)) {
        ssize_t n = ::recv(backend, buffer.data(), buffer.size(), 0);
        if (n <= 0) break;
        if (cut_client_after_ >= 0 && to_client + n > cut_client_after_) {
          // Forward the final allowed bytes, then die mid-frame.
          SendAll(client, buffer.data(),
                  static_cast<size_t>(cut_client_after_ - to_client));
          break;
        }
        if (!SendAll(client, buffer.data(), static_cast<size_t>(n))) break;
        to_client += n;
        if (response_delay_ms_ > 0) {
          // A slow-but-alive server: every response chunk arrives after
          // a pause shorter than the client's idle deadline.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(response_delay_ms_));
        }
      }
    }
    ::close(client);
    ::close(backend);
  }

  uint16_t backend_port_;
  int chunk_;
  long cut_client_after_;
  int response_delay_ms_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread pump_;
};

TEST(ClientResilienceTest, LargeBatchSurvivesThrottledSocket) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  // Every byte of every frame -- the admit's artifact payload included --
  // crosses the proxy at most three bytes per syscall.
  TrickleProxy proxy(server->port(), /*chunk=*/3);
  ASSERT_TRUE(proxy.Start());
  auto client = PricingClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(client.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto id = client->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(id.ok()) << id.status();

  std::vector<serving::DecideRequest> batch;
  for (int i = 0; i < 96; ++i) {
    batch.push_back(
        serving::DecideRequest::Single(*id, 0.25 * (i % 8), 1 + i % 20));
  }
  const auto responses = client->DecideBatch(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE((*responses)[i].status.ok()) << (*responses)[i].status;
    const auto direct = map->Decide(*id, batch[i].request);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ((*responses)[i].sheet.offers.size(), direct->offers.size());
    for (size_t o = 0; o < direct->offers.size(); ++o) {
      EXPECT_EQ((*responses)[i].sheet.offers[o].per_task_reward_cents,
                direct->offers[o].per_task_reward_cents);
    }
  }
  proxy.Stop();
  ASSERT_TRUE(server->Stop().ok());
}

TEST(ClientResilienceTest, ServerGoneMidBatchIsUnavailableNotAHang) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  // Admit over a direct connection; the campaign is live server-side.
  auto direct = PricingClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(direct.ok());
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto id = direct->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(id.ok());

  // The proxy dies 20 bytes into the response: a full header promising a
  // payload that never arrives.
  TrickleProxy proxy(server->port(), /*chunk=*/5, /*cut_client_after=*/20);
  ASSERT_TRUE(proxy.Start());
  auto client = PricingClient::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(client.ok());

  std::vector<serving::DecideRequest> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back(serving::DecideRequest::Single(*id, 1.0, 5));
  }
  const auto start = std::chrono::steady_clock::now();
  const auto responses = client->DecideBatch(batch);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(responses.ok());
  EXPECT_TRUE(responses.status().IsUnavailable()) << responses.status();
  // "No hang": the truncation is detected the moment the socket closes.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            8);

  // The connection is dead but the object is healthy: further calls are
  // clean errors too.
  EXPECT_FALSE(client->Ping().ok());
  proxy.Stop();
  ASSERT_TRUE(server->Stop().ok());
}

TEST(ClientResilienceTest, ConnectionRefusedIsUnavailable) {
  const uint16_t dead_port = ReserveLoopbackPort();
  const auto client = PricingClient::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsUnavailable()) << client.status();
}

TEST(ClientResilienceTest, BlackholedConnectIsUnavailableAtTheDeadline) {
  // A listener whose accept queue is full silently drops further SYNs
  // (Linux default), so the dial gets no answer at all -- a local
  // blackhole. (An unrouted remote address is no good here: sandboxed
  // environments may intercept it.) Before the non-blocking connect,
  // this dial blocked for the kernel's SYN-retry horizon (minutes);
  // now only connect_timeout_ms ends it.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  // Fill the accept queue with connections nobody will ever accept.
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ClientOptions options;
  options.connect_timeout_ms = 250;
  const auto start = std::chrono::steady_clock::now();
  const auto client = PricingClient::Connect(
      "127.0.0.1", ntohs(addr.sin_port), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsUnavailable()) << client.status();
  // Generous bound: the point is "the deadline, not the SYN horizon".
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
  for (const int fd : fillers) ::close(fd);
  ::close(listener);
}

/// Accepts one connection, reads and discards everything, never writes
/// a byte, and keeps the socket open -- a wedged server, as a probe
/// sees it.
class WedgedServer {
 public:
  ~WedgedServer() { Stop(); }

  bool Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1) != 0) {
      ::close(listen_fd_);
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    // The thread keeps its own copy of the fd: Stop() resets listen_fd_
    // while the thread may still be reading it.
    drain_ = std::thread([listen_fd = listen_fd_] {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) return;
      char sink[4096];
      while (::recv(conn, sink, sizeof(sink), 0) > 0) {
      }
      ::close(conn);
    });
    return true;
  }

  void Stop() {
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (drain_.joinable()) drain_.join();
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread drain_;
};

TEST(ClientResilienceTest, WedgedServerHitsTheIdleDeadlineNotForever) {
  // Regression: the recv loop had no deadline, so a server that
  // accepted a probe and then never answered wedged the caller (the
  // router's probe thread) indefinitely.
  WedgedServer wedged;
  ASSERT_TRUE(wedged.Start());
  ClientOptions options;
  options.io_timeout_ms = 300;
  auto client = PricingClient::Connect("127.0.0.1", wedged.port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto start = std::chrono::steady_clock::now();
  const Status pong = client->Ping();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(pong.ok());
  EXPECT_TRUE(pong.IsUnavailable()) << pong;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
}

TEST(ClientResilienceTest, TricklingButAliveIsNotATimeout) {
  // The flip side of the idle deadline: a server whose response arrives
  // one byte per pause -- each pause shorter than io_timeout_ms, the
  // whole response far longer -- must succeed. The deadline is idle
  // time, not call time.
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  TrickleProxy proxy(server->port(), /*chunk=*/1, /*cut_client_after=*/-1,
                     /*response_delay_ms=*/60);
  ASSERT_TRUE(proxy.Start());
  ClientOptions client_options;
  client_options.io_timeout_ms = 500;
  auto client =
      PricingClient::Connect("127.0.0.1", proxy.port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client->Ping().ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The pong (header + payload) really did trickle: the call outlived
  // several idle deadlines' worth of wall clock.
  EXPECT_GT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            500);
  proxy.Stop();
  ASSERT_TRUE(server->Stop().ok());
}

TEST(ClientResilienceTest, StopUnderLoadNeverMissesItsWakeup) {
  // Regression for the ignored eventfd write: under sustained load,
  // Stop()'s wake could in principle be dropped, leaving Stop to ride
  // poll timeouts. Stop must return promptly -- bounded by the drain
  // timeout plus scheduling slack -- across repeated start/stop cycles
  // with traffic in flight.
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  options.drain_timeout_ms = 2000;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());

  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(server->Start().ok());
    std::atomic<bool> stop{false};
    std::vector<std::thread> load;
    for (int t = 0; t < 4; ++t) {
      load.emplace_back([&stop, port = server->port()] {
        ClientOptions client_options;
        client_options.connect_timeout_ms = 2000;
        client_options.io_timeout_ms = 2000;
        auto client = PricingClient::Connect("127.0.0.1", port,
                                             client_options);
        while (!stop.load(std::memory_order_acquire)) {
          if (!client.ok() || !client->Ping().ok()) break;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(server->Stop().ok());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              options.drain_timeout_ms + 8000)
        << "cycle " << cycle;
    stop.store(true, std::memory_order_release);
    for (std::thread& thread : load) thread.join();
  }
}

TEST(ClientResilienceTest, ReconnectRidesOutAServerRestart) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = ReserveLoopbackPort();  // Fixed, so a restart reuses it.
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  auto client = PricingClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto id = client->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(id.ok());

  // The server goes away: in-flight calls fail Unavailable, Reconnect
  // fails Unavailable (refused), and both may be retried.
  ASSERT_TRUE(server->Stop().ok());
  EXPECT_TRUE(client->Ping().IsUnavailable());
  EXPECT_TRUE(client->Reconnect().IsUnavailable());
  EXPECT_FALSE(client->connected());

  // The server returns on the same port (the map kept every campaign);
  // one Reconnect makes the same client object whole again.
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_TRUE(client->connected());
  EXPECT_TRUE(client->Ping().ok());
  const auto sheet =
      client->Decide(*id, market::DecisionRequest::Single(1.0, 5));
  ASSERT_TRUE(sheet.ok()) << sheet.status();
  EXPECT_FALSE(sheet->offers.empty());

  // An explicit Close is also recoverable -- Reconnect is idempotent
  // over how the connection was lost.
  client->Close();
  EXPECT_FALSE(client->connected());
  EXPECT_TRUE(client->Ping().IsFailedPrecondition());
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_TRUE(client->Ping().ok());
  ASSERT_TRUE(server->Stop().ok());
}

}  // namespace
}  // namespace crowdprice::net
