// Remote serving tests: the network front-end must be a transparent skin
// over the in-process serving layer. Lifecycle misuse (double start/stop,
// post-stop traffic) is Status, never UB; Status codes cross the wire
// losslessly (a NotFound for an unknown campaign is NotFound at the
// client); concurrent connections share the wait-free read path; and the
// soak test replays a 256-campaign streaming schedule -- admits, hot
// swaps, and retirements mid-run -- through a loopback socket, asserting
// per-campaign outcomes bit-identical to FleetSimulator::RunStreaming on
// the same schedule. An adaptive admit solves its plan on the side lane,
// so another connection's decides never wait out that solve.
//
// The soak draws its campaign mix from CROWDPRICE_TEST_SEED when set (the
// CI matrix runs several seeds); the bit-identity property must hold for
// every seed. The TSan CI job runs this binary to certify the server's
// accept/decide/control/drain lanes are race-free.
//
// Two tests speak raw sockets to pin down the reactor contract: a client
// that pipelines decides and never reads is pushed back on (its sends
// stall) yet gets every answer in order once it reads, and a control op
// blocked on the side lane neither delays another connection's decides
// nor reorders its own connection's replies, and Stop() waits it out.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "market/fleet_simulator.h"
#include "market/session.h"
#include "market/simulator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "pricing/fixed_price.h"
#include "serving/campaign_shard_map.h"
#include "util/rng.h"

namespace crowdprice::net {
namespace {

using market::ArrivalSchedule;
using market::CampaignSession;
using market::FleetOutcome;
using market::FleetSimulator;
using market::Offer;
using market::SimulationResult;
using market::SimulatorConfig;

uint64_t TestSeed() {
  const char* env = std::getenv("CROWDPRICE_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 2026;
}

// Acceptance that is simply min(1, c / 100): cheap and price-sensitive.
class LinearAcceptance final : public choice::AcceptanceFunction {
 public:
  double ProbabilityAt(double reward_cents) const override {
    return std::clamp(reward_cents / 100.0, 0.0, 1.0);
  }
};

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

/// Wall-clock hours -> bucket-edge index, mirroring the fleet event
/// loop's quantization (round up; epsilon keeps on-edge times there).
int64_t EdgeCeil(double hours, double bucket) {
  const auto edge = static_cast<int64_t>(std::ceil(hours / bucket - 1e-9));
  return edge < 0 ? 0 : edge;
}

void ExpectBitIdentical(const SimulationResult& got,
                        const SimulationResult& want, int index) {
  EXPECT_EQ(got.total_cost_cents, want.total_cost_cents)
      << "campaign " << index;
  EXPECT_EQ(got.tasks_assigned, want.tasks_assigned) << "campaign " << index;
  EXPECT_EQ(got.tasks_completed_by_horizon, want.tasks_completed_by_horizon);
  EXPECT_EQ(got.tasks_unassigned, want.tasks_unassigned);
  EXPECT_EQ(got.completion_time_hours, want.completion_time_hours);
  EXPECT_EQ(got.finished, want.finished);
  EXPECT_EQ(got.worker_arrivals, want.worker_arrivals);
  ASSERT_EQ(got.events.size(), want.events.size()) << "campaign " << index;
  for (size_t e = 0; e < got.events.size(); ++e) {
    EXPECT_EQ(got.events[e].time_hours, want.events[e].time_hours);
    EXPECT_EQ(got.events[e].tasks, want.events[e].tasks);
    EXPECT_EQ(got.events[e].cost_cents, want.events[e].cost_cents);
    EXPECT_EQ(got.events[e].group_size, want.events[e].group_size);
  }
  ASSERT_EQ(got.workers.size(), want.workers.size()) << "campaign " << index;
  for (size_t w = 0; w < got.workers.size(); ++w) {
    EXPECT_EQ(got.workers[w].first_accept_hours,
              want.workers[w].first_accept_hours);
    EXPECT_EQ(got.workers[w].hits, want.workers[w].hits);
    EXPECT_EQ(got.workers[w].tasks, want.workers[w].tasks);
    EXPECT_EQ(got.workers[w].correct, want.workers[w].correct);
    EXPECT_EQ(got.workers[w].true_accuracy, want.workers[w].true_accuracy);
  }
}

TEST(RemoteServingTest, LifecycleMisuseIsStatusNotUB) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;  // Ephemeral.
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());

  EXPECT_FALSE(server->running());
  ASSERT_TRUE(server->Start().ok());
  EXPECT_TRUE(server->running());
  EXPECT_GT(server->port(), 0);

  // Double start and double stop are FailedPrecondition, not crashes.
  EXPECT_TRUE(server->Start().IsFailedPrecondition());
  ASSERT_TRUE(server->Stop().ok());
  EXPECT_FALSE(server->running());
  EXPECT_TRUE(server->Stop().IsFailedPrecondition());

  // The server restarts cleanly after a stop.
  ASSERT_TRUE(server->Start().ok());
  EXPECT_GT(server->port(), 0);
  ASSERT_TRUE(server->Stop().ok());

  // Creating a server over a null map is an error up front.
  EXPECT_TRUE(
      PricingServer::Create(static_cast<serving::CampaignShardMap*>(nullptr),
                            options)
          .status()
          .IsInvalidArgument());
}

TEST(RemoteServingTest, StatusCodesCrossTheWireLosslessly) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  auto client = PricingClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  // Unknown campaign: the map's NotFound survives the wire with its
  // code and message intact.
  market::DecisionRequest request = market::DecisionRequest::Single(1.0, 5);
  const auto decide = client->Decide(424242, request);
  ASSERT_FALSE(decide.ok());
  EXPECT_TRUE(decide.status().IsNotFound());
  EXPECT_FALSE(decide.status().message().empty());
  EXPECT_TRUE(client->Retire(424242).IsNotFound());
  EXPECT_TRUE(client->Tick(424242, 1.0, 5).status().IsNotFound());

  // An invalid admit (no tasks) is InvalidArgument end to end.
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  serving::CampaignLimits bad;
  bad.total_tasks = 0;
  bad.deadline_hours = 4.0;
  EXPECT_TRUE(client->AdmitShared(artifact, bad).status().IsInvalidArgument());

  // A mixed batch: per-request failures ride each response's status
  // while the batch round trip itself succeeds.
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  const auto id = client->AdmitShared(artifact, limits);
  ASSERT_TRUE(id.ok());
  std::vector<serving::DecideRequest> batch;
  batch.push_back(serving::DecideRequest::Single(*id, 1.0, 10));
  batch.push_back(serving::DecideRequest::Single(999999, 1.0, 10));
  const auto responses = client->DecideBatch(batch);
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), 2u);
  EXPECT_TRUE((*responses)[0].status.ok());
  EXPECT_FALSE((*responses)[0].sheet.offers.empty());
  EXPECT_TRUE((*responses)[1].status.IsNotFound());

  // The remote sheet is the in-process sheet, bit for bit.
  const auto local = map->Decide(*id, request);
  ASSERT_TRUE(local.ok());
  const auto remote = client->Decide(*id, request);
  ASSERT_TRUE(remote.ok());
  ASSERT_EQ(remote->offers.size(), local->offers.size());
  for (size_t i = 0; i < remote->offers.size(); ++i) {
    EXPECT_EQ(remote->offers[i].per_task_reward_cents,
              local->offers[i].per_task_reward_cents);
    EXPECT_EQ(remote->offers[i].group_size, local->offers[i].group_size);
  }

  ASSERT_TRUE(server->Stop().ok());

  // Post-stop traffic on the old connection errors; it must not crash.
  EXPECT_FALSE(client->Decide(*id, request).ok());
}

// Several connections hammer the decide path while the control plane
// admits and retires other campaigns through its own connection: the
// serve path answers concurrently off RCU snapshots, so the stable
// campaign's sheet never wavers. (The TSan job leans on this test.)
TEST(RemoteServingTest, ConcurrentConnectionsShareTheWaitFreeReadPath) {
  auto map = serving::CampaignShardMap::Create(4);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 4;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  auto control = PricingClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  const auto stable_id = control->AdmitShared(artifact, limits);
  ASSERT_TRUE(stable_id.ok());
  const market::DecisionRequest request =
      market::DecisionRequest::Single(1.0, 10);
  const auto want = map->Decide(*stable_id, request);
  ASSERT_TRUE(want.ok());

  constexpr int kThreads = 4;
  constexpr int kDecidesPerThread = 64;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      auto client = PricingClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kDecidesPerThread; ++i) {
        const auto sheet = client->Decide(*stable_id, request);
        if (!sheet.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (sheet->offers.size() != want->offers.size() ||
            sheet->offers[0].per_task_reward_cents !=
                want->offers[0].per_task_reward_cents) {
          mismatches.fetch_add(1);
        }
      }
      static_cast<void>(t);
    });
  }

  // Control churn concurrent with the reads: admit + retire a stream of
  // short-lived campaigns over a separate connection.
  for (int i = 0; i < 32; ++i) {
    const auto id = control->AdmitShared(artifact, limits);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(control->Retire(*id).ok());
  }
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kThreads + 1));
  EXPECT_GE(stats.decide_requests,
            static_cast<uint64_t>(kThreads * kDecidesPerThread));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(map->live_campaigns(), 1u);
  ASSERT_TRUE(server->Stop().ok());
}

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// An adaptive campaign's whole-horizon plan is solved when it is admitted,
// on the side lane, so its first decide is a lookup. With one reactor, a
// neighbour connection deciding throughout the admit and that first decide
// must never wait out the solve: its worst round trip stays well under the
// time the admitting connection spends.
TEST(RemoteServingTest, AdaptiveAdmitSolvesOffTheReactor) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  serving::CampaignLimits small_limits;
  small_limits.total_tasks = 20;
  small_limits.deadline_hours = 8.0;
  auto b = PricingClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(b.ok()) << b.status();
  const auto small_id = b->AdmitShared(
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact()),
      small_limits);
  ASSERT_TRUE(small_id.ok()) << small_id.status();

  engine::AdaptiveSpec spec;
  spec.problem.num_tasks = 4000;
  spec.problem.num_intervals = 1000;
  spec.problem.penalty_cents = 500.0;
  spec.believed_lambdas.assign(1000, 60.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(
                     50, choice::LogitAcceptance::Paper2014())
                     .value();
  spec.horizon_hours = 24.0;
  const auto adaptive = engine::Engine::Solve(spec);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  serving::CampaignLimits adaptive_limits;
  adaptive_limits.total_tasks = 4000;
  adaptive_limits.deadline_hours = 24.0;

  auto a = PricingClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(a.ok()) << a.status();

  // B decides in a loop from before A's admit until after A's first
  // decide answers. Nothing between here and the join may return early.
  std::atomic<bool> stop{false};
  std::atomic<int> b_decides{0};
  std::atomic<int> b_failures{0};
  double b_worst_ms = 0.0;
  std::thread neighbour([&] {
    const market::DecisionRequest request =
        market::DecisionRequest::Single(1.0, 10);
    while (!stop.load()) {
      const Clock::time_point sent = Clock::now();
      if (!b->Decide(*small_id, request).ok()) {
        b_failures.fetch_add(1);
        return;
      }
      b_worst_ms = std::max(b_worst_ms, MsSince(sent));
      b_decides.fetch_add(1);
    }
  });
  while (b_decides.load() < 8 && b_failures.load() == 0) {
    std::this_thread::yield();
  }

  const Clock::time_point admit_start = Clock::now();
  const auto adaptive_id = a->AdmitShared(
      std::make_shared<const engine::PolicyArtifact>(*adaptive),
      adaptive_limits);
  const double admit_ms = MsSince(admit_start);
  const Clock::time_point decide_start = Clock::now();
  const auto first = adaptive_id.ok()
                         ? a->Decide(*adaptive_id,
                                     market::DecisionRequest::Single(0.0, 4000))
                         : Result<market::OfferSheet>(adaptive_id.status());
  const double first_decide_ms = MsSince(decide_start);
  stop.store(true);
  neighbour.join();
  ASSERT_TRUE(adaptive_id.ok()) << adaptive_id.status();
  ASSERT_TRUE(first.ok()) << first.status();

  const double spent_ms = admit_ms + first_decide_ms;
  RecordProperty("admit_ms", std::to_string(admit_ms));
  RecordProperty("first_decide_ms", std::to_string(first_decide_ms));
  RecordProperty("neighbour_worst_ms", std::to_string(b_worst_ms));
  EXPECT_EQ(b_failures.load(), 0);
  // The solve is large enough to see...
  EXPECT_GE(spent_ms, 40.0) << "admit " << admit_ms << " ms + first decide "
                            << first_decide_ms << " ms";
  // ...and the neighbour never waited it out.
  EXPECT_LT(b_worst_ms, spent_ms / 4.0)
      << "neighbour's worst decide " << b_worst_ms << " ms; admit "
      << admit_ms << " ms + first decide " << first_decide_ms << " ms";
  ASSERT_TRUE(server->Stop().ok());
}

/// A blocking loopback TCP socket connected to `port`, or -1. Reads give
/// up after `recv_timeout_ms`, so a server that never answers fails the
/// test instead of hanging it.
int DialRaw(uint16_t port, int recv_timeout_ms = 10000) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  timeval timeout{};
  timeout.tv_sec = recv_timeout_ms / 1000;
  timeout.tv_usec = (recv_timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAllRaw(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool RecvAllRaw(int fd, char* out, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one whole frame off a blocking raw socket.
bool ReadFrameRaw(int fd, FrameType* type, std::string* payload) {
  char header_bytes[kFrameHeaderBytes];
  if (!RecvAllRaw(fd, header_bytes, kFrameHeaderBytes)) return false;
  const Result<FrameHeader> header = DecodeFrameHeader(
      header_bytes, kFrameHeaderBytes, kDefaultMaxFrameBytes);
  if (!header.ok()) return false;
  *type = header->type;
  payload->assign(header->payload_bytes, '\0');
  return RecvAllRaw(fd, payload->data(), payload->size());
}

// Regression: the server read every connection to EAGAIN and queued every
// answer, so a client that pipelined decides and never read grew server
// memory without bound. Now a connection whose unflushed answers pass a
// fixed cap is not read until its peer drains them: the client's sends
// must stall well before 32 MiB, and once it reads, every answer arrives,
// in order and correct.
TEST(RemoteServingTest, NeverReadingPipelinerIsBackpressured) {
  auto map = serving::CampaignShardMap::Create(2);
  ASSERT_TRUE(map.ok());
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  const auto admitted = map->Apply(serving::ControlOp::AdmitShared(
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact()),
      limits));
  ASSERT_TRUE(admitted.ok());
  const serving::CampaignId id = admitted->id;
  ServerOptions options;
  options.num_workers = 1;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());

  // Seven distinct 16-request frames, sent round-robin, so the answers'
  // order is checkable; each one's answer comes from the map in-process.
  constexpr size_t kVariants = 7;
  std::vector<std::string> frames;
  std::vector<std::string> want;
  for (size_t v = 0; v < kVariants; ++v) {
    std::vector<serving::DecideRequest> batch;
    std::vector<serving::DecideResponse> answers;
    for (int j = 0; j < 16; ++j) {
      batch.push_back(serving::DecideRequest::Single(
          id, 0.25 * static_cast<double>(v),
          1 + (static_cast<int>(v) * 16 + j) % 20));
      serving::DecideResponse answer;
      answer.campaign_id = id;
      const auto sheet = map->Decide(id, batch.back().request);
      ASSERT_TRUE(sheet.ok());
      answer.sheet = *sheet;
      answers.push_back(std::move(answer));
    }
    frames.push_back(EncodeFrame(FrameType::kDecideBatchRequest,
                                 SerializeDecideBatchRequest(batch),
                                 kDefaultMaxFrameBytes)
                         .value());
    want.push_back(SerializeDecideBatchResponse(answers));
  }

  const int fd = DialRaw(server->port());
  ASSERT_GE(fd, 0);
  constexpr size_t kCeiling = size_t{32} << 20;
  size_t sent = 0;
  size_t frames_sent = 0;
  size_t partial = 0;  // bytes of frames[frames_sent % kVariants] on the wire
  const auto send_some = [&] {
    const std::string& frame = frames[frames_sent % kVariants];
    const ssize_t n = ::send(fd, frame.data() + partial, frame.size() - partial,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) return n;
    sent += static_cast<size_t>(n);
    partial += static_cast<size_t>(n);
    if (partial == frame.size()) {
      ++frames_sent;
      partial = 0;
    }
    return n;
  };
  // The client paces itself, one 64 KiB burst per millisecond: a server
  // that buffers everything reads that much between bursts, so only a
  // server that stops reading can stall the sends. (Unpaced, a server that
  // buffers everything can still stall them while it works through a
  // multi-megabyte backlog in one go.)
  constexpr size_t kBurstBytes = 64 * 1024;
  size_t burst = 0;
  bool stalled = false;
  Clock::time_point stall_since{};
  while (sent < kCeiling) {
    if (burst >= kBurstBytes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      burst = 0;
    }
    const ssize_t n = send_some();
    if (n > 0) {
      burst += static_cast<size_t>(n);
      stall_since = Clock::time_point{};
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
        << std::strerror(errno);
    const Clock::time_point now = Clock::now();
    if (stall_since == Clock::time_point{}) stall_since = now;
    if (now - stall_since >= std::chrono::milliseconds(500)) {
      stalled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    burst = 0;
  }
  EXPECT_TRUE(stalled) << "the server took " << sent
                       << " pipelined bytes without pushing back";

  // Finish the frame the stall cut, then read every answer.
  const size_t expected = frames_sent + (partial > 0 ? 1 : 0);
  std::string in;
  size_t got = 0;
  char buf[64 * 1024];
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (got < expected && Clock::now() < deadline) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = static_cast<short>(POLLIN | (partial > 0 ? POLLOUT : 0));
    ASSERT_GE(::poll(&pfd, 1, 1000), 0);
    if (partial > 0 && (pfd.revents & POLLOUT) != 0) send_some();
    if ((pfd.revents & POLLIN) == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    ASSERT_GT(n, 0) << "the server closed the connection after " << got
                    << " answers";
    in.append(buf, static_cast<size_t>(n));
    size_t pos = 0;
    while (in.size() - pos >= kFrameHeaderBytes) {
      const Result<FrameHeader> header = DecodeFrameHeader(
          in.data() + pos, in.size() - pos, kDefaultMaxFrameBytes);
      ASSERT_TRUE(header.ok()) << header.status();
      if (in.size() - pos < kFrameHeaderBytes + header->payload_bytes) break;
      ASSERT_EQ(header->type, FrameType::kDecideBatchResponse);
      ASSERT_EQ(in.substr(pos + kFrameHeaderBytes, header->payload_bytes),
                want[got % kVariants])
          << "answer " << got;
      pos += kFrameHeaderBytes + header->payload_bytes;
      ++got;
    }
    in.erase(0, pos);
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
  ::close(fd);
  ASSERT_TRUE(server->Stop().ok());
}

/// A surface whose control ops block until the test releases them, one
/// release per op, and whose decides answer at once -- so where each op
/// runs, and the order replies leave in, shows on the wire.
class GatedSurface final : public ServingSurface {
 public:
  bool DecideBatchLines(const std::vector<std::string>& request_lines,
                        std::vector<std::string>* response_lines) override {
    response_lines->clear();
    for (const std::string& line : request_lines) {
      const Result<serving::CampaignId> id = DecideLineCampaignId(line);
      if (!id.ok()) return false;
      response_lines->push_back(Answer(*id));
    }
    return true;
  }

  Result<std::string> ApplyControlPayload(const std::string& payload) override {
    std::unique_lock<std::mutex> lock(mu_);
    const int ticket = ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ >= ticket; });
    return "ack " + payload;
  }

  std::string ExportPayload(serving::CampaignId) override { return ""; }

  static std::string Answer(serving::CampaignId id) {
    return DecideErrorLine(id, Status::NotFound("gated"));
  }

  /// Blocks until `count` control ops have started.
  void AwaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void Release(int through) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = std::max(released_, through);
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  int released_ = 0;
};

TEST(RemoteServingTest, ControlOpsRunBesideDecidesAndRepliesKeepOrder) {
  GatedSurface surface;
  ServerOptions options;
  options.num_workers = 1;
  auto server = PricingServer::Create(&surface, options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  // Declared after the server so it runs first on every exit path: a
  // failed assertion must not leave the server's Stop waiting on an op
  // nobody releases.
  struct ReleaseAll {
    GatedSurface* surface;
    ~ReleaseAll() { surface->Release(1 << 30); }
  } release_all{&surface};

  const std::vector<std::string> lines = {"request 7 body"};
  const std::string decide_frame =
      EncodeFrame(FrameType::kDecideBatchRequest,
                  JoinDecideBatchPayload(lines), kDefaultMaxFrameBytes)
          .value();
  const auto control_frame = [](const std::string& payload) {
    return EncodeFrame(FrameType::kControlRequest, payload,
                       kDefaultMaxFrameBytes)
        .value();
  };

  // A: a control frame and a decide in one write; the op blocks.
  const int a = DialRaw(server->port());
  ASSERT_GE(a, 0);
  ASSERT_TRUE(SendAllRaw(a, control_frame("control one") + decide_frame));
  surface.AwaitEntered(1);

  // B's decide is answered on the one reactor while A's op is blocked.
  ClientOptions quick;
  quick.io_timeout_ms = 2000;
  auto b = PricingClient::Connect("127.0.0.1", server->port(), quick);
  ASSERT_TRUE(b.ok()) << b.status();
  const auto answered = b->DecideBatchLines(lines);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(*answered, std::vector<std::string>{GatedSurface::Answer(7)});

  // Released, A's ack comes back first, then the decide sent behind it.
  surface.Release(1);
  FrameType type = FrameType::kPingResponse;
  std::string payload;
  ASSERT_TRUE(ReadFrameRaw(a, &type, &payload));
  EXPECT_EQ(type, FrameType::kControlResponse);
  EXPECT_EQ(payload, "ack control one");
  ASSERT_TRUE(ReadFrameRaw(a, &type, &payload));
  EXPECT_EQ(type, FrameType::kDecideBatchResponse);
  EXPECT_EQ(payload, JoinDecideBatchPayload({GatedSurface::Answer(7)}));

  // Stop() during a blocked op waits it out: A gets its ack, then the
  // close, and Stop returns OK.
  ASSERT_TRUE(SendAllRaw(a, control_frame("control two")));
  surface.AwaitEntered(2);
  std::atomic<bool> stopped{false};
  Status stop_status;
  std::thread stopper([&] {
    stop_status = server->Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(stopped.load());
  surface.Release(2);
  stopper.join();
  EXPECT_TRUE(stop_status.ok()) << stop_status;
  ASSERT_TRUE(ReadFrameRaw(a, &type, &payload));
  EXPECT_EQ(type, FrameType::kControlResponse);
  EXPECT_EQ(payload, "ack control two");
  char byte = 0;
  EXPECT_EQ(::recv(a, &byte, 1, 0), 0) << "the connection outlived Stop";
  ::close(a);
}

// The soak: a 256-campaign streaming schedule -- staggered admissions,
// hot artifact swaps, and mid-run retirements -- replayed through the
// loopback socket, one RemoteController-backed session per campaign,
// against the identical schedule run in-process by RunStreaming. Every
// SimulationResult field must match bit for bit, as must the lifecycle
// states, because the server rebases requests onto the campaign clock
// exactly as the in-process map does.
TEST(RemoteSoakTest, StreamingScheduleBitIdenticalOverLoopback) {
  const auto rate =
      arrival::PiecewiseConstantRate::Create({40.0, 20.0, 60.0, 30.0, 50.0},
                                             0.5)
          .value();
  const double bucket = 0.5;
  LinearAcceptance acceptance;
  const engine::PolicyArtifact solved = SmallDeadlineArtifact();
  const auto shared = std::make_shared<const engine::PolicyArtifact>(solved);
  pricing::FixedPriceSolution fixed;
  fixed.price_cents = 77;
  const auto swap_artifact = std::make_shared<const engine::PolicyArtifact>(
      engine::PolicyArtifact(fixed));
  constexpr int kCampaigns = 256;
  const uint64_t seed = TestSeed();

  struct Spec {
    SimulatorConfig config;
    double admit_hours = 0.0;
    double swap_hours = -1.0;    ///< < 0: no swap event.
    double retire_hours = -1.0;  ///< < 0: no retirement event.
  };
  std::vector<Spec> specs;
  {
    Rng scheduler(seed);
    for (int i = 0; i < kCampaigns; ++i) {
      Spec spec;
      spec.config.total_tasks = 3 + i % 7;
      spec.config.horizon_hours = 2.0 + 0.5 * (i % 4);
      spec.config.decision_interval_hours = 1.0;
      spec.config.service_minutes_per_task = (i % 5 == 0) ? 1.5 : 0.0;
      spec.admit_hours =
          0.5 * static_cast<double>(scheduler.UniformInt(0, 16));
      // Mid-life events on a slice of the fleet; some retirements land
      // after the natural end, exercising the finished-wins-tie rule.
      if (i % 4 == 1) spec.swap_hours = spec.admit_hours + 1.0;
      if (i % 5 == 2) {
        spec.retire_hours = spec.admit_hours + 1.0 + 0.5 * (i % 6);
      }
      specs.push_back(spec);
    }
  }

  // In-process reference: the same schedule through RunStreaming.
  std::vector<FleetOutcome> want;
  {
    FleetSimulator fleet = FleetSimulator::Create(4).value();
    ArrivalSchedule schedule;
    Rng master(seed + 1);
    for (const Spec& spec : specs) {
      Rng child = master.Fork();
      const size_t entry =
          schedule
              .AdmitShared(spec.admit_hours, shared, spec.config, acceptance,
                           child)
              .value();
      if (spec.swap_hours >= 0.0) {
        ASSERT_TRUE(
            schedule.SwapArtifactAt(entry, spec.swap_hours, swap_artifact)
                .ok());
      }
      if (spec.retire_hours >= 0.0) {
        ASSERT_TRUE(schedule.RetireAt(entry, spec.retire_hours).ok());
      }
    }
    want = fleet.RunStreaming(rate, std::move(schedule)).value();
    ASSERT_EQ(want.size(), specs.size());
  }

  // Remote replay: one session per campaign, priced across the wire.
  auto map = serving::CampaignShardMap::Create(4);
  ASSERT_TRUE(map.ok());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 4;
  auto server = PricingServer::Create(&map.value(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Start().ok());
  auto client = PricingClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  size_t want_event_retired = 0;
  Rng master(seed + 1);
  for (size_t i = 0; i < specs.size(); ++i) {
    const Spec& spec = specs[i];
    Rng child = master.Fork();
    const int64_t admit_edge = EdgeCeil(spec.admit_hours, bucket);
    const double admit_wall = static_cast<double>(admit_edge) * bucket;

    serving::CampaignLimits limits;
    limits.total_tasks = spec.config.total_tasks;
    limits.deadline_hours = spec.config.horizon_hours;
    limits.admit_hours = admit_wall;
    const auto id = client->AdmitShared(shared, limits);
    ASSERT_TRUE(id.ok()) << id.status().ToString();

    RemoteController controller(&client.value(), *id);
    auto session = CampaignSession::CreateAt(spec.config, rate, acceptance,
                                             controller, child, admit_wall);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    // Events fire at the same quantized edges the fleet loop uses, swap
    // before retire when both land on one edge (schedule emission order).
    struct Event {
      int64_t edge = 0;
      bool retire = false;
    };
    std::vector<Event> events;
    if (spec.swap_hours >= 0.0) {
      events.push_back(
          {std::max(EdgeCeil(spec.swap_hours, bucket), admit_edge), false});
    }
    if (spec.retire_hours >= 0.0) {
      events.push_back(
          {std::max(EdgeCeil(spec.retire_hours, bucket), admit_edge), true});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.edge < b.edge;
                     });

    bool event_retired = false;
    serving::CampaignState final_state = serving::CampaignState::kLive;
    for (const Event& event : events) {
      const double edge_wall = static_cast<double>(event.edge) * bucket;
      ASSERT_TRUE(session->AdvanceUntil(edge_wall).ok());
      // A campaign that completes or expires on (or before) the event's
      // edge wins the tie: the event is skipped, as in the fleet loop.
      if (session->done()) break;
      if (event.retire) {
        ASSERT_TRUE(client->Retire(*id).ok());
        ASSERT_TRUE(session->Curtail(edge_wall).ok());
        final_state = serving::CampaignState::kRetiredExplicit;
        event_retired = true;
        break;
      }
      ASSERT_TRUE(client->SwapArtifactShared(*id, swap_artifact).ok());
      // No client-side rebind: the RemoteController tracks the campaign
      // id, and the server already decides off the swapped policy.
    }
    if (!event_retired) {
      ASSERT_TRUE(session->AdvanceUntil(session->end_hours()).ok());
      const auto ticked = client->Tick(*id, session->end_hours(),
                                       session->remaining_tasks());
      ASSERT_TRUE(ticked.ok()) << ticked.status().ToString();
      final_state = *ticked;
    } else {
      ++want_event_retired;
    }

    const auto got = std::move(session.value()).TakeResult();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want[i].admit_hours, admit_wall) << "campaign " << i;
    EXPECT_EQ(want[i].final_state, final_state) << "campaign " << i;
    ExpectBitIdentical(*got, want[i].result, static_cast<int>(i));
  }

  // Lifecycle churn reconciles with the reference run.
  size_t reference_event_retired = 0;
  for (const FleetOutcome& outcome : want) {
    if (outcome.final_state == serving::CampaignState::kRetiredExplicit) {
      ++reference_event_retired;
    }
  }
  EXPECT_EQ(want_event_retired, reference_event_retired);
  EXPECT_EQ(map->live_campaigns(), 0u);
  const serving::ShardStats total = map->TotalStats();
  EXPECT_EQ(total.admitted, specs.size());
  EXPECT_EQ(total.retired_explicit, want_event_retired);
  EXPECT_EQ(total.retired_completed + total.retired_deadline +
                total.retired_explicit,
            specs.size());
  EXPECT_GT(total.decides, 0u);
  ASSERT_TRUE(server->Stop().ok());
}

}  // namespace
}  // namespace crowdprice::net
