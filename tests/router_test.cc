// CampaignRouter tests: placement is deterministic and minimally
// disruptive; routed decides are bit-identical to direct backend decides
// through the full client -> router server -> backend stack; the control
// plane routes by owner; a killed backend fails over to clean Unavailable
// responses (never a crash or hang) and health probes mark it down; a
// backend restarted under a live connection costs its slice one retry,
// not an answer; concurrent batches over overlapping backends neither
// deadlock nor mix answers; and the frame-layer auth handshake gates both
// sides. The TSan CI job runs this binary to certify the fan-out and
// health lanes are race-free.

#include "router/router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "pricing/fixed_price.h"
#include "router/placement.h"
#include "serving/campaign_shard_map.h"

namespace crowdprice::router {
namespace {

using net::PricingClient;
using net::PricingServer;
using net::ServerOptions;
using serving::CampaignId;
using serving::CampaignLimits;
using serving::CampaignState;
using serving::ControlOp;
using serving::DecideRequest;
using serving::DecideResponse;

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

CampaignLimits SmallLimits() {
  CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  return limits;
}

/// One live backend: a shard map fronted by a loopback PricingServer.
struct Backend {
  std::unique_ptr<serving::CampaignShardMap> map;
  std::unique_ptr<PricingServer> server;
  std::string name;  ///< "127.0.0.1:<port>" -- the placement name.

  static Backend Start(const std::string& auth_token = "") {
    Backend backend;
    backend.map = std::make_unique<serving::CampaignShardMap>(
        serving::CampaignShardMap::Create(2).value());
    ServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.auth_token = auth_token;
    backend.server = std::make_unique<PricingServer>(
        PricingServer::Create(backend.map.get(), options).value());
    EXPECT_TRUE(backend.server->Start().ok());
    backend.name = "127.0.0.1:" + std::to_string(backend.server->port());
    return backend;
  }
};

/// Decides `requests` through the router's line surface -- the one decide
/// path every server uses -- and decodes the spliced answers.
std::vector<DecideResponse> RouteDecides(
    CampaignRouter& router, const std::vector<DecideRequest>& requests) {
  const std::vector<std::string> lines =
      net::SplitDecideBatchPayload(net::SerializeDecideBatchRequest(requests),
                                   "batch")
          .value();
  std::vector<std::string> answers;
  EXPECT_TRUE(router.DecideBatchLines(lines, &answers));
  return net::DeserializeDecideBatchResponse(
             net::JoinDecideBatchPayload(answers))
      .value();
}

/// Pool options tuned for tests: no background probes (ProbeNow drives
/// them), one quick retry, tiny backoff so failover asserts run fast.
BackendPoolOptions TestPoolOptions() {
  BackendPoolOptions options;
  options.probe_interval_ms = 0;
  options.down_after_failures = 2;
  options.max_attempts = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  return options;
}

TEST(PlacementTableTest, DeterministicAndMinimallyDisruptive) {
  const std::vector<std::string> three = {"a:1", "b:1", "c:1"};
  const PlacementTable table = PlacementTable::Create(three, 1).value();
  // Same inputs, same owners -- regardless of list order.
  const PlacementTable shuffled =
      PlacementTable::Create({"c:1", "a:1", "b:1"}, 2).value();
  std::map<std::string, int> owners;
  for (CampaignId id = 1; id <= 1000; ++id) {
    const std::string owner = table.OwnerOf(id).value();
    EXPECT_EQ(owner, shuffled.OwnerOf(id).value()) << "id " << id;
    ++owners[owner];
  }
  // Every backend owns a healthy share (rendezvous spreads uniformly).
  ASSERT_EQ(owners.size(), 3u);
  for (const auto& [name, count] : owners) {
    EXPECT_GT(count, 200) << name;
    EXPECT_LT(count, 500) << name;
  }

  // Removing one backend moves exactly its campaigns; nobody else shifts.
  const PlacementTable without_c =
      PlacementTable::Create({"a:1", "b:1"}, 3).value();
  for (CampaignId id = 1; id <= 1000; ++id) {
    const std::string before = table.OwnerOf(id).value();
    const std::string after = without_c.OwnerOf(id).value();
    if (before != "c:1") {
      EXPECT_EQ(after, before) << "id " << id;
    } else {
      EXPECT_NE(after, "c:1");
    }
  }
  // Adding one moves only what the newcomer wins.
  const PlacementTable with_d =
      PlacementTable::Create({"a:1", "b:1", "c:1", "d:1"}, 4).value();
  for (CampaignId id = 1; id <= 1000; ++id) {
    const std::string after = with_d.OwnerOf(id).value();
    if (after != "d:1") {
      EXPECT_EQ(after, table.OwnerOf(id).value());
    }
  }

  // Validation: empty names, duplicates, empty-table lookups.
  EXPECT_TRUE(PlacementTable::Create({""}, 1).status().IsInvalidArgument());
  EXPECT_TRUE(
      PlacementTable::Create({"a:1", "a:1"}, 1).status().IsInvalidArgument());
  EXPECT_TRUE(PlacementTable().OwnerOf(1).status().IsFailedPrecondition());
}

TEST(CampaignRouterTest, RoutedDecidesAreBitIdenticalToDirectDecides) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  Backend b2 = Backend::Start();
  std::vector<Backend*> backends = {&b0, &b1, &b2};

  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name, b2.name},
                                       router_options);
  ASSERT_TRUE(router.ok()) << router.status();

  // Front the router with its own server; clients speak to it exactly as
  // they would to a single backend.
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  auto front = PricingServer::Create(&router.value(), options);
  ASSERT_TRUE(front.ok());
  ASSERT_TRUE(front->Start().ok());
  auto client = PricingClient::Connect("127.0.0.1", front->port());
  ASSERT_TRUE(client.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  std::vector<CampaignId> ids;
  for (int i = 0; i < 30; ++i) {
    const auto id = client->AdmitShared(artifact, SmallLimits());
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  EXPECT_EQ(router->live_campaigns(), 30u);

  // The placement spread the fleet across every backend.
  const PlacementTable placement = router->placement();
  size_t backends_used = 0;
  for (Backend* backend : backends) {
    if (backend->map->live_campaigns() > 0) ++backends_used;
  }
  EXPECT_EQ(backends_used, 3u);

  // A mixed batch (interleaved owners + one unknown id) answers through
  // the router bit-identically to each owning map, in request order.
  std::vector<DecideRequest> batch;
  for (size_t i = 0; i < ids.size(); ++i) {
    batch.push_back(DecideRequest::Single(
        ids[i], (static_cast<double>(i) / 4.0), 1 + static_cast<int>(i) % 20));
  }
  batch.push_back(DecideRequest::Single(999999, 0.0, 5));
  const auto responses = client->DecideBatch(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), batch.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE((*responses)[i].status.ok()) << (*responses)[i].status;
    const std::string owner = placement.OwnerOf(ids[i]).value();
    serving::CampaignShardMap* map = nullptr;
    for (Backend* backend : backends) {
      if (backend->name == owner) map = backend->map.get();
    }
    ASSERT_NE(map, nullptr);
    const auto direct = map->Decide(ids[i], batch[i].request);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ((*responses)[i].sheet.offers.size(), direct->offers.size());
    for (size_t o = 0; o < direct->offers.size(); ++o) {
      EXPECT_EQ((*responses)[i].sheet.offers[o].per_task_reward_cents,
                direct->offers[o].per_task_reward_cents);
      EXPECT_EQ((*responses)[i].sheet.offers[o].group_size,
                direct->offers[o].group_size);
    }
  }
  EXPECT_TRUE(responses->back().status.IsNotFound());

  ASSERT_TRUE(front->Stop().ok());
}

TEST(CampaignRouterTest, MalformedLinesAnswerTheSameRoutedAndDirect) {
  // Routed: a router over two backends, fronted by its own server.
  // Direct: one standalone node holding the same campaigns under the same
  // ids. Both must answer the same lines with the same bytes.
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  Backend solo = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());
  ServerOptions options;
  options.num_workers = 2;
  auto front = PricingServer::Create(&router.value(), options);
  ASSERT_TRUE(front.ok());
  ASSERT_TRUE(front->Start().ok());
  auto routed = PricingClient::Connect("127.0.0.1", front->port());
  auto direct = PricingClient::Connect("127.0.0.1", solo.server->port());
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(direct.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  std::vector<CampaignId> ids;
  // Eight campaigns, and more while the placement leaves a backend empty.
  for (int i = 0; i < 64 && (i < 8 || b0.map->live_campaigns() == 0 ||
                             b1.map->live_campaigns() == 0);
       ++i) {
    const auto admitted =
        router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()));
    ASSERT_TRUE(admitted.ok()) << admitted.status();
    ids.push_back(admitted->id);
    ASSERT_TRUE(solo.map
                    ->Apply(ControlOp::AdmitSharedWithId(admitted->id,
                                                         artifact,
                                                         SmallLimits()))
                    .ok());
  }
  ASSERT_GT(b0.map->live_campaigns(), 0u);
  ASSERT_GT(b1.map->live_campaigns(), 0u);

  // The bad line targets a campaign whose owner also answers good lines:
  // its neighbours on that backend must keep their answers.
  const PlacementTable placement = router->placement();
  const std::string fuller = b0.map->live_campaigns() >= 4 ? b0.name : b1.name;
  CampaignId bad_id = 0;
  for (const CampaignId id : ids) {
    if (placement.OwnerOf(id).value() == fuller) bad_id = id;
  }
  ASSERT_NE(bad_id, 0u);

  std::vector<DecideRequest> requests;
  for (size_t i = 0; i < ids.size(); ++i) {
    requests.push_back(DecideRequest::Single(
        ids[i], 0.25 * static_cast<double>(i), 3 + static_cast<int>(i)));
  }
  requests.push_back(DecideRequest::Single(999999, 0.0, 5));
  std::vector<std::string> lines =
      net::SplitDecideBatchPayload(net::SerializeDecideBatchRequest(requests),
                                   "batch")
          .value();
  lines.insert(lines.begin(), "request " + std::to_string(bad_id) + " garbage");

  const auto routed_lines = routed->DecideBatchLines(lines);
  const auto direct_lines = direct->DecideBatchLines(lines);
  ASSERT_TRUE(routed_lines.ok()) << routed_lines.status();
  ASSERT_TRUE(direct_lines.ok()) << direct_lines.status();
  EXPECT_EQ(net::JoinDecideBatchPayload(*routed_lines),
            net::JoinDecideBatchPayload(*direct_lines));

  const auto answers = net::DeserializeDecideBatchResponse(
      net::JoinDecideBatchPayload(*routed_lines));
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), lines.size());
  EXPECT_EQ((*answers)[0].campaign_id, bad_id);
  EXPECT_TRUE((*answers)[0].status.IsInvalidArgument()) << (*answers)[0].status;
  for (size_t i = 1; i + 1 < answers->size(); ++i) {
    EXPECT_TRUE((*answers)[i].status.ok()) << "line " << i << ": "
                                           << (*answers)[i].status;
  }
  EXPECT_TRUE(answers->back().status.IsNotFound()) << answers->back().status;
  EXPECT_EQ(router->stats().unavailable, 0u);
  EXPECT_EQ(solo.server->stats().protocol_errors, 0u);

  // A line with no readable campaign id fails the whole batch, both ways,
  // and counts one protocol error.
  lines.push_back("garbage");
  EXPECT_TRUE(routed->DecideBatchLines(lines).status().IsInvalidArgument());
  EXPECT_TRUE(direct->DecideBatchLines(lines).status().IsInvalidArgument());
  EXPECT_EQ(router->stats().unavailable, 0u);
  EXPECT_EQ(solo.server->stats().protocol_errors, 1u);

  ASSERT_TRUE(front->Stop().ok());
}

TEST(CampaignRouterTest, ControlPlaneRoutesByOwner) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto admitted =
      router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()));
  ASSERT_TRUE(admitted.ok());
  const CampaignId id = admitted->id;

  // A hot swap through the router changes the owning backend's answers.
  pricing::FixedPriceSolution fixed;
  fixed.price_cents = 77;
  const auto swap_artifact = std::make_shared<const engine::PolicyArtifact>(
      engine::PolicyArtifact(fixed));
  ASSERT_TRUE(
      router->Apply(ControlOp::SwapArtifactShared(id, swap_artifact)).ok());
  const auto swapped =
      RouteDecides(*router, {DecideRequest::Single(id, 1.0, 5)});
  ASSERT_TRUE(swapped[0].status.ok());
  EXPECT_DOUBLE_EQ(swapped[0].sheet.offers[0].per_task_reward_cents, 77.0);

  // Exports route to the owner and carry the swapped policy.
  const auto exported = router->ExportCampaign(id);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(exported->id, id);
  EXPECT_EQ(exported->artifact->Serialize().value(),
            swap_artifact->Serialize().value());

  // Ticks retire through the router; the live set tracks it.
  EXPECT_EQ(router->Apply(ControlOp::Tick(id, 1.0, 0))->state,
            CampaignState::kRetiredCompleted);
  EXPECT_EQ(router->live_campaigns(), 0u);

  // Server-side verdicts come back with their codes intact.
  EXPECT_TRUE(router->Apply(ControlOp::Retire(id)).status().IsNotFound());
  EXPECT_TRUE(router->ExportCampaign(424242).status().IsNotFound());

  // Controller-backed admits are process-local by design.
  auto local = ControlOp::AdmitController(
      std::make_unique<market::FixedOfferController>(market::Offer{10.0, 1}),
      SmallLimits());
  EXPECT_TRUE(router->Apply(std::move(local)).status().IsInvalidArgument());
}

/// The backend among `backends` that `placement` makes the owner of `id`.
Backend* OwnerOf(const PlacementTable& placement, CampaignId id,
                 const std::vector<Backend*>& backends) {
  const std::string owner = placement.OwnerOf(id).value();
  for (Backend* backend : backends) {
    if (backend->name == owner) return backend;
  }
  return nullptr;
}

TEST(CampaignRouterTest, ControlAndExportBytesCrossTheRouterUntouched) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  Backend b2 = Backend::Start();
  const std::vector<Backend*> backends = {&b0, &b1, &b2};
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());
  ServerOptions options;
  options.num_workers = 2;
  auto front = PricingServer::Create(&router.value(), options);
  ASSERT_TRUE(front.ok());
  ASSERT_TRUE(front->Start().ok());
  auto client = PricingClient::Connect("127.0.0.1", front->port());
  ASSERT_TRUE(client.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  CampaignLimits limits = SmallLimits();
  limits.deadline_hours = 1.0 / 3.0;
  limits.admit_hours = 0.1;
  std::vector<CampaignId> ids;
  // Twelve campaigns, and more until one of them moves when b2 joins, so
  // the migration below has bytes to move.
  const PlacementTable grown =
      PlacementTable::Create({b0.name, b1.name, b2.name}, 2).value();
  bool one_moves = false;
  for (int i = 0; i < 64 && (i < 12 || !one_moves); ++i) {
    const auto id = client->AdmitShared(artifact, limits);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
    one_moves = one_moves || grown.OwnerOf(*id).value() == b2.name;
  }

  // Each owner exports exactly the bytes its campaign would have if the
  // client had admitted it there directly: the artifact's own text and
  // bit-equal limits under the router's id.
  const auto expect_owner_exports = [&](CampaignId id) {
    Backend* owner = OwnerOf(router->placement(), id, backends);
    ASSERT_NE(owner, nullptr);
    auto direct = PricingClient::Connect("127.0.0.1", owner->server->port());
    ASSERT_TRUE(direct.ok());
    serving::CampaignExport expected;
    expected.id = id;
    expected.limits = limits;
    expected.artifact = artifact;
    EXPECT_EQ(direct->ExportPayload(id).value(),
              net::SerializeExportResponse(expected).value())
        << "campaign " << id << " on " << owner->name;
  };
  for (const CampaignId id : ids) expect_owner_exports(id);

  // Migration moves those bytes as they are.
  const auto migrated = router->AddBackend(b2.name);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(*migrated, 0u);
  ASSERT_EQ(b2.map->live_campaigns(), *migrated);
  for (const CampaignId id : ids) expect_owner_exports(id);

  ASSERT_TRUE(front->Stop().ok());
}

TEST(CampaignRouterTest, OwnerJudgesTheArtifactAndRouterOnlyTheHeader) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());
  ServerOptions options;
  options.num_workers = 2;
  auto front = PricingServer::Create(&router.value(), options);
  ASSERT_TRUE(front.ok());
  ASSERT_TRUE(front->Start().ok());
  auto client = PricingClient::Connect("127.0.0.1", front->port());
  ASSERT_TRUE(client.ok());
  const auto backend_errors = [&] {
    return b0.server->stats().protocol_errors +
           b1.server->stats().protocol_errors;
  };

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto first = client->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(first.ok()) << first.status();

  // Corrupt past the header: the first policy entry points past the
  // 31-action grid. The router forwards it; the owner rejects it.
  std::string text = artifact->Serialize().value();
  const size_t row = text.find("policy\n") + 7;
  text.replace(row, text.find(' ', row) - row, "999");
  const std::string corrupt = "control admit 20 0x1p+3 0x0p+0 artifact " +
                              std::to_string(text.size()) + "\n" + text;
  const auto rejected = client->ApplyPayload(corrupt);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_TRUE(
      net::DeserializeControlAck(*rejected).status().IsInvalidArgument())
      << *rejected;
  EXPECT_EQ(front->stats().protocol_errors, 0u);
  EXPECT_EQ(backend_errors(), 1u);
  EXPECT_EQ(router->live_campaigns(), 1u);
  EXPECT_EQ(b0.map->live_campaigns() + b1.map->live_campaigns(), 1u);

  // Ids stay unique; the rejected admit may leave a gap.
  const auto second = client->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(*second, *first);
  EXPECT_EQ(router->live_campaigns(), 2u);

  // A header the router cannot route is answered by the router itself and
  // reaches no backend.
  const uint64_t frames_before = b0.server->stats().frames_received +
                                 b1.server->stats().frames_received;
  for (const std::string payload :
       {"control frobnicate 1\n", "control swap x artifact 3\nabc"}) {
    const auto ack = client->ApplyPayload(payload);
    ASSERT_TRUE(ack.ok()) << ack.status();
    EXPECT_TRUE(net::DeserializeControlAck(*ack).status().IsInvalidArgument())
        << *ack;
  }
  EXPECT_EQ(front->stats().protocol_errors, 2u);
  EXPECT_EQ(backend_errors(), 1u);
  EXPECT_EQ(b0.server->stats().frames_received +
                b1.server->stats().frames_received,
            frames_before);

  ASSERT_TRUE(front->Stop().ok());
}

TEST(CampaignRouterTest, KilledBackendFailsOverToCleanUnavailable) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  std::vector<CampaignId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(
        router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()))->id);
  }
  const PlacementTable placement = router->placement();
  ASSERT_GT(b0.map->live_campaigns(), 0u);
  ASSERT_GT(b1.map->live_campaigns(), 0u);

  // Kill backend b1 mid-traffic.
  ASSERT_TRUE(b1.server->Stop().ok());

  std::vector<DecideRequest> batch;
  for (const CampaignId id : ids) {
    batch.push_back(DecideRequest::Single(id, 1.0, 5));
  }
  const std::vector<DecideResponse> responses = RouteDecides(*router, batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string owner = placement.OwnerOf(ids[i]).value();
    if (owner == b0.name) {
      EXPECT_TRUE(responses[i].status.ok()) << responses[i].status;
    } else {
      // The dead backend's requests answer Unavailable -- cleanly, per
      // request, with the rest of the batch unharmed.
      EXPECT_TRUE(responses[i].status.IsUnavailable())
          << responses[i].status;
    }
  }
  EXPECT_GT(router->stats().unavailable, 0u);

  // Control ops against the dead owner are Unavailable too, and the
  // router survives to serve the healthy backend.
  CampaignId dead_id = 0;
  for (const CampaignId id : ids) {
    if (placement.OwnerOf(id).value() == b1.name) dead_id = id;
  }
  ASSERT_NE(dead_id, 0u);
  EXPECT_TRUE(
      router->Apply(ControlOp::Tick(dead_id, 1.0, 5)).status().IsUnavailable());

  // Probes notice: after down_after_failures sweeps the backend is down
  // and subsequent calls fail fast without paying the dial.
  router->ProbeNow();
  router->ProbeNow();
  EXPECT_FALSE(router->stats().rebalances > 0);
  bool b1_down = false;
  for (const BackendHealth& health : router->Health()) {
    if (health.name == b1.name) b1_down = !health.up;
    if (health.name == b0.name) {
      EXPECT_TRUE(health.up);
    }
  }
  EXPECT_TRUE(b1_down);

  // A restarted backend on the same port is probed back up.
  ServerOptions revive;
  const uint16_t old_port = static_cast<uint16_t>(
      std::stoi(b1.name.substr(b1.name.rfind(':') + 1)));
  revive.port = old_port;
  revive.num_workers = 2;
  auto revived = PricingServer::Create(b1.map.get(), revive);
  ASSERT_TRUE(revived.ok());
  if (revived->Start().ok()) {  // Port may have been reclaimed by the OS.
    router->ProbeNow();
    for (const BackendHealth& health : router->Health()) {
      if (health.name == b1.name) {
        EXPECT_TRUE(health.up);
      }
    }
    ASSERT_TRUE(revived->Stop().ok());
  }
}

TEST(CampaignRouterTest, RestartedBackendRetriesItsSliceOnAFreshConnection) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  std::vector<DecideRequest> batch;
  for (int i = 0; i < 16; ++i) {
    const auto admitted =
        router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()));
    ASSERT_TRUE(admitted.ok()) << admitted.status();
    batch.push_back(DecideRequest::Single(admitted->id, 1.0, 5));
  }
  ASSERT_GT(b0.map->live_campaigns(), 0u);
  ASSERT_GT(b1.map->live_campaigns(), 0u);
  // Both leased connections are up and in use.
  for (const DecideResponse& response : RouteDecides(*router, batch)) {
    ASSERT_TRUE(response.status.ok()) << response.status;
  }

  // b1 restarts on its port: the router's leased connection to it is dead,
  // though nothing has told the router so.
  const uint16_t port = static_cast<uint16_t>(
      std::stoi(b1.name.substr(b1.name.rfind(':') + 1)));
  ASSERT_TRUE(b1.server->Stop().ok());
  ServerOptions revive;
  revive.port = port;
  revive.num_workers = 2;
  auto revived = PricingServer::Create(b1.map.get(), revive);
  ASSERT_TRUE(revived.ok());
  if (!revived->Start().ok()) {
    GTEST_SKIP() << "port " << port << " was reclaimed by the OS";
  }

  // The next batch spans both backends: b1's slice fails on the dead
  // connection and is retried on a fresh one, so every line answers.
  for (const DecideResponse& response : RouteDecides(*router, batch)) {
    EXPECT_TRUE(response.status.ok()) << response.status;
  }
  EXPECT_EQ(router->stats().unavailable, 0u);
  ASSERT_TRUE(revived->Stop().ok());
}

// Concurrent batches through the router's front server, each spanning the
// three backends and starting at a different owner, so callers take
// overlapping sets of backend leases: the fan-out must neither deadlock
// nor hand one caller another's answers.
TEST(CampaignRouterTest, ConcurrentBatchesAcrossBackendsNeitherDeadlockNorMix) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  Backend b2 = Backend::Start();
  const std::vector<Backend*> backends = {&b0, &b1, &b2};
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router =
      CampaignRouter::Create({b0.name, b1.name, b2.name}, router_options);
  ASSERT_TRUE(router.ok());
  ServerOptions options;
  options.num_workers = 2;
  auto front = PricingServer::Create(&router.value(), options);
  ASSERT_TRUE(front.ok());
  ASSERT_TRUE(front->Start().ok());

  // Each campaign's request line, and the bytes its owner answers that
  // line with when asked directly; campaigns are admitted until every
  // backend owns at least two, and grouped by owner.
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  std::vector<std::string> lines;
  std::vector<std::string> want;
  std::vector<std::vector<size_t>> owned(backends.size());
  const auto covered = [&] {
    for (const std::vector<size_t>& indices : owned) {
      if (indices.size() < 2) return false;
    }
    return true;
  };
  for (int i = 0; i < 256 && !covered(); ++i) {
    const auto admitted =
        router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()));
    ASSERT_TRUE(admitted.ok()) << admitted.status();
    lines.push_back(net::SplitDecideBatchPayload(
                        net::SerializeDecideBatchRequest({DecideRequest::Single(
                            admitted->id, 0.5, 1 + i % 20)}),
                        "batch")
                        .value()
                        .front());
    Backend* owner = OwnerOf(router->placement(), admitted->id, backends);
    ASSERT_NE(owner, nullptr);
    auto direct = PricingClient::Connect("127.0.0.1", owner->server->port());
    ASSERT_TRUE(direct.ok());
    const auto answer = direct->DecideBatchLines({lines.back()});
    ASSERT_TRUE(answer.ok()) << answer.status();
    want.push_back(answer->front());
    const size_t b = static_cast<size_t>(
        std::find(backends.begin(), backends.end(), owner) - backends.begin());
    owned[b].push_back(lines.size() - 1);
  }
  ASSERT_TRUE(covered());

  // A deadlocked fan-out never answers, and the front server's Stop would
  // then wait on it forever: past the deadline, fail loudly instead of
  // hanging the suite.
  std::mutex watch_mu;
  std::condition_variable watch_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watch_mu);
    if (!watch_cv.wait_for(lock, std::chrono::seconds(120),
                           [&] { return finished; })) {
      std::fprintf(stderr, "routed batches still in flight after 120 s: "
                           "the fan-out deadlocked\n");
      std::abort();
    }
  });

  constexpr int kThreads = 4;
  constexpr int kBatches = 300;
  constexpr size_t kBatchLines = 6;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      net::ClientOptions client_options;
      client_options.io_timeout_ms = 10000;
      auto client =
          PricingClient::Connect("127.0.0.1", front->port(), client_options);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int b = 0; b < kBatches; ++b) {
        // Lines from every backend in turn, the first one's owner rotating
        // with the caller and the batch.
        std::vector<size_t> picked;
        std::vector<std::string> batch;
        for (size_t j = 0; j < kBatchLines; ++j) {
          const std::vector<size_t>& pool =
              owned[(static_cast<size_t>(t + b) + j) % owned.size()];
          picked.push_back(pool[(static_cast<size_t>(b) + j) % pool.size()]);
          batch.push_back(lines[picked.back()]);
        }
        const auto answers = client->DecideBatchLines(batch);
        if (!answers.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t j = 0; j < kBatchLines; ++j) {
          if ((*answers)[j] != want[picked[j]]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(router->stats().unavailable, 0u);
  EXPECT_EQ(router->stats().decide_requests,
            static_cast<uint64_t>(kThreads * kBatches) * kBatchLines);
  EXPECT_TRUE(front->Stop().ok());
  {
    std::lock_guard<std::mutex> lock(watch_mu);
    finished = true;
  }
  watch_cv.notify_all();
  watchdog.join();
}

TEST(CampaignRouterTest, ProbeThreadMarksDownWithinInterval) {
  Backend b0 = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  router_options.pool.probe_interval_ms = 20;
  router_options.pool.down_after_failures = 2;
  auto router = CampaignRouter::Create({b0.name}, router_options);
  ASSERT_TRUE(router.ok());

  ASSERT_TRUE(b0.server->Stop().ok());
  // Two probe misses at a 20ms cadence: well inside a second.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool down = false;
  while (!down && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    down = !router->Health()[0].up;
  }
  EXPECT_TRUE(down);
}

TEST(CampaignRouterTest, AuthGatesBothSidesOfTheRouter) {
  const std::string token = "fleet-secret";
  Backend b0 = Backend::Start(token);

  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  router_options.pool.client.auth_token = token;
  auto router = CampaignRouter::Create({b0.name}, router_options);
  ASSERT_TRUE(router.ok());

  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  options.auth_token = token;
  auto front = PricingServer::Create(&router.value(), options);
  ASSERT_TRUE(front.ok());
  ASSERT_TRUE(front->Start().ok());

  // A tokenless client connects (the transport is fine) but every plane
  // is refused until it hellos.
  auto bare = PricingClient::Connect("127.0.0.1", front->port());
  ASSERT_TRUE(bare.ok());
  const auto refused = bare->Decide(1, market::DecisionRequest::Single(1, 5));
  EXPECT_TRUE(refused.status().IsUnauthenticated()) << refused.status();
  EXPECT_TRUE(bare->Retire(1).IsUnauthenticated());
  // Pings stay credential-free (probes must stay cheap).
  EXPECT_TRUE(bare->Ping().ok());

  // The wrong token is rejected at Connect; version skew is
  // FailedPrecondition.
  // So are a proper prefix of the token and a one-byte extension of it:
  // the compare covers every byte, and a length mismatch fails like any
  // other.
  for (const std::string& wrong :
       {std::string("wrong"), token.substr(0, token.size() - 1), token + "x"}) {
    net::ClientOptions bad;
    bad.auth_token = wrong;
    EXPECT_TRUE(PricingClient::Connect("127.0.0.1", front->port(), bad)
                    .status()
                    .IsUnauthenticated())
        << wrong;
  }
  net::HelloRequest skewed;
  skewed.version = 999;
  skewed.token = token;
  EXPECT_TRUE(bare->Hello(skewed).IsFailedPrecondition());

  // The right token unlocks the full stack: client -> router -> backend,
  // with the router presenting the token to the backend itself.
  net::ClientOptions good;
  good.auth_token = token;
  auto client = PricingClient::Connect("127.0.0.1", front->port(), good);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  const auto id = client->AdmitShared(artifact, SmallLimits());
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(
      client->Decide(*id, market::DecisionRequest::Single(1.0, 5)).ok());
  EXPECT_EQ(b0.map->live_campaigns(), 1u);

  ASSERT_TRUE(front->Stop().ok());
}

TEST(CampaignRouterTest, LiveRebalanceMigratesExactlyTheDiff) {
  Backend b0 = Backend::Start();
  Backend b1 = Backend::Start();
  Backend b2 = Backend::Start();
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({b0.name, b1.name}, router_options);
  ASSERT_TRUE(router.ok());

  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  std::vector<CampaignId> ids;
  std::vector<market::OfferSheet> before;
  for (int i = 0; i < 24; ++i) {
    CampaignLimits limits = SmallLimits();
    limits.admit_hours = 0.5 * (i % 4);
    ids.push_back(
        router->Apply(ControlOp::AdmitShared(artifact, limits))->id);
    const auto responses = RouteDecides(
        *router,
        {DecideRequest::Single(ids.back(), limits.admit_hours + 1.0, 7)});
    ASSERT_TRUE(responses[0].status.ok());
    before.push_back(responses[0].sheet);
  }
  const PlacementTable old_placement = router->placement();

  // Grow the fleet: only campaigns the newcomer wins may move.
  const auto migrated = router->AddBackend(b2.name);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_GT(*migrated, 0u);
  const PlacementTable new_placement = router->placement();
  EXPECT_EQ(new_placement.version(), old_placement.version() + 1);
  size_t moved = 0;
  for (const CampaignId id : ids) {
    const std::string was = old_placement.OwnerOf(id).value();
    const std::string now = new_placement.OwnerOf(id).value();
    if (was != now) {
      ++moved;
      EXPECT_EQ(now, b2.name);
    }
  }
  EXPECT_EQ(moved, *migrated);
  EXPECT_EQ(b2.map->live_campaigns(), moved);
  EXPECT_EQ(router->live_campaigns(), ids.size());

  // Every campaign -- moved or not -- answers exactly what it answered
  // before the rebalance (same id, same limits, same policy bytes).
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto responses = RouteDecides(
        *router, {DecideRequest::Single(ids[i], 0.5 * (i % 4) + 1.0, 7)});
    ASSERT_TRUE(responses[0].status.ok()) << responses[0].status;
    ASSERT_EQ(responses[0].sheet.offers.size(), before[i].offers.size());
    for (size_t o = 0; o < before[i].offers.size(); ++o) {
      EXPECT_EQ(responses[0].sheet.offers[o].per_task_reward_cents,
                before[i].offers[o].per_task_reward_cents)
          << "campaign " << ids[i];
    }
  }

  // Shrink back out: the departing backend's campaigns redistribute and
  // nothing is lost.
  const auto drained = router->RemoveBackend(b2.name);
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(*drained, moved);
  EXPECT_EQ(b2.map->live_campaigns(), 0u);
  EXPECT_EQ(router->live_campaigns(), ids.size());
  EXPECT_EQ(router->stats().migrations, moved * 2);
  EXPECT_EQ(router->stats().lost_campaigns, 0u);

  // Removing an unknown backend is NotFound, not a torn placement.
  EXPECT_TRUE(router->RemoveBackend("127.0.0.1:1").status().IsNotFound());
}

TEST(CampaignRouterTest, EmptyRouterAnswersUnavailable) {
  RouterOptions router_options;
  router_options.pool = TestPoolOptions();
  auto router = CampaignRouter::Create({}, router_options);
  ASSERT_TRUE(router.ok());
  const auto responses =
      RouteDecides(*router, {DecideRequest::Single(1, 1.0, 5)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.IsUnavailable());
  const auto artifact =
      std::make_shared<const engine::PolicyArtifact>(SmallDeadlineArtifact());
  EXPECT_TRUE(router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()))
                  .status()
                  .IsUnavailable());

  // Capacity arrives by rebalance; the router starts placing.
  Backend b0 = Backend::Start();
  ASSERT_TRUE(router->Rebalance({b0.name}).ok());
  EXPECT_TRUE(router->Apply(ControlOp::AdmitShared(artifact, SmallLimits()))
                  .ok());
}

}  // namespace
}  // namespace crowdprice::router
