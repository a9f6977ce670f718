// CampaignShardMap tests: batched serving equals serial serving
// bit-for-bit across shard counts, lifecycle retires campaigns on
// completion/deadline, stats track load, and admission stays safe under
// concurrent serving (the TSan CI job runs the threaded stress).

#include "serving/campaign_shard_map.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "market/controller.h"

#include "test_util.h"

namespace crowdprice::serving {
namespace {

const choice::LogitAcceptance& PaperAcceptance() {
  static const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  return acceptance;
}

engine::PolicyArtifact SmallDeadlineArtifact() {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 25;
  spec.problem.num_intervals = 6;
  spec.problem.penalty_cents = 180.0;
  spec.interval_lambdas.assign(6, 1600.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(30, PaperAcceptance()).value();
  return engine::Engine::Solve(spec).value();
}

// An adaptive artifact with one-hour intervals over a 50-price grid.
// Campaigns built from it solve their first plan at admit.
std::shared_ptr<const engine::PolicyArtifact> AdaptiveArtifact(
    int num_tasks, int num_intervals, const pricing::AdaptiveOptions& options) {
  engine::AdaptiveSpec spec;
  spec.problem.num_tasks = num_tasks;
  spec.problem.num_intervals = num_intervals;
  spec.problem.penalty_cents = 500.0;
  spec.believed_lambdas.assign(static_cast<size_t>(num_intervals), 60.0);
  spec.actions =
      pricing::ActionSet::FromPriceGrid(50, PaperAcceptance()).value();
  spec.horizon_hours = num_intervals;
  spec.options = options;
  return std::make_shared<const engine::PolicyArtifact>(
      engine::Engine::Solve(spec).value());
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

CampaignLimits SmallLimits() {
  CampaignLimits limits;
  limits.total_tasks = 25;
  limits.deadline_hours = 12.0;
  return limits;
}

std::unique_ptr<market::PricingController> FixedController(double cents) {
  return std::make_unique<market::FixedOfferController>(
      market::Offer{cents, 1});
}

// Every mutation below goes through Apply, the map's single control
// surface; these shims keep the old wrapper spellings readable in tests.
Result<CampaignId> Admit(CampaignShardMap& map, engine::PolicyArtifact artifact,
                         const CampaignLimits& limits) {
  CP_ASSIGN_OR_RETURN(
      const ControlOutcome outcome,
      map.Apply(ControlOp::AdmitShared(
          std::make_shared<const engine::PolicyArtifact>(std::move(artifact)),
          limits)));
  return outcome.id;
}

Result<CampaignId> AdmitShared(
    CampaignShardMap& map,
    std::shared_ptr<const engine::PolicyArtifact> artifact,
    const CampaignLimits& limits) {
  CP_ASSIGN_OR_RETURN(
      const ControlOutcome outcome,
      map.Apply(ControlOp::AdmitShared(std::move(artifact), limits)));
  return outcome.id;
}

Result<CampaignId> AdmitController(
    CampaignShardMap& map,
    std::unique_ptr<market::PricingController> controller,
    const CampaignLimits& limits) {
  CP_ASSIGN_OR_RETURN(
      const ControlOutcome outcome,
      map.Apply(ControlOp::AdmitController(std::move(controller), limits)));
  return outcome.id;
}

Result<CampaignState> Tick(CampaignShardMap& map, CampaignId id,
                           double now_hours, int64_t remaining_tasks) {
  CP_ASSIGN_OR_RETURN(
      const ControlOutcome outcome,
      map.Apply(ControlOp::Tick(id, now_hours, remaining_tasks)));
  return outcome.state;
}

Status Retire(CampaignShardMap& map, CampaignId id) {
  return map.Apply(ControlOp::Retire(id)).status();
}

Status SwapArtifact(CampaignShardMap& map, CampaignId id,
                    engine::PolicyArtifact artifact) {
  return map
      .Apply(ControlOp::SwapArtifactShared(
          id,
          std::make_shared<const engine::PolicyArtifact>(std::move(artifact))))
      .status();
}

Status SwapArtifactShared(
    CampaignShardMap& map, CampaignId id,
    std::shared_ptr<const engine::PolicyArtifact> artifact) {
  return map.Apply(ControlOp::SwapArtifactShared(id, std::move(artifact)))
      .status();
}

// Single-type lookup through the sheet surface: the request/offers[0]
// spelling the removed single-offer shim forwarded to.
Result<market::Offer> MapOffer(CampaignShardMap& map, CampaignId id,
                               double now_hours, int64_t remaining_tasks) {
  CP_ASSIGN_OR_RETURN(
      market::OfferSheet sheet,
      map.Decide(id, market::DecisionRequest::Single(now_hours,
                                                     remaining_tasks)));
  return sheet.offers[0];
}

TEST(CampaignLimitsTest, Validation) {
  EXPECT_TRUE(SmallLimits().Validate().ok());
  CampaignLimits limits = SmallLimits();
  limits.total_tasks = 0;
  EXPECT_TRUE(limits.Validate().IsInvalidArgument());
  limits = SmallLimits();
  limits.deadline_hours = 0.0;
  EXPECT_TRUE(limits.Validate().IsInvalidArgument());
}

TEST(CampaignShardMapTest, CreateRejectsBadShardCounts) {
  EXPECT_TRUE(CampaignShardMap::Create(0).status().IsInvalidArgument());
  EXPECT_TRUE(CampaignShardMap::Create(-3).status().IsInvalidArgument());
  EXPECT_TRUE(CampaignShardMap::Create(5000).status().IsInvalidArgument());
  EXPECT_TRUE(CampaignShardMap::Create(1).ok());
}

TEST(CampaignShardMapTest, AdmitAndDecideServesArtifactPolicy) {
  CampaignShardMap map = CampaignShardMap::Create(3).value();
  // The reference controller may point into its artifact, so it plays from
  // a copy that stays alive; the map gets its own moved-in artifact.
  const engine::PolicyArtifact reference_artifact = SmallDeadlineArtifact();
  engine::PolicyArtifact artifact = reference_artifact;
  auto reference =
      reference_artifact.MakeController(SmallLimits().deadline_hours).value();

  const CampaignId id = Admit(map,std::move(artifact), SmallLimits()).value();
  EXPECT_TRUE(map.Contains(id));
  EXPECT_EQ(map.live_campaigns(), 1u);

  for (double now : {0.0, 3.0, 11.0}) {
    for (int64_t remaining : {25, 12, 1}) {
      // The sheet surface agrees with the reference controller.
      const market::OfferSheet sheet =
          map.Decide(id, market::DecisionRequest::Single(now, remaining))
              .value();
      ASSERT_EQ(sheet.num_types(), 1);
      const market::Offer got = MapOffer(map, id, now, remaining).value();
      const market::Offer want =
          test_util::SingleOffer(*reference, now, remaining).value();
      EXPECT_EQ(got.per_task_reward_cents, want.per_task_reward_cents);
      EXPECT_EQ(got.group_size, want.group_size);
      EXPECT_EQ(sheet.offers[0].per_task_reward_cents,
                want.per_task_reward_cents);
    }
  }
  EXPECT_TRUE(MapOffer(map, id + 999, 0.0, 5).status().IsNotFound());
}

TEST(CampaignShardMapTest, TickRetiresOnCompletionAndDeadline) {
  CampaignShardMap map = CampaignShardMap::Create(2).value();
  const CampaignId done_id =
      AdmitController(map,FixedController(10.0), SmallLimits()).value();
  const CampaignId late_id =
      AdmitController(map,FixedController(10.0), SmallLimits()).value();
  EXPECT_EQ(map.live_campaigns(), 2u);

  // Progress mid-campaign keeps it live.
  EXPECT_EQ(Tick(map,done_id, 3.0, 10).value(), CampaignState::kLive);
  // The batch drains -> retired completed; the id stops serving.
  EXPECT_EQ(Tick(map,done_id, 5.0, 0).value(),
            CampaignState::kRetiredCompleted);
  EXPECT_FALSE(map.Contains(done_id));
  EXPECT_TRUE(MapOffer(map, done_id, 5.0, 1).status().IsNotFound());
  EXPECT_TRUE(Tick(map,done_id, 5.0, 0).status().IsNotFound());

  // The deadline passes with work left -> retired deadline.
  EXPECT_EQ(Tick(map,late_id, SmallLimits().deadline_hours, 7).value(),
            CampaignState::kRetiredDeadline);
  EXPECT_FALSE(map.Contains(late_id));
  EXPECT_EQ(map.live_campaigns(), 0u);

  const ShardStats total = map.TotalStats();
  EXPECT_EQ(total.admitted, 2u);
  EXPECT_EQ(total.retired_completed, 1u);
  EXPECT_EQ(total.retired_deadline, 1u);
  EXPECT_EQ(total.live, 0);
}

TEST(CampaignShardMapTest, RetireRemovesExplicitly) {
  CampaignShardMap map = CampaignShardMap::Create(1).value();
  const CampaignId id =
      AdmitController(map,FixedController(5.0), SmallLimits()).value();
  EXPECT_TRUE(Retire(map,id).ok());
  EXPECT_TRUE(Retire(map,id).IsNotFound());
  EXPECT_EQ(map.TotalStats().retired_explicit, 1u);
}

// The serving correctness harness: for every shard count, a batched pass
// answers exactly what per-campaign serial Decide answers, bit-for-bit.
TEST(CampaignShardMapStressTest, DecideBatchMatchesSerialDecideAcrossShards) {
  constexpr int kCampaigns = 120;
  engine::PolicyArtifact solved = SmallDeadlineArtifact();
  const auto shared =
      std::make_shared<const engine::PolicyArtifact>(solved);

  for (int num_shards : {1, 2, 3, 8, 32}) {
    CampaignShardMap map = CampaignShardMap::Create(num_shards).value();
    std::vector<CampaignId> ids;
    for (int i = 0; i < kCampaigns; ++i) {
      // Mix plain-controller, owned-artifact and shared-artifact
      // campaigns.
      if (i % 3 == 0) {
        ids.push_back(
            AdmitController(map,FixedController(5.0 + i % 7), SmallLimits())
                .value());
      } else if (i % 3 == 1) {
        engine::PolicyArtifact copy = solved;
        ids.push_back(Admit(map,std::move(copy), SmallLimits()).value());
      } else {
        ids.push_back(AdmitShared(map,shared, SmallLimits()).value());
      }
    }

    std::vector<DecideRequest> requests;
    for (int i = 0; i < kCampaigns; ++i) {
      requests.push_back(DecideRequest::Single(ids[static_cast<size_t>(i)],
                                               (i % 12) * 0.9, 1 + i % 25));
    }
    // One unknown campaign in the middle of the batch.
    requests.push_back(DecideRequest::Single(999999, 0.0, 5));

    const std::vector<DecideResponse> responses = map.DecideBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const Result<market::OfferSheet> serial =
          map.Decide(requests[i].campaign_id, requests[i].request);
      ASSERT_EQ(responses[i].status.ok(), serial.ok())
          << "shards=" << num_shards << " i=" << i;
      if (!serial.ok()) {
        EXPECT_TRUE(responses[i].status.IsNotFound());
        continue;
      }
      ASSERT_EQ(responses[i].sheet.num_types(), serial->num_types());
      EXPECT_EQ(responses[i].sheet.offers[0].per_task_reward_cents,
                serial->offers[0].per_task_reward_cents)
          << "shards=" << num_shards << " i=" << i;
      EXPECT_EQ(responses[i].sheet.offers[0].group_size,
                serial->offers[0].group_size);
    }

    const ShardStats total = map.TotalStats();
    EXPECT_EQ(total.admitted, static_cast<uint64_t>(kCampaigns));
    // Every live request served twice (batch + serial), once per path.
    EXPECT_EQ(total.batch_requests, static_cast<uint64_t>(kCampaigns));
    EXPECT_EQ(total.decides, static_cast<uint64_t>(2 * kCampaigns));
  }
}

// Admission, serving, ticking and retiring race from several threads; TSan
// (CI job clang-tsan) checks the shard locking, the asserts check
// accounting.
TEST(CampaignShardMapStressTest, AdmitAndServeUnderConcurrentLoad) {
  constexpr int kAdmitters = 3;
  constexpr int kPerAdmitter = 40;
  CampaignShardMap map = CampaignShardMap::Create(8).value();

  std::atomic<bool> stop{false};
  std::atomic<int> batch_errors{0};

  std::thread server([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<DecideRequest> requests;
      for (CampaignId id = 1; id <= kAdmitters * kPerAdmitter; ++id) {
        requests.push_back(DecideRequest::Single(id, 1.0, 5));
      }
      for (const DecideResponse& response : map.DecideBatch(requests)) {
        // Unknown ids are expected while admission races; anything else
        // is a bug.
        if (!response.status.ok() && !response.status.IsNotFound()) {
          batch_errors.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> admitters;
  for (int a = 0; a < kAdmitters; ++a) {
    admitters.emplace_back([&map, a] {
      for (int i = 0; i < kPerAdmitter; ++i) {
        const CampaignId id =
            AdmitController(map,FixedController(4.0 + a), SmallLimits())
                .value();
        // Half the campaigns complete immediately, exercising retire
        // while the server thread batches.
        if (i % 2 == 0) {
          ASSERT_TRUE(Tick(map,id, 1.0, 0).ok());
        }
      }
    });
  }
  for (std::thread& thread : admitters) thread.join();
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(batch_errors.load(), 0);
  const ShardStats total = map.TotalStats();
  EXPECT_EQ(total.admitted,
            static_cast<uint64_t>(kAdmitters * kPerAdmitter));
  EXPECT_EQ(total.retired_completed,
            static_cast<uint64_t>(kAdmitters * kPerAdmitter / 2));
  EXPECT_EQ(static_cast<uint64_t>(total.live),
            total.admitted - total.retired_completed);
  EXPECT_EQ(map.live_campaigns(), static_cast<size_t>(total.live));
}

TEST(CampaignShardMapTest, TickUsesWallClockDeadlineForStreamingAdmissions) {
  // A campaign admitted mid-run carries its admission time in its limits:
  // the controller horizon stays the campaign *duration*, while Tick
  // retires against the wall-clock deadline admit + duration.
  CampaignShardMap map = CampaignShardMap::Create(2).value();
  CampaignLimits limits;
  limits.total_tasks = 10;
  limits.deadline_hours = 4.0;
  limits.admit_hours = 10.0;
  ASSERT_TRUE(limits.Validate().ok());
  const CampaignId id =
      AdmitController(map,FixedController(10.0), limits).value();

  // The campaign-clock deadline value is mid-campaign on the wall clock.
  EXPECT_EQ(Tick(map,id, 4.0, 5).value(), CampaignState::kLive);
  EXPECT_EQ(Tick(map,id, 13.9, 5).value(), CampaignState::kLive);
  EXPECT_EQ(Tick(map,id, 14.0, 5).value(), CampaignState::kRetiredDeadline);

  CampaignLimits bad = limits;
  bad.admit_hours = -1.0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(CampaignShardMapTest, DecideRebasesWallClockOntoCampaignClock) {
  // A streaming campaign admitted at wall-clock 10 must be priced on its
  // own clock: a lookup at wall 11 answers like a t=0-admitted campaign's
  // lookup at 1 -- for both Decide and DecideBatch.
  CampaignShardMap map = CampaignShardMap::Create(2).value();
  const engine::PolicyArtifact solved = SmallDeadlineArtifact();

  CampaignLimits at_zero = SmallLimits();
  engine::PolicyArtifact copy = solved;
  const CampaignId reference = Admit(map,std::move(copy), at_zero).value();

  CampaignLimits streamed = SmallLimits();
  streamed.admit_hours = 10.0;
  copy = solved;
  const CampaignId late = Admit(map,std::move(copy), streamed).value();

  for (const double local : {0.0, 1.0, 4.5, 11.0}) {
    const market::Offer want = MapOffer(map, reference, local, 12).value();
    const market::Offer got = MapOffer(map, late, 10.0 + local, 12).value();
    EXPECT_EQ(got.per_task_reward_cents, want.per_task_reward_cents)
        << "campaign hour " << local;
    EXPECT_EQ(got.group_size, want.group_size);

    const std::vector<DecideResponse> batched =
        map.DecideBatch({DecideRequest::Single(late, 10.0 + local, 12)});
    ASSERT_TRUE(batched[0].status.ok());
    EXPECT_EQ(batched[0].sheet.offers[0].per_task_reward_cents,
              want.per_task_reward_cents);
  }
  // Skewed callers (wall clock before the admission) clamp to campaign
  // hour 0 instead of indexing a negative interval.
  EXPECT_EQ(MapOffer(map, late, 2.0, 12).value().per_task_reward_cents,
            MapOffer(map, reference, 0.0, 12).value().per_task_reward_cents);
}

TEST(CampaignShardMapTest, PeakLiveTracksChurnHighWaterMark) {
  CampaignShardMap map = CampaignShardMap::Create(1).value();
  const CampaignId a =
      AdmitController(map,FixedController(5.0), SmallLimits()).value();
  const CampaignId b =
      AdmitController(map,FixedController(5.0), SmallLimits()).value();
  ASSERT_TRUE(Retire(map,a).ok());
  ASSERT_TRUE(Retire(map,b).ok());
  // Two were live at once; none are now -- the peak remembers the churn.
  const ShardStats total = map.TotalStats();
  EXPECT_EQ(total.peak_live, 2);
  EXPECT_EQ(total.live, 0);
  const CampaignId c =
      AdmitController(map,FixedController(5.0), SmallLimits()).value();
  EXPECT_TRUE(map.Contains(c));
  EXPECT_EQ(map.TotalStats().peak_live, 2);  // 1 live never beats the peak.
}

// The streaming-fleet serving race: admissions (owned + shared artifact),
// hot swaps and retirements churn the map from several threads while
// DecideBatch traffic is continuously in flight. TSan (CI job clang-tsan)
// checks the locking; the asserts check that the churn counters reconcile
// exactly once the map quiesces: admitted == retired + live.
TEST(CampaignShardMapStressTest, ChurnRacesDecideBatchAndCountersReconcile) {
  constexpr int kChurners = 4;
  constexpr int kPerChurner = 32;
  CampaignShardMap map = CampaignShardMap::Create(8).value();
  const engine::PolicyArtifact solved = SmallDeadlineArtifact();
  const auto shared = std::make_shared<const engine::PolicyArtifact>(solved);

  std::atomic<bool> stop{false};
  std::atomic<int> batch_errors{0};
  std::atomic<uint64_t> highest_id{0};

  std::thread server([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const CampaignId top = highest_id.load(std::memory_order_acquire);
      std::vector<DecideRequest> requests;
      for (CampaignId id = 1; id <= top; ++id) {
        requests.push_back(DecideRequest::Single(id, 1.0, 5));
      }
      if (requests.empty()) continue;
      for (const DecideResponse& response : map.DecideBatch(requests)) {
        // Campaigns retire while the batch is built, so NotFound is
        // expected; anything else is a torn campaign.
        if (!response.status.ok() && !response.status.IsNotFound()) {
          batch_errors.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&map, &shared, &solved, &highest_id, c] {
      for (int i = 0; i < kPerChurner; ++i) {
        CampaignLimits limits = SmallLimits();
        limits.admit_hours = 0.25 * i;  // Staggered streaming admissions.
        CampaignId id = 0;
        if (i % 3 == 0) {
          engine::PolicyArtifact copy = solved;
          id = Admit(map,std::move(copy), limits).value();
        } else if (i % 3 == 1) {
          id = AdmitShared(map,shared, limits).value();
        } else {
          id = AdmitController(map,FixedController(4.0 + c), limits).value();
        }
        // Publish a monotone id bound for the server's request sweep.
        uint64_t seen = highest_id.load(std::memory_order_relaxed);
        while (seen < id && !highest_id.compare_exchange_weak(
                                seen, id, std::memory_order_release)) {
        }
        switch (i % 4) {
          case 0:  // Complete under traffic.
            ASSERT_TRUE(Tick(map,id, limits.admit_hours + 1.0, 0).ok());
            break;
          case 1: {  // Hot-swap, then expire at the wall-clock deadline.
            pricing::FixedPriceSolution fixed;
            fixed.price_cents = 30 + i % 5;
            ASSERT_TRUE(
                SwapArtifact(map,id, engine::PolicyArtifact(fixed)).ok());
            ASSERT_TRUE(
                Tick(map,id,
                         limits.admit_hours + limits.deadline_hours, 3)
                    .ok());
            break;
          }
          case 2:  // Pull explicitly.
            ASSERT_TRUE(Retire(map,id).ok());
            break;
          default:  // Stay live through the quiesce.
            break;
        }
      }
    });
  }
  for (std::thread& thread : churners) thread.join();
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(batch_errors.load(), 0);
  const ShardStats total = map.TotalStats();
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kChurners) * kPerChurner;
  EXPECT_EQ(total.admitted, kTotal);
  // The churn invariant at quiesce: every admission is accounted for.
  EXPECT_EQ(total.retired_completed + total.retired_deadline +
                total.retired_explicit + static_cast<uint64_t>(total.live),
            kTotal);
  EXPECT_EQ(total.retired_completed, kTotal / 4);
  EXPECT_EQ(total.retired_deadline, kTotal / 4);
  EXPECT_EQ(total.retired_explicit, kTotal / 4);
  EXPECT_EQ(total.swapped, kTotal / 4);
  EXPECT_EQ(map.live_campaigns(), static_cast<size_t>(total.live));
  EXPECT_GE(total.peak_live, total.live);
  EXPECT_LE(total.peak_live, static_cast<int64_t>(kTotal));

  // Snapshot reclamation reconciles at quiesce: every snapshot ever
  // published (one per admission, one per swap) is either fully freed or
  // backing a still-live campaign.
  map.QuiesceReclamation();
  const SnapshotStats snapshots = map.snapshot_stats();
  EXPECT_EQ(snapshots.published, total.admitted + total.swapped);
  EXPECT_EQ(snapshots.live_campaigns, static_cast<uint64_t>(total.live));
  EXPECT_EQ(snapshots.published,
            snapshots.reclaimed + snapshots.live_campaigns);
}

TEST(CampaignShardMapTest, SwapArtifactChangesDecisionsAtTheBoundary) {
  CampaignShardMap map = CampaignShardMap::Create(2).value();
  const CampaignId id = Admit(map,SmallDeadlineArtifact(), SmallLimits())
                            .value();

  // Mid-campaign: the live policy answers; record a pre-swap decision.
  const market::Offer before = MapOffer(map, id, 3.0, 20).value();

  // Hot-swap to an unmistakably different policy (a solved fixed-price
  // artifact would also do; a distinctive fixed reward makes the boundary
  // observable).
  pricing::FixedPriceSolution fixed;
  fixed.price_cents = 77;
  const Status swapped = SwapArtifact(map,id, engine::PolicyArtifact(fixed));
  ASSERT_TRUE(swapped.ok()) << swapped;

  // Decisions change exactly at the swap boundary...
  const market::Offer after = MapOffer(map, id, 3.0, 20).value();
  EXPECT_DOUBLE_EQ(after.per_task_reward_cents, 77.0);
  EXPECT_NE(after.per_task_reward_cents, before.per_task_reward_cents);

  // ...while the campaign's identity and stats stay continuous.
  EXPECT_TRUE(map.Contains(id));
  const ShardStats total = map.TotalStats();
  EXPECT_EQ(total.admitted, 1u);
  EXPECT_EQ(total.swapped, 1u);
  EXPECT_EQ(total.decides, 2u);
  EXPECT_EQ(total.live, 1);

  // The swapped campaign still ticks and retires normally.
  EXPECT_EQ(Tick(map,id, 4.0, 10).value(), CampaignState::kLive);
  EXPECT_EQ(Tick(map,id, 5.0, 0).value(), CampaignState::kRetiredCompleted);

  // Swapping a retired or unknown campaign fails NotFound.
  pricing::FixedPriceSolution other;
  other.price_cents = 5;
  EXPECT_TRUE(
      SwapArtifact(map,id, engine::PolicyArtifact(other)).IsNotFound());
}

TEST(CampaignShardMapTest, SwapArtifactRejectsNullAndKeepsOldPolicyOnError) {
  CampaignShardMap map = CampaignShardMap::Create(1).value();
  const CampaignId id =
      AdmitController(map,FixedController(10.0), SmallLimits()).value();
  EXPECT_TRUE(SwapArtifactShared(map,id, nullptr).IsInvalidArgument());
  // The campaign still serves its original policy.
  EXPECT_DOUBLE_EQ(MapOffer(map, id, 0.0, 5).value().per_task_reward_cents,
                   10.0);
  EXPECT_EQ(map.TotalStats().swapped, 0u);
}

TEST(CampaignShardMapTest, MultiTypeArtifactServesSheets) {
  // A §6 multitype artifact is admitted and served through the same
  // DecideBatch surface as single-type campaigns.
  engine::MultiTypeSpec spec;
  spec.s1 = 10.0;
  spec.b1 = 1.2;
  spec.s2 = 10.0;
  spec.b2 = 1.0;
  spec.m = 200.0;
  spec.problem.num_tasks_1 = 5;
  spec.problem.num_tasks_2 = 5;
  spec.problem.num_intervals = 4;
  spec.problem.penalty_1_cents = 120.0;
  spec.problem.penalty_2_cents = 120.0;
  spec.problem.max_price_cents = 20;
  spec.problem.price_stride = 4;
  spec.interval_lambdas.assign(4, 40.0);
  engine::PolicyArtifact artifact = engine::Engine::Solve(spec).value();
  const pricing::MultiTypePlan plan = *artifact.multitype_plan().value();

  CampaignShardMap map = CampaignShardMap::Create(2).value();
  CampaignLimits limits;
  limits.total_tasks = 10;
  limits.deadline_hours = 8.0;
  const CampaignId id = Admit(map,std::move(artifact), limits).value();

  DecideRequest request;
  request.campaign_id = id;
  request.request.campaign_hours = 0.0;
  request.request.remaining = {5, 3};
  const std::vector<DecideResponse> responses = map.DecideBatch({request});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status;
  ASSERT_EQ(responses[0].sheet.num_types(), 2);
  const auto prices = plan.PricesAt(5, 3, 0).value();
  EXPECT_DOUBLE_EQ(responses[0].sheet.offers[0].per_task_reward_cents,
                   prices.first);
  EXPECT_DOUBLE_EQ(responses[0].sheet.offers[1].per_task_reward_cents,
                   prices.second);
  // The single-type shim reports the mismatch instead of guessing a type.
  EXPECT_FALSE(MapOffer(map, id, 0.0, 5).ok());
}

// Swaps race batched serving and ticking from several threads; the TSan CI
// job certifies the under-lock swap, the asserts check accounting.
TEST(CampaignShardMapStressTest, SwapArtifactUnderConcurrentServing) {
  constexpr int kCampaigns = 32;
  constexpr int kSwapsPerCampaign = 25;
  CampaignShardMap map = CampaignShardMap::Create(4).value();
  const auto shared = std::make_shared<const engine::PolicyArtifact>(
      SmallDeadlineArtifact());

  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    ids.push_back(AdmitShared(map,shared, SmallLimits()).value());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> serve_errors{0};
  std::thread server([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<DecideRequest> requests;
      for (CampaignId id : ids) {
        requests.push_back(DecideRequest::Single(id, 2.0, 12));
      }
      for (const DecideResponse& response : map.DecideBatch(requests)) {
        // Every campaign stays live throughout; any failure is a swap
        // tearing a campaign mid-decision.
        if (!response.status.ok()) serve_errors.fetch_add(1);
        // Both policies in rotation post 1-offer sheets.
        if (response.status.ok() && response.sheet.num_types() != 1) {
          serve_errors.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> swappers;
  for (int half = 0; half < 2; ++half) {
    swappers.emplace_back([&map, &ids, half] {
      for (int round = 0; round < kSwapsPerCampaign; ++round) {
        for (size_t i = static_cast<size_t>(half); i < ids.size(); i += 2) {
          pricing::FixedPriceSolution fixed;
          fixed.price_cents = 20 + round % 10;
          EXPECT_TRUE(
              SwapArtifact(map,ids[i], engine::PolicyArtifact(fixed)).ok());
        }
      }
    });
  }
  for (std::thread& thread : swappers) thread.join();
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(serve_errors.load(), 0);
  const ShardStats total = map.TotalStats();
  EXPECT_EQ(total.swapped,
            static_cast<uint64_t>(kCampaigns) * kSwapsPerCampaign);
  EXPECT_EQ(map.live_campaigns(), static_cast<size_t>(kCampaigns));
  // After the dust settles every campaign serves the last-swapped policy.
  for (CampaignId id : ids) {
    const market::Offer offer = MapOffer(map, id, 2.0, 12).value();
    EXPECT_GE(offer.per_task_reward_cents, 20.0);
    EXPECT_LE(offer.per_task_reward_cents, 29.0);
  }
}

// The sharpest race the snapshot read path must win: SwapArtifact and
// Retire hammering the SAME campaigns that in-flight Decide/DecideBatch
// passes are serving. Every successful response must come wholly from one
// published policy -- the initial controller or one of the two swap
// targets; any other price is a torn snapshot -- and after quiesce the
// reclamation ledger must balance: snapshots published == reclaimed +
// live. (The TSan CI job additionally proves the grace-period frees race
// no in-flight read.)
TEST(CampaignShardMapStressTest, SameCampaignSwapRetireRacesDecideBatch) {
  constexpr int kCampaigns = 8;
  constexpr int kSwapsPerCampaign = 24;
  constexpr double kInitialPrice = 55.0;
  constexpr double kSwapPriceA = 77.0;
  constexpr double kSwapPriceB = 88.0;

  CampaignShardMap map = CampaignShardMap::Create(4).value();
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    ids.push_back(
        AdmitController(map,FixedController(kInitialPrice), SmallLimits())
            .value());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> served{0};

  auto check = [&](const DecideResponse& response) {
    if (response.status.IsNotFound()) return;  // Retired mid-race: fine.
    if (!response.status.ok()) {
      torn.fetch_add(1);
      return;
    }
    const double price = response.sheet.offers[0].per_task_reward_cents;
    if (price != kInitialPrice && price != kSwapPriceA &&
        price != kSwapPriceB) {
      torn.fetch_add(1);
    }
    served.fetch_add(1);
  };

  std::thread server([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<DecideRequest> requests;
      for (CampaignId id : ids) {
        requests.push_back(DecideRequest::Single(id, 1.0, 5));
      }
      for (const DecideResponse& response : map.DecideBatch(requests)) {
        check(response);
      }
      // Single-decide lane: same campaigns, unbatched read path.
      for (CampaignId id : ids) {
        DecideResponse response;
        response.campaign_id = id;
        Result<market::OfferSheet> sheet =
            map.Decide(id, market::DecisionRequest::Single(1.0, 5));
        if (sheet.ok()) {
          response.sheet = *sheet;
        } else {
          response.status = sheet.status();
        }
        check(response);
      }
    }
  });

  std::vector<std::thread> churners;
  for (int half = 0; half < 2; ++half) {
    churners.emplace_back([&map, &ids, half] {
      for (size_t i = static_cast<size_t>(half); i < ids.size(); i += 2) {
        for (int s = 0; s < kSwapsPerCampaign; ++s) {
          pricing::FixedPriceSolution fixed;
          fixed.price_cents = s % 2 == 0 ? kSwapPriceA : kSwapPriceB;
          ASSERT_TRUE(
              SwapArtifact(map,ids[i], engine::PolicyArtifact(fixed)).ok());
        }
        ASSERT_TRUE(Retire(map,ids[i]).ok());
      }
    });
  }
  for (std::thread& thread : churners) thread.join();
  stop.store(true, std::memory_order_release);
  server.join();

  EXPECT_EQ(torn.load(), 0u);
  const ShardStats total = map.TotalStats();
  EXPECT_EQ(total.swapped,
            static_cast<uint64_t>(kCampaigns) * kSwapsPerCampaign);
  EXPECT_EQ(total.retired_explicit, static_cast<uint64_t>(kCampaigns));
  EXPECT_EQ(map.live_campaigns(), 0u);

  // Reclamation reconciles: one snapshot per admission plus one per swap,
  // all freed once the grace period drains.
  map.QuiesceReclamation();
  const SnapshotStats snapshots = map.snapshot_stats();
  EXPECT_EQ(snapshots.published,
            static_cast<uint64_t>(kCampaigns) * (1 + kSwapsPerCampaign));
  EXPECT_EQ(snapshots.live_campaigns, 0u);
  EXPECT_EQ(snapshots.published, snapshots.reclaimed);
}

// An adaptive campaign re-plans inside Decide, holding its own lock for
// the whole solve. A decide on another adaptive campaign must not wait for
// it -- not even one whose id is 64 apart (1 and 65), which would share a
// lock under any scheme that stripes locks by id mod 64.
TEST(CampaignShardMapTest, AdaptiveReplanNeverStallsAnotherAdaptiveCampaign) {
  pricing::AdaptiveOptions options;
  // One solve thread: the re-plan and the neighbour's loop then never
  // compete for a core, so the neighbour's worst decide measures waiting.
  options.dp_options.num_threads = 1;
  CampaignShardMap map = CampaignShardMap::Create(4).value();
  CampaignLimits a_limits;
  a_limits.total_tasks = 4000;
  a_limits.deadline_hours = 1000.0;
  CampaignLimits b_limits;
  b_limits.total_tasks = 50;
  b_limits.deadline_hours = 10.0;
  ASSERT_TRUE(map.Apply(ControlOp::AdmitSharedWithId(
                            1, AdaptiveArtifact(4000, 1000, options),
                            a_limits))
                  .ok());
  ASSERT_TRUE(map.Apply(ControlOp::AdmitSharedWithId(
                            65, AdaptiveArtifact(50, 10, options), b_limits))
                  .ok());

  // A's first decide predicts completions for interval 0. None arrive, so
  // at interval 3 (a resolve_every edge) the factor clamps to 0.25 and A
  // re-plans the remaining 997 intervals inside that decide.
  ASSERT_TRUE(map.Decide(1, market::DecisionRequest::Single(0.0, 4000)).ok());

  // B decides in a loop from before A's re-plan until after it answers.
  // Nothing between here and the join may return early.
  std::atomic<bool> stop{false};
  std::atomic<int> b_decides{0};
  std::atomic<int> b_failures{0};
  double b_worst_ms = 0.0;
  std::thread neighbour([&] {
    const market::DecisionRequest request =
        market::DecisionRequest::Single(0.0, 50);
    while (!stop.load()) {
      const auto sent = std::chrono::steady_clock::now();
      if (!map.Decide(65, request).ok()) {
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
  const auto start = std::chrono::steady_clock::now();
  const Result<market::OfferSheet> replanned =
      map.Decide(1, market::DecisionRequest::Single(3.0, 4000));
  const double replan_ms = MsSince(start);
  stop.store(true);
  neighbour.join();

  RecordProperty("replan_ms", std::to_string(replan_ms));
  RecordProperty("neighbour_worst_ms", std::to_string(b_worst_ms));
  ASSERT_TRUE(replanned.ok()) << replanned.status();
  EXPECT_EQ(b_failures.load(), 0);
  EXPECT_GE(replan_ms, 40.0) << "too short a re-plan to show a stall";
  EXPECT_LT(b_worst_ms, replan_ms / 4)
      << "B's worst decide " << b_worst_ms << " ms against A's re-plan "
      << replan_ms << " ms";
}

// Four threads decide one adaptive campaign through Decide and DecideBatch
// while a fifth swaps it 50 times. With resolve_every 1 every interval
// that a decide opens may re-plan, so decides race re-plans and swaps
// race both. The controller guards its own state: every answer must be
// ok. The TSan CI job repeats this test.
TEST(CampaignShardMapStressTest, AdaptiveDecidesRaceReplansAndSwaps) {
  constexpr int kTasks = 40;
  constexpr int kIntervals = 48;
  constexpr int kDeciders = 4;
  constexpr int kSwaps = 50;
  pricing::AdaptiveOptions options;
  options.resolve_every = 1;
  const auto artifact = AdaptiveArtifact(kTasks, kIntervals, options);
  CampaignShardMap map = CampaignShardMap::Create(4).value();
  CampaignLimits limits;
  limits.total_tasks = kTasks;
  limits.deadline_hours = kIntervals;
  const CampaignId id = AdmitShared(map, artifact, limits).value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> deciders;
  for (int d = 0; d < kDeciders; ++d) {
    deciders.emplace_back([&, d] {
      while (!stop.load(std::memory_order_acquire)) {
        // Each thread walks the horizon draining the backlog at its own
        // pace, so the completions each new interval reports differ and
        // the correction factor keeps moving.
        for (int t = 0; t < kIntervals; ++t) {
          const double hours = t + 0.5;
          const int64_t remaining =
              std::max<int64_t>(1, kTasks - (d + 1) * t / 2);
          if (d % 2 == 0) {
            if (!map.Decide(id, market::DecisionRequest::Single(hours,
                                                                remaining))
                     .ok()) {
              failures.fetch_add(1);
            }
          } else {
            const std::vector<DecideRequest> requests(
                3, DecideRequest::Single(id, hours, remaining));
            for (const DecideResponse& response : map.DecideBatch(requests)) {
              if (!response.status.ok()) failures.fetch_add(1);
            }
          }
          answered.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    for (int s = 0; s < kSwaps; ++s) {
      // Let the deciders get well into the fresh controller's horizon.
      while (answered.load() < static_cast<uint64_t>(s + 1) * 2 * kIntervals) {
        std::this_thread::yield();
      }
      EXPECT_TRUE(SwapArtifactShared(map, id, artifact).ok());
    }
  });
  swapper.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : deciders) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(map.TotalStats().swapped, static_cast<uint64_t>(kSwaps));
  EXPECT_TRUE(map.Contains(id));
}

}  // namespace
}  // namespace crowdprice::serving
