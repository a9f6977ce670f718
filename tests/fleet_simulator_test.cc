// FleetSimulator tests: the determinism harness. Per-campaign outcomes of
// the sharded, time-sliced fleet must be bit-identical to running
// market::RunSimulation serially with the same controllers and Rng
// streams started at each campaign's admit time, at every shard count and
// every admission interleaving -- plus lifecycle accounting on the serving
// layer underneath and the session-level start/resume equivalence the
// streaming loop rests on.
//
// The streaming harness draws its campaign mix from CROWDPRICE_TEST_SEED
// when set (the CI matrix runs it under several seeds); the determinism
// property must hold for every seed.

#include "market/fleet_simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "market/controller.h"
#include "market/session.h"
#include "market/simulator.h"
#include "pricing/adaptive.h"
#include "pricing/fixed_price.h"
#include "util/rng.h"

#include "test_util.h"

namespace crowdprice::market {
namespace {

// Acceptance that is simply min(1, c / 100): cheap and price-sensitive.
class LinearAcceptance final : public choice::AcceptanceFunction {
 public:
  double ProbabilityAt(double reward_cents) const override {
    return std::clamp(reward_cents / 100.0, 0.0, 1.0);
  }
};

const choice::LogitAcceptance& PaperAcceptance() {
  static const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  return acceptance;
}

engine::PolicyArtifact SmallDeadlineArtifact() {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 8;
  spec.problem.penalty_cents = 150.0;
  spec.interval_lambdas.assign(8, 60.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(30, PaperAcceptance()).value();
  return engine::Engine::Solve(spec).value();
}

// One campaign's blueprint; the test materializes it twice (fleet and
// serial reference) with identical Rng forks.
struct Blueprint {
  SimulatorConfig config;
  bool use_artifact = false;
  double fixed_price_cents = 0.0;
};

std::vector<Blueprint> MakeFleetBlueprints(int count) {
  std::vector<Blueprint> blueprints;
  blueprints.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Blueprint bp;
    bp.config.total_tasks = 8 + i % 17;
    bp.config.horizon_hours = 4.0 + (i % 3) * 2.0;  // 4, 6 or 8 hours
    bp.config.decision_interval_hours = 1.0;
    bp.config.service_minutes_per_task = (i % 4 == 0) ? 2.0 : 0.0;
    if (i % 5 == 0) bp.config.retention.max_rate = 0.3;
    if (i % 7 == 0) {
      bp.config.accuracy.enabled = true;
    }
    bp.use_artifact = (i % 4 == 1);
    bp.fixed_price_cents = 12.0 + i % 20;
    blueprints.push_back(bp);
  }
  return blueprints;
}

void ExpectBitIdentical(const SimulationResult& got,
                        const SimulationResult& want, int index) {
  EXPECT_EQ(got.total_cost_cents, want.total_cost_cents) << "campaign " << index;
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

// Forwards every decide to `target`, which the test may repoint between
// AdvanceUntil calls: the serial stand-in for a fleet session, whose
// decides read whatever policy the map publishes at the time.
class ForwardingController final : public PricingController {
 public:
  explicit ForwardingController(PricingController* target) : target(target) {}
  Result<OfferSheet> Decide(const DecisionRequest& request) override {
    return target->Decide(request);
  }
  PricingController* target;
};

TEST(FleetSimulatorTest, RunWithoutCampaignsFails) {
  FleetSimulator fleet = FleetSimulator::Create(4).value();
  auto rate = arrival::PiecewiseConstantRate::Constant(50.0, 8.0).value();
  EXPECT_TRUE(fleet.Run(rate).status().IsFailedPrecondition());
}

TEST(FleetSimulatorTest, OutcomesMatchSerialAndLifecycleRetiresEveryCampaign) {
  // A bursty shared arrival stream with 30-minute buckets, so the event
  // loop takes many slices and campaign horizons land mid-stream.
  std::vector<double> buckets;
  for (int i = 0; i < 16; ++i) buckets.push_back(i % 2 == 0 ? 90.0 : 30.0);
  const auto rate =
      arrival::PiecewiseConstantRate::Create(buckets, 0.5).value();
  LinearAcceptance acceptance;
  const engine::PolicyArtifact solved = SmallDeadlineArtifact();
  const std::vector<Blueprint> blueprints = MakeFleetBlueprints(64);

  // Serial reference: same controllers, same Rng fork order.
  std::vector<SimulationResult> want;
  {
    Rng master(2026);
    for (const Blueprint& bp : blueprints) {
      Rng child = master.Fork();
      std::unique_ptr<PricingController> controller;
      engine::PolicyArtifact copy = solved;
      if (bp.use_artifact) {
        controller = copy.MakeController(bp.config.horizon_hours).value();
      } else {
        controller = std::make_unique<FixedOfferController>(
            Offer{bp.fixed_price_cents, 1});
      }
      want.push_back(
          RunSimulation(bp.config, rate, acceptance, *controller, child)
              .value());
    }
  }

  const auto shared = std::make_shared<const engine::PolicyArtifact>(solved);
  for (int num_shards : {1, 4, 16}) {
    FleetSimulator fleet = FleetSimulator::Create(num_shards).value();
    Rng master(2026);
    int artifact_index = 0;
    for (const Blueprint& bp : blueprints) {
      Rng child = master.Fork();
      if (bp.use_artifact) {
        // Alternate a campaign's own artifact copy with one artifact
        // shared fleet-wide; both must be bit-identical to the serial
        // reference.
        const auto artifact =
            artifact_index++ % 2 == 0
                ? std::make_shared<const engine::PolicyArtifact>(solved)
                : shared;
        ASSERT_TRUE(
            fleet.AdmitShared(artifact, bp.config, acceptance, child).ok());
      } else {
        ASSERT_TRUE(fleet
                        .AdmitController(
                            std::make_unique<FixedOfferController>(
                                Offer{bp.fixed_price_cents, 1}),
                            bp.config, acceptance, child)
                        .ok());
      }
    }
    ASSERT_EQ(fleet.shard_map().live_campaigns(), blueprints.size());

    const std::vector<FleetOutcome> outcomes = fleet.Run(rate).value();
    ASSERT_EQ(outcomes.size(), blueprints.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ExpectBitIdentical(outcomes[i].result, want[i], static_cast<int>(i));
      // The lifecycle state agrees with the outcome.
      EXPECT_EQ(outcomes[i].final_state,
                outcomes[i].result.finished
                    ? serving::CampaignState::kRetiredCompleted
                    : serving::CampaignState::kRetiredDeadline)
          << "campaign " << i;
    }

    // Every campaign retired from the serving layer.
    EXPECT_EQ(fleet.shard_map().live_campaigns(), 0u);
    const serving::ShardStats total = fleet.shard_map().TotalStats();
    EXPECT_EQ(total.admitted, blueprints.size());
    EXPECT_EQ(total.retired_completed + total.retired_deadline,
              blueprints.size());
    EXPECT_GT(total.decides, 0u);
  }
}

// Shard passes and the DP's layer scans share ThreadPool::Shared(). An
// adaptive campaign of 256+ tasks plans on its first decide and re-plans
// every interval (SolveImprovedDp with num_threads 0, so its layer scans
// fan out) from inside its shard's pass: a ParallelFor region nested in
// the pass's own region on the same pool. The fleet must finish and match
// the serial reference bit for bit.
TEST(FleetSimulatorTest, AdaptiveReplansInsideShardPassesMatchSerial) {
  const auto rate =
      arrival::PiecewiseConstantRate::Create({400.0, 250.0, 500.0, 300.0}, 2.0)
          .value();
  LinearAcceptance acceptance;
  const pricing::ActionSet actions =
      pricing::ActionSet::FromPriceGrid(30, acceptance).value();
  pricing::DeadlineProblem problem;
  problem.num_tasks = 300;
  problem.num_intervals = 8;
  problem.penalty_cents = 200.0;
  pricing::AdaptiveOptions options;
  options.resolve_every = 1;
  auto make_controller = [&](int i) {
    return std::make_unique<pricing::AdaptiveRateController>(
        pricing::AdaptiveRateController::Create(
            problem, std::vector<double>(8, 150.0 + 25.0 * i), actions, 8.0,
            options)
            .value());
  };
  SimulatorConfig config;
  config.total_tasks = problem.num_tasks;
  config.horizon_hours = 8.0;
  config.decision_interval_hours = 1.0;
  constexpr int kCampaigns = 8;

  std::vector<SimulationResult> want;
  {
    Rng master(4242);
    for (int i = 0; i < kCampaigns; ++i) {
      Rng child = master.Fork();
      auto controller = make_controller(i);
      want.push_back(
          RunSimulation(config, rate, acceptance, *controller, child).value());
    }
  }

  FleetSimulator fleet = FleetSimulator::Create(4).value();
  Rng master(4242);
  for (int i = 0; i < kCampaigns; ++i) {
    Rng child = master.Fork();
    ASSERT_TRUE(
        fleet.AdmitController(make_controller(i), config, acceptance, child)
            .ok());
  }
  std::vector<FleetOutcome> outcomes;
  test_util::RunWithWatchdog("adaptive fleet run", std::chrono::seconds(60),
                             [&] { outcomes = fleet.Run(rate).value(); });
  ASSERT_EQ(outcomes.size(), want.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ExpectBitIdentical(outcomes[i].result, want[i], static_cast<int>(i));
  }
}

// The acceptance-criteria stress: >= 1000 concurrent campaigns,
// bit-identical to serial at every tested shard count. Campaigns are kept
// tiny so the serial reference stays fast; the TSan CI job runs this test
// to certify the sharded advancement is race-free.
TEST(FleetSimulatorStressTest, ThousandCampaignsBitIdenticalAcrossShardCounts) {
  const auto rate =
      arrival::PiecewiseConstantRate::Create({40.0, 20.0, 60.0, 30.0}, 1.0)
          .value();
  LinearAcceptance acceptance;
  constexpr int kCampaigns = 1100;

  std::vector<SimulatorConfig> configs;
  for (int i = 0; i < kCampaigns; ++i) {
    SimulatorConfig config;
    config.total_tasks = 3 + i % 8;
    config.horizon_hours = 2.0 + (i % 4);  // 2..5 hours
    config.decision_interval_hours = 1.0;
    config.service_minutes_per_task = 0.0;
    configs.push_back(config);
  }
  auto price_of = [](int i) { return 8.0 + i % 23; };

  std::vector<SimulationResult> want;
  {
    Rng master(77);
    for (int i = 0; i < kCampaigns; ++i) {
      Rng child = master.Fork();
      FixedOfferController controller(Offer{price_of(i), 1});
      want.push_back(
          RunSimulation(configs[static_cast<size_t>(i)], rate, acceptance,
                        controller, child)
              .value());
    }
  }

  for (int num_shards : {1, 8, 64}) {
    FleetSimulator fleet = FleetSimulator::Create(num_shards).value();
    Rng master(77);
    for (int i = 0; i < kCampaigns; ++i) {
      Rng child = master.Fork();
      ASSERT_TRUE(fleet
                      .AdmitController(std::make_unique<FixedOfferController>(
                                           Offer{price_of(i), 1}),
                                       configs[static_cast<size_t>(i)],
                                       acceptance, child)
                      .ok());
    }
    const std::vector<FleetOutcome> outcomes = fleet.Run(rate).value();
    ASSERT_EQ(outcomes.size(), static_cast<size_t>(kCampaigns));
    for (int i = 0; i < kCampaigns; ++i) {
      ExpectBitIdentical(outcomes[static_cast<size_t>(i)].result,
                         want[static_cast<size_t>(i)], i);
    }
    EXPECT_EQ(fleet.shard_map().live_campaigns(), 0u);
  }
}

// Master seed for the randomized streaming harness; the CI matrix sets
// CROWDPRICE_TEST_SEED to run the determinism property under several
// campaign mixes.
uint64_t TestSeed() {
  const char* env = std::getenv("CROWDPRICE_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 2026;
}

// The streaming acceptance-criteria stress: 1000+ campaigns admitted at
// random bucket edges while earlier campaigns are in flight, outcomes
// bit-identical to a per-campaign serial RunSimulation started at the
// admit time, at shard counts {1, 2, 7, 16}. The TSan CI job runs this
// test to certify the admit-under-traffic lane is race-free.
TEST(FleetStreamingStressTest, RandomAdmissionEdgesBitIdenticalAcrossShards) {
  const auto rate =
      arrival::PiecewiseConstantRate::Create({40.0, 20.0, 60.0, 30.0, 50.0},
                                             0.5)
          .value();
  LinearAcceptance acceptance;
  const engine::PolicyArtifact solved = SmallDeadlineArtifact();
  const auto shared = std::make_shared<const engine::PolicyArtifact>(solved);
  constexpr int kCampaigns = 1024;
  const uint64_t seed = TestSeed();

  struct Spec {
    SimulatorConfig config;
    double admit_hours = 0.0;
    bool use_artifact = false;
    double price_cents = 0.0;
  };
  std::vector<Spec> specs;
  {
    // The admission interleaving itself is random: admit times land on
    // bucket edges across a 12-hour window, so early campaigns are
    // mid-flight (and some already retired) when later ones enter.
    Rng scheduler(seed);
    for (int i = 0; i < kCampaigns; ++i) {
      Spec spec;
      spec.config.total_tasks = 3 + i % 7;
      spec.config.horizon_hours = 2.0 + 0.5 * (i % 4);
      spec.config.decision_interval_hours = 1.0;
      spec.config.service_minutes_per_task = (i % 5 == 0) ? 1.5 : 0.0;
      spec.admit_hours = 0.5 * static_cast<double>(scheduler.UniformInt(0, 24));
      spec.use_artifact = (i % 6 == 2);
      spec.price_cents = 8.0 + i % 23;
      specs.push_back(spec);
    }
  }

  // Serial reference: every campaign alone, started at its admit time.
  std::vector<SimulationResult> want;
  {
    Rng master(seed + 1);
    for (const Spec& spec : specs) {
      Rng child = master.Fork();
      std::unique_ptr<PricingController> controller;
      engine::PolicyArtifact copy = solved;
      if (spec.use_artifact) {
        controller = copy.MakeController(spec.config.horizon_hours).value();
      } else {
        controller = std::make_unique<FixedOfferController>(
            Offer{spec.price_cents, 1});
      }
      want.push_back(RunSimulation(spec.config, rate, acceptance, *controller,
                                   child, spec.admit_hours)
                         .value());
    }
  }

  for (int num_shards : {1, 2, 7, 16}) {
    FleetSimulator fleet = FleetSimulator::Create(num_shards).value();
    ArrivalSchedule schedule;
    Rng master(seed + 1);
    for (const Spec& spec : specs) {
      Rng child = master.Fork();
      if (spec.use_artifact) {
        ASSERT_TRUE(schedule
                        .AdmitShared(spec.admit_hours, shared, spec.config,
                                     acceptance, child)
                        .ok());
      } else {
        ASSERT_TRUE(schedule
                        .AdmitController(
                            spec.admit_hours,
                            std::make_unique<FixedOfferController>(
                                Offer{spec.price_cents, 1}),
                            spec.config, acceptance, child)
                        .ok());
      }
    }

    const std::vector<FleetOutcome> outcomes =
        fleet.RunStreaming(rate, std::move(schedule)).value();
    ASSERT_EQ(outcomes.size(), specs.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].schedule_index, i);
      EXPECT_EQ(outcomes[i].admit_hours, specs[i].admit_hours)
          << "campaign " << i;
      ExpectBitIdentical(outcomes[i].result, want[i], static_cast<int>(i));
      EXPECT_EQ(outcomes[i].final_state,
                outcomes[i].result.finished
                    ? serving::CampaignState::kRetiredCompleted
                    : serving::CampaignState::kRetiredDeadline)
          << "campaign " << i;
    }

    // Lifecycle churn reconciles: everything admitted, everything retired,
    // and the random interleaving kept the live set well below the fleet
    // size (the whole point of streaming admission).
    EXPECT_EQ(fleet.shard_map().live_campaigns(), 0u);
    const serving::ShardStats total = fleet.shard_map().TotalStats();
    EXPECT_EQ(total.admitted, specs.size());
    EXPECT_EQ(total.retired_completed + total.retired_deadline, specs.size());
    EXPECT_EQ(total.live, 0);
    EXPECT_GT(total.peak_live, 0);
    EXPECT_LT(total.peak_live, static_cast<int64_t>(kCampaigns));
    EXPECT_EQ(fleet.streaming_stats().admitted,
              static_cast<uint64_t>(kCampaigns));
    EXPECT_GT(fleet.streaming_stats().slices, 0u);
  }
}

// Mid-life control events: a hot artifact swap and a scheduled retirement,
// each bit-identical to a serial session that applies the same event at
// the same wall-clock edge.
TEST(FleetStreamingTest, SwapAndRetireEventsMatchSerialSessions) {
  const auto rate =
      arrival::PiecewiseConstantRate::Create({60.0, 45.0, 70.0, 55.0}, 1.0)
          .value();
  LinearAcceptance acceptance;
  const engine::PolicyArtifact solved = SmallDeadlineArtifact();
  const auto shared = std::make_shared<const engine::PolicyArtifact>(solved);
  pricing::FixedPriceSolution fixed;
  fixed.price_cents = 77;
  const auto swap_artifact = std::make_shared<const engine::PolicyArtifact>(
      engine::PolicyArtifact(fixed));

  SimulatorConfig swap_config;
  swap_config.total_tasks = 40;
  swap_config.horizon_hours = 6.0;
  swap_config.decision_interval_hours = 1.0;
  swap_config.service_minutes_per_task = 0.0;

  SimulatorConfig retire_config;
  retire_config.total_tasks = 500;  // Cannot finish before the pull.
  retire_config.horizon_hours = 8.0;
  retire_config.decision_interval_hours = 1.0;
  retire_config.service_minutes_per_task = 0.0;

  Rng master(4242);
  const Rng swap_rng = master.Fork();
  const Rng retire_rng = master.Fork();
  const Rng fast_rng = master.Fork();

  // Serial references, driven session-by-session with the same events.
  SimulationResult want_swap;
  {
    engine::PolicyArtifact copy = solved;
    auto before =
        copy.MakeController(swap_config.horizon_hours).value();
    ForwardingController forward(before.get());
    CampaignSession session =
        CampaignSession::CreateAt(swap_config, rate, acceptance, forward,
                                  swap_rng, 1.0)
            .value();
    ASSERT_TRUE(session.AdvanceUntil(3.0).ok());
    auto after =
        swap_artifact->MakeController(swap_config.horizon_hours).value();
    forward.target = after.get();
    ASSERT_TRUE(session.AdvanceUntil(session.end_hours()).ok());
    want_swap = std::move(session).TakeResult().value();
  }
  SimulationResult want_retire;
  {
    FixedOfferController controller(Offer{12.0, 1});
    CampaignSession session =
        CampaignSession::CreateAt(retire_config, rate, acceptance, controller,
                                  retire_rng, 1.0)
            .value();
    ASSERT_TRUE(session.AdvanceUntil(4.0).ok());
    ASSERT_TRUE(session.Curtail(4.0).ok());
    want_retire = std::move(session).TakeResult().value();
  }

  FleetSimulator fleet = FleetSimulator::Create(3).value();
  ArrivalSchedule schedule;
  const size_t swap_entry =
      schedule.AdmitShared(1.0, shared, swap_config, acceptance, swap_rng)
          .value();
  ASSERT_TRUE(schedule.SwapArtifactAt(swap_entry, 3.0, swap_artifact).ok());
  const size_t retire_entry =
      schedule
          .AdmitController(1.0,
                           std::make_unique<FixedOfferController>(
                               Offer{12.0, 1}),
                           retire_config, acceptance, retire_rng)
          .value();
  ASSERT_TRUE(schedule.RetireAt(retire_entry, 4.0).ok());
  // A fast campaign whose scheduled retirement lands after it completes:
  // the completion wins and the event is skipped.
  SimulatorConfig fast_config;
  fast_config.total_tasks = 2;
  fast_config.horizon_hours = 6.0;
  fast_config.decision_interval_hours = 1.0;
  const size_t fast_entry =
      schedule
          .AdmitController(0.0,
                           std::make_unique<FixedOfferController>(
                               Offer{95.0, 1}),
                           fast_config, acceptance, fast_rng)
          .value();
  ASSERT_TRUE(schedule.RetireAt(fast_entry, 5.0).ok());

  const std::vector<FleetOutcome> outcomes =
      fleet.RunStreaming(rate, std::move(schedule)).value();
  ASSERT_EQ(outcomes.size(), 3u);

  ExpectBitIdentical(outcomes[swap_entry].result, want_swap, 0);
  // The swap changed the in-force offer at the 3 h edge: assignments after
  // it pay the swapped fixed price.
  bool saw_swapped_price = false;
  for (const auto& ev : outcomes[swap_entry].result.events) {
    if (ev.time_hours >= 3.0 && ev.tasks > 0) {
      EXPECT_EQ(ev.cost_cents, 77.0 * ev.tasks);
      saw_swapped_price = true;
    }
  }
  EXPECT_TRUE(saw_swapped_price);

  ExpectBitIdentical(outcomes[retire_entry].result, want_retire, 1);
  EXPECT_EQ(outcomes[retire_entry].final_state,
            serving::CampaignState::kRetiredExplicit);
  EXPECT_FALSE(outcomes[retire_entry].result.finished);
  EXPECT_EQ(outcomes[retire_entry].result.completion_time_hours, 4.0);

  EXPECT_EQ(outcomes[fast_entry].final_state,
            serving::CampaignState::kRetiredCompleted);
  EXPECT_TRUE(outcomes[fast_entry].result.finished);

  EXPECT_EQ(fleet.streaming_stats().swapped, 1u);
  EXPECT_EQ(fleet.streaming_stats().retired_by_event, 1u);
  const serving::ShardStats total = fleet.shard_map().TotalStats();
  EXPECT_EQ(total.swapped, 1u);
  EXPECT_EQ(total.retired_explicit, 1u);
  // The other two campaigns ran their natural lifecycle.
  EXPECT_EQ(total.retired_completed + total.retired_deadline, 2u);
  EXPECT_EQ(fleet.shard_map().live_campaigns(), 0u);
}

TEST(ArrivalScheduleTest, ValidatesEntriesAndEvents) {
  LinearAcceptance acceptance;
  ArrivalSchedule schedule;
  SimulatorConfig config;
  config.total_tasks = 5;
  config.horizon_hours = 2.0;

  // Bad admit times and null payloads are rejected.
  EXPECT_TRUE(schedule
                  .AdmitController(-1.0,
                                   std::make_unique<FixedOfferController>(
                                       Offer{10.0, 1}),
                                   config, acceptance, Rng(1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(schedule.AdmitShared(0.0, nullptr, config, acceptance, Rng(1))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      schedule.AdmitController(0.0, nullptr, config, acceptance, Rng(1))
          .status()
          .IsInvalidArgument());

  const size_t entry =
      schedule
          .AdmitController(2.0,
                           std::make_unique<FixedOfferController>(
                               Offer{10.0, 1}),
                           config, acceptance, Rng(1))
          .value();
  // Events must reference a real entry, carry a payload, and not precede
  // the admission.
  EXPECT_TRUE(schedule.RetireAt(entry + 7, 3.0).IsInvalidArgument());
  EXPECT_TRUE(schedule.RetireAt(entry, 1.0).IsInvalidArgument());
  EXPECT_TRUE(schedule.SwapArtifactAt(entry, 3.0, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(schedule.RetireAt(entry, 2.0).ok());

  // An empty fleet with an empty schedule has nothing to play.
  FleetSimulator fleet = FleetSimulator::Create(2).value();
  const auto rate = arrival::PiecewiseConstantRate::Constant(50.0, 8.0).value();
  EXPECT_TRUE(fleet.RunStreaming(rate, ArrivalSchedule())
                  .status()
                  .IsFailedPrecondition());

  // Sessions play single-type campaigns. A two-type artifact admits fine,
  // and the run fails InvalidArgument at the campaign's first decide.
  engine::MultiTypeSpec multi;
  multi.s1 = 10.0;
  multi.b1 = 1.2;
  multi.s2 = 10.0;
  multi.b2 = 1.0;
  multi.m = 200.0;
  multi.problem.num_tasks_1 = 4;
  multi.problem.num_tasks_2 = 4;
  multi.problem.num_intervals = 3;
  multi.problem.penalty_1_cents = 100.0;
  multi.problem.penalty_2_cents = 100.0;
  multi.problem.max_price_cents = 20;
  multi.problem.price_stride = 4;
  multi.interval_lambdas.assign(3, 30.0);
  ArrivalSchedule two_types;
  ASSERT_TRUE(two_types
                  .AdmitShared(0.0,
                               std::make_shared<const engine::PolicyArtifact>(
                                   engine::Engine::Solve(multi).value()),
                               config, acceptance, Rng(1))
                  .ok());
  const Status two_type_run =
      fleet.RunStreaming(rate, std::move(two_types)).status();
  EXPECT_TRUE(two_type_run.IsInvalidArgument()) << two_type_run;
  EXPECT_EQ(fleet.streaming_stats().admitted, 1u);
  EXPECT_EQ(fleet.shard_map().TotalStats().decides, 1u);
}

TEST(FleetStreamingTest, FarFutureEventOnFinishedCampaignEndsTheRunEarly) {
  // A retire event far past the campaign's natural end is skippable the
  // moment the fleet quiesces; the event loop must not spin empty slices
  // out to the event's edge.
  const auto rate = arrival::PiecewiseConstantRate::Constant(50.0, 1.0).value();
  LinearAcceptance acceptance;
  SimulatorConfig config;
  config.total_tasks = 5;
  config.horizon_hours = 2.0;
  config.decision_interval_hours = 1.0;

  FleetSimulator fleet = FleetSimulator::Create(2).value();
  ArrivalSchedule schedule;
  const size_t entry =
      schedule
          .AdmitController(0.0,
                           std::make_unique<FixedOfferController>(
                               Offer{20.0, 1}),
                           config, acceptance, Rng(5))
          .value();
  ASSERT_TRUE(schedule.RetireAt(entry, 1000.0).ok());

  const std::vector<FleetOutcome> outcomes =
      fleet.RunStreaming(rate, std::move(schedule)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_NE(outcomes[0].final_state, serving::CampaignState::kRetiredExplicit);
  // The loop ended within a few edges of the 2 h horizon, not at edge 1000.
  EXPECT_LE(fleet.streaming_stats().slices, 4u);
  EXPECT_EQ(fleet.streaming_stats().retired_by_event, 0u);
}

// The session-level property the streaming loop rests on: a campaign
// *constructed* at wall-clock t0 (CreateAt) replays the identical draw
// sequence as a campaign that started at wall-clock 0 and was *resumed* at
// t0 (Resume) over the same window -- the arrival process is anchored to
// the shared wall clock, not to the campaign, even when the rate is
// nonhomogeneous and t0 is off the bucket grid. (With a start-insensitive
// controller the full results are bit-identical; only the decision-epoch
// count differs, since Resume replays the original epoch grid.)
TEST(CampaignSessionPropertyTest, CreateAtMatchesResumeUnderNonhomogeneousRate) {
  const auto rate = arrival::PiecewiseConstantRate::Create(
                        {90.0, 10.0, 130.0, 40.0, 80.0, 5.0, 60.0, 25.0}, 0.25)
                        .value();
  LinearAcceptance acceptance;
  const double duration = 2.5;

  Rng master(TestSeed() + 17);
  for (const double t0 : {0.25, 0.75, 1.1, 2.0, 3.625}) {
    const Rng child = master.Fork();

    SimulatorConfig at_config;
    at_config.total_tasks = 60;
    at_config.horizon_hours = duration;  // Campaign clock: [0, duration].
    at_config.decision_interval_hours = 0.5;
    at_config.retention.max_rate = 0.25;

    SimulatorConfig resume_config = at_config;
    resume_config.horizon_hours = t0 + duration;  // Wall clock: [0, t0 + d].

    FixedOfferController at_controller(Offer{30.0, 2});
    CampaignSession created =
        CampaignSession::CreateAt(at_config, rate, acceptance, at_controller,
                                  child, t0)
            .value();
    EXPECT_EQ(created.start_hours(), t0);
    // Advance in uneven slices; slicing must not change the draws either.
    for (double until = t0 + 0.4; !created.done(); until += 0.4) {
      ASSERT_TRUE(created.AdvanceUntil(until).ok());
    }
    const SimulationResult want = std::move(created).TakeResult().value();

    FixedOfferController resume_controller(Offer{30.0, 2});
    CampaignSession resumed =
        CampaignSession::Resume(resume_config, rate, acceptance,
                                resume_controller, child, t0)
            .value();
    EXPECT_EQ(resumed.start_hours(), 0.0);
    EXPECT_EQ(resumed.clock_hours(), t0);
    ASSERT_TRUE(resumed.AdvanceUntil(resumed.end_hours()).ok());
    const SimulationResult got = std::move(resumed).TakeResult().value();

    ExpectBitIdentical(got, want, static_cast<int>(t0 * 1000));
  }

  // Resume rejects points past the horizon; CreateAt rejects negatives.
  SimulatorConfig config;
  config.total_tasks = 5;
  config.horizon_hours = 2.0;
  FixedOfferController controller(Offer{10.0, 1});
  EXPECT_TRUE(CampaignSession::Resume(config, rate, acceptance, controller,
                                      Rng(1), 2.5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CampaignSession::CreateAt(config, rate, acceptance, controller,
                                        Rng(1), -0.5)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace crowdprice::market
