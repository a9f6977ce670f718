// ResolveLane tests: the serving layer's async re-solve path. Re-solves
// run on a ThreadPool farm and hot-swap artifacts through the RCU
// snapshot publish, so a re-solve storm must never block DecideBatch --
// the threaded storm test below is the TSan CI coverage for that claim.
// Also: per-campaign coalescing, retirement races counted as lost swaps,
// and input validation.

#include "serving/resolve_lane.h"

#include <atomic>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "serving/campaign_shard_map.h"
#include "util/thread_pool.h"

#include "test_util.h"

namespace crowdprice::serving {
namespace {

const choice::LogitAcceptance& PaperAcceptance() {
  static const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  return acceptance;
}

engine::PolicyArtifact SmallDeadlineArtifact(int num_tasks = 12,
                                             double lambda = 900.0) {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = num_tasks;
  spec.problem.num_intervals = 4;
  spec.problem.penalty_cents = 150.0;
  spec.interval_lambdas.assign(4, lambda);
  spec.actions = pricing::ActionSet::FromPriceGrid(20, PaperAcceptance()).value();
  return engine::Engine::Solve(spec).value();
}

CampaignLimits SmallLimits(int num_tasks = 12) {
  CampaignLimits limits;
  limits.total_tasks = num_tasks;
  limits.deadline_hours = 12.0;
  return limits;
}

Result<CampaignId> Admit(CampaignShardMap& map,
                         engine::PolicyArtifact artifact,
                         const CampaignLimits& limits) {
  CP_ASSIGN_OR_RETURN(
      const ControlOutcome outcome,
      map.Apply(ControlOp::Admit(std::move(artifact), limits)));
  return outcome.id;
}

TEST(ServingResolveTest, RescaleSolvesAndHotSwaps) {
  auto map = CampaignShardMap::Create(2).value();
  CampaignId id = Admit(map, SmallDeadlineArtifact(), SmallLimits()).value();

  ThreadPool pool(2);
  ResolveLane lane(&map, &pool);
  ASSERT_TRUE(lane.EnqueueRescale(id, 2.0).ok());
  lane.Drain();

  const ResolveLane::Stats stats = lane.stats();
  EXPECT_EQ(stats.enqueued, 1);
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.solve_failures, 0);
  EXPECT_EQ(stats.swapped, 1);
  EXPECT_EQ(stats.swap_failures, 0);
  EXPECT_GE(map.TotalStats().swapped, 1u);

  // The campaign keeps serving through and after the swap, and its new
  // policy is the doubled-arrivals solve.
  auto sheet = map.Decide(id, market::DecisionRequest::Single(0.0, 12));
  ASSERT_TRUE(sheet.ok()) << sheet.status();
  auto expected = SmallDeadlineArtifact(12, 1800.0);
  auto controller = expected.MakeController(12.0);
  ASSERT_TRUE(controller.ok());
  auto want = test_util::SingleOffer(**controller, 0.0, 12);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(sheet->offers[0].per_task_reward_cents,
            want->per_task_reward_cents);
}

TEST(ServingResolveTest, StormOnOneCampaignCoalesces) {
  auto map = CampaignShardMap::Create(1).value();
  CampaignId id = Admit(map, SmallDeadlineArtifact(), SmallLimits()).value();

  // A single-worker pool whose worker is parked on a blocker job: every
  // rescale issued meanwhile stays queued, so the 2nd and 3rd coalesce
  // onto the 1st.
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  pool.Submit([&started, release_future] {
    started.set_value();
    release_future.wait();
  });
  started.get_future().wait();

  ResolveLane lane(&map, &pool);
  ASSERT_TRUE(lane.EnqueueRescale(id, 1.5).ok());
  ASSERT_TRUE(lane.EnqueueRescale(id, 1.5).ok());
  ASSERT_TRUE(lane.EnqueueRescale(id, 0.5).ok());
  release.set_value();
  lane.Drain();

  const ResolveLane::Stats stats = lane.stats();
  EXPECT_EQ(stats.enqueued, 1);
  EXPECT_EQ(stats.coalesced, 2);
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.swapped, 1);

  // The storm over, a fresh trigger starts the next solve.
  ASSERT_TRUE(lane.EnqueueRescale(id, 0.5).ok());
  lane.Drain();
  EXPECT_EQ(lane.stats().enqueued, 2);
}

TEST(ServingResolveTest, RetirementDuringSolveIsALostSwapNotAnError) {
  auto map = CampaignShardMap::Create(1).value();
  CampaignId id = Admit(map, SmallDeadlineArtifact(), SmallLimits()).value();

  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  pool.Submit([&started, release_future] {
    started.set_value();
    release_future.wait();
  });
  started.get_future().wait();

  ResolveLane lane(&map, &pool);
  ASSERT_TRUE(lane.EnqueueRescale(id, 2.0).ok());
  ASSERT_TRUE(map.Apply(ControlOp::Retire(id)).ok());
  release.set_value();
  lane.Drain();

  const ResolveLane::Stats stats = lane.stats();
  EXPECT_EQ(stats.solved, 1);
  EXPECT_EQ(stats.swapped, 0);
  EXPECT_EQ(stats.swap_failures, 1);
}

TEST(ServingResolveTest, ValidatesInputs) {
  auto map = CampaignShardMap::Create(1).value();
  CampaignId id = Admit(map, SmallDeadlineArtifact(), SmallLimits()).value();
  ThreadPool pool(1);
  ResolveLane lane(&map, &pool);

  EXPECT_TRUE(lane.EnqueueRescale(id, 0.0).IsInvalidArgument());
  EXPECT_TRUE(lane.EnqueueRescale(id, -1.0).IsInvalidArgument());
  EXPECT_TRUE(lane.EnqueueRescale(id, std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  EXPECT_TRUE(lane.EnqueueRescale(id + 999, 1.5).IsNotFound());

  // A non-deadline policy has no arrival belief to rescale.
  engine::FixedPriceSpec fixed;
  fixed.num_tasks = 10;
  fixed.interval_lambdas.assign(4, 1500.0);
  fixed.acceptance = &PaperAcceptance();
  fixed.max_price_cents = 40;
  CampaignId fixed_id =
      Admit(map, engine::Engine::Solve(fixed).value(), SmallLimits(10)).value();
  EXPECT_TRUE(
      lane.EnqueueRescale(fixed_id, 1.5).IsFailedPrecondition());

  EXPECT_EQ(lane.stats().enqueued, 0);
}

// The TSan storm: reader threads hammer DecideBatch while a storm thread
// floods the lane with rescales. Decides must keep succeeding throughout
// (the swap publishes RCU snapshots; readers never block on a solve), and
// the lane/map counters must reconcile exactly once drained. The storm
// starts only after every reader has answered a batch, so the readers
// overlap it however fast it runs.
TEST(ServingResolveTest, ResolveStormNeverBlocksOrBreaksDecideBatch) {
  constexpr int kCampaigns = 8;
  constexpr int kReaders = 3;
  constexpr int kRescales = 36;

  auto map = CampaignShardMap::Create(4).value();
  std::vector<CampaignId> ids;
  for (int i = 0; i < kCampaigns; ++i) {
    ids.push_back(
        Admit(map, SmallDeadlineArtifact(12, 800.0 + 50.0 * i), SmallLimits())
            .value());
  }

  ThreadPool pool(2);
  ResolveLane lane(&map, &pool);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> sheets_served{0};
  std::latch readers_answered(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&map, &ids, &stop, &sheets_served,
                          &readers_answered] {
      bool answered = false;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<DecideRequest> requests;
        requests.reserve(ids.size());
        for (CampaignId id : ids) {
          requests.push_back(DecideRequest::Single(id, 1.0, 12));
        }
        const std::vector<DecideResponse> responses = map.DecideBatch(requests);
        // Counted before the assertions, so a failing reader cannot leave
        // the storm waiting.
        if (!answered) {
          answered = true;
          readers_answered.count_down();
        }
        for (const DecideResponse& response : responses) {
          ASSERT_TRUE(response.status.ok()) << response.status;
          ASSERT_FALSE(response.sheet.offers.empty());
        }
        sheets_served.fetch_add(static_cast<int64_t>(requests.size()),
                                std::memory_order_relaxed);
      }
    });
  }

  readers_answered.wait();
  std::thread storm([&lane, &ids] {
    for (int i = 0; i < kRescales; ++i) {
      const double factor = i % 2 == 0 ? 1.25 : 0.8;
      ASSERT_TRUE(
          lane.EnqueueRescale(ids[static_cast<size_t>(i) % ids.size()], factor)
              .ok());
    }
  });
  storm.join();
  lane.Drain();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  const ResolveLane::Stats stats = lane.stats();
  EXPECT_EQ(stats.enqueued + stats.coalesced, kRescales);
  EXPECT_EQ(stats.solved + stats.solve_failures, stats.enqueued);
  EXPECT_EQ(stats.solve_failures, 0);
  EXPECT_EQ(stats.swapped, stats.solved);  // nothing retired mid-storm
  EXPECT_EQ(stats.swap_failures, 0);
  EXPECT_GT(stats.swapped, 0);
  EXPECT_EQ(map.TotalStats().swapped, static_cast<uint64_t>(stats.swapped));
  EXPECT_GT(sheets_served.load(), 0);

  // Every campaign still serves after the storm.
  for (CampaignId id : ids) {
    auto sheet = map.Decide(id, market::DecisionRequest::Single(1.0, 12));
    EXPECT_TRUE(sheet.ok()) << sheet.status();
  }
  map.QuiesceReclamation();
}

}  // namespace
}  // namespace crowdprice::serving
