// SolveWave tests: batched solving over a ThreadPool farm is
// bit-identical to sequential Engine::Solve (Serialize() equality, plus the
// cost-to-go tables the policy-only texts leave out), for any pool size
// and for waves run side by side or nested on one pool;
// mixed-kind waves keep spec order with per-slot errors;
// coinciding rate profiles share pmf blocks through the wave's cache; and
// evaluate=true precomputes the same nominal evaluation Evaluate() would.

#include "engine/solve_wave.h"

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "kernel/pmf_cache.h"
#include "pricing/policy_eval.h"

#include "test_util.h"

namespace crowdprice::engine {
namespace {

const choice::LogitAcceptance& PaperAcceptance() {
  static const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  return acceptance;
}

DeadlineDpSpec DeadlineSpec(int num_tasks, double lambda,
                            double penalty = 180.0) {
  DeadlineDpSpec spec;
  spec.problem.num_tasks = num_tasks;
  spec.problem.num_intervals = 6;
  spec.problem.penalty_cents = penalty;
  spec.interval_lambdas.assign(6, lambda);
  spec.actions = pricing::ActionSet::FromPriceGrid(30, PaperAcceptance()).value();
  return spec;
}

// A fleet-shaped wave: many campaigns stamped from few rate profiles (the
// sharing opportunity SolveWave exists for), plus non-deadline kinds.
std::vector<PolicySpec> MixedWave() {
  MultiTypeSpec multitype;
  multitype.s1 = 10.0;
  multitype.b1 = 1.2;
  multitype.s2 = 10.0;
  multitype.b2 = 1.0;
  multitype.m = 200.0;
  multitype.problem.num_tasks_1 = 4;
  multitype.problem.num_tasks_2 = 3;
  multitype.problem.num_intervals = 3;
  multitype.problem.penalty_1_cents = 100.0;
  multitype.problem.penalty_2_cents = 90.0;
  multitype.problem.max_price_cents = 20;
  multitype.problem.price_stride = 4;
  multitype.interval_lambdas.assign(3, 30.0);
  std::vector<PolicySpec> specs;
  for (int i = 0; i < 6; ++i) {
    // Two distinct profiles, three campaigns each; tasks vary per campaign.
    specs.push_back(DeadlineSpec(15 + i, i % 2 == 0 ? 1400.0 : 2100.0));
  }
  FixedPriceSpec fixed;
  fixed.num_tasks = 20;
  fixed.interval_lambdas.assign(6, 1500.0);
  fixed.acceptance = &PaperAcceptance();
  fixed.max_price_cents = 40;
  specs.push_back(fixed);
  BudgetStaticSpec budget;
  budget.num_tasks = 40;
  budget.budget_cents = 600.0;
  budget.acceptance = &PaperAcceptance();
  budget.max_price_cents = 40;
  specs.push_back(budget);
  specs.push_back(multitype);
  return specs;
}

// Serialize() carries a plan's policy only, so the cost-to-go tables of
// deadline and multitype artifacts are compared here, bit for bit.
void ExpectSameOptTables(const PolicyArtifact& got, const PolicyArtifact& want,
                         const std::string& where) {
  ASSERT_EQ(got.kind(), want.kind()) << where;
  if (want.kind() == PolicyKind::kDeadlineDp) {
    const pricing::DeadlinePlan& a = *got.deadline_plan().value();
    const pricing::DeadlinePlan& b = *want.deadline_plan().value();
    ASSERT_EQ(a.num_tasks(), b.num_tasks()) << where;
    ASSERT_EQ(a.num_intervals(), b.num_intervals()) << where;
    const size_t cells = static_cast<size_t>(b.num_tasks() + 1) *
                         static_cast<size_t>(b.num_intervals() + 1);
    EXPECT_EQ(std::memcmp(a.OptLayer(0), b.OptLayer(0), cells * sizeof(double)),
              0)
        << where << ": deadline opt tables differ";
  } else if (want.kind() == PolicyKind::kMultiType) {
    const std::vector<double>& a = got.multitype_plan().value()->opt();
    const std::vector<double>& b = want.multitype_plan().value()->opt();
    ASSERT_EQ(a.size(), b.size()) << where;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), b.size() * sizeof(double)), 0)
        << where << ": multitype opt tables differ";
  }
}

TEST(SolveWaveTest, BitIdenticalToSequentialSolveForAnyPoolSize) {
  std::vector<PolicySpec> specs = MixedWave();
  std::vector<PolicyArtifact> solved;
  std::vector<std::string> sequential;
  for (const PolicySpec& spec : specs) {
    auto artifact = Engine::Solve(spec);
    ASSERT_TRUE(artifact.ok()) << artifact.status();
    sequential.push_back(artifact->Serialize().value());
    solved.push_back(std::move(artifact).value());
  }

  for (int threads : {1, 2, 3}) {
    ThreadPool pool(threads);
    kernel::PmfShareCache cache;
    SolveWaveOptions options;
    options.pool = &pool;
    options.share_cache = &cache;
    auto results = SolveWave(specs, options);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << "pool=" << threads << " slot " << i << ": "
          << results[i].status();
      EXPECT_EQ(results[i]->Serialize().value(), sequential[i])
          << "pool=" << threads << " slot " << i;
      ExpectSameOptTables(*results[i], solved[i],
                          "pool=" + std::to_string(threads) + " slot " +
                              std::to_string(i));
    }
  }
}

TEST(SolveWaveTest, CoincidingProfilesSharePmfBlocks) {
  std::vector<PolicySpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(DeadlineSpec(20 + i, 1700.0));  // one shared profile
  }
  ThreadPool pool(2);
  kernel::PmfShareCache cache;
  SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = &cache;
  auto results = SolveWave(specs, options);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  const kernel::PmfArena::Stats stats = cache.stats();
  EXPECT_GT(stats.blocks_built, 0);
  // Four campaigns on one rate profile: every solve after the first adopts
  // the first one's blocks instead of rebuilding them.
  EXPECT_GT(stats.blocks_shared, 0);
  EXPECT_GT(cache.resident_bytes(), 0u);
}

TEST(SolveWaveTest, PerSlotErrorsNeverPoisonTheWave) {
  std::vector<PolicySpec> specs;
  specs.push_back(DeadlineSpec(15, 1400.0));
  DeadlineDpSpec bad = DeadlineSpec(15, 1400.0);
  bad.actions.reset();  // Solve rejects a spec without actions
  specs.push_back(bad);
  specs.push_back(DeadlineSpec(18, 2100.0));

  // No pool: the wave runs on ThreadPool::Shared().
  auto results = SolveWave(specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  EXPECT_TRUE(results[2].ok()) << results[2].status();
}

TEST(SolveWaveTest, EvaluateFlagPrecomputesNominalEvaluation) {
  std::vector<PolicySpec> specs;
  specs.push_back(DeadlineSpec(15, 1400.0));
  specs.push_back(DeadlineSpec(22, 2100.0));

  ThreadPool pool(2);
  kernel::PmfShareCache cache;
  SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = &cache;
  options.evaluate = true;
  auto results = SolveWave(specs, options);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    auto cached = results[i]->deadline_evaluation();
    ASSERT_TRUE(cached.ok()) << cached.status();
    // The precomputed evaluation is the same nominal forward pass a
    // sequential Evaluate() call runs.
    auto sequential = Engine::Solve(specs[i]);
    ASSERT_TRUE(sequential.ok());
    auto eval = sequential->Evaluate();
    ASSERT_TRUE(eval.ok()) << eval.status();
    EXPECT_DOUBLE_EQ((*cached)->expected_objective, eval->expected_objective);
    EXPECT_DOUBLE_EQ((*cached)->expected_cost_cents, eval->expected_cost_cents);
    EXPECT_DOUBLE_EQ((*cached)->expected_remaining, eval->expected_remaining);
  }
}

TEST(SolveWaveTest, AdaptiveSpecsPassThroughUntouched) {
  AdaptiveSpec adaptive;
  adaptive.problem.num_tasks = 15;
  adaptive.problem.num_intervals = 4;
  adaptive.problem.penalty_cents = 120.0;
  adaptive.believed_lambdas.assign(4, 300.0);
  adaptive.actions = pricing::ActionSet::FromPriceGrid(25, PaperAcceptance()).value();
  adaptive.horizon_hours = 8.0;
  std::vector<PolicySpec> specs;
  specs.push_back(adaptive);

  ThreadPool pool(1);
  SolveWaveOptions options;
  options.pool = &pool;
  auto results = SolveWave(specs, options);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0]->kind(), PolicyKind::kAdaptive);
  auto controller = results[0]->MakeAdaptiveController();
  ASSERT_TRUE(controller.ok()) << controller.status();
  auto offer = test_util::SingleOffer(*controller, 0.0, 15);
  ASSERT_TRUE(offer.ok()) << offer.status();
}

TEST(SolveWaveTest, PoolCountersBalanceAfterWaves) {
  ThreadPool pool(2);
  std::vector<PolicySpec> specs;
  for (int i = 0; i < 5; ++i) specs.push_back(DeadlineSpec(12 + i, 1600.0));
  SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = nullptr;  // sharing off is also a supported mode
  auto results = SolveWave(specs, options);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  // The wave returns once every helper inside its region is done; a helper
  // that starts later finds the region closed and returns, and a worker
  // counts a job as completed only after it returns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.completed() < pool.submitted() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.completed(), pool.submitted());
  // A wave is one ParallelFor region: at most one helper job per worker,
  // whatever the number of specs.
  EXPECT_LE(pool.submitted(), pool.size());
}

TEST(SolveWaveTest, ConcurrentAndNestedWavesMatchSequential) {
  const std::vector<PolicySpec> specs = MixedWave();
  std::vector<PolicyArtifact> solved;
  std::vector<std::string> sequential;
  for (const PolicySpec& spec : specs) {
    auto artifact = Engine::Solve(spec);
    ASSERT_TRUE(artifact.ok()) << artifact.status();
    sequential.push_back(artifact->Serialize().value());
    solved.push_back(std::move(artifact).value());
  }

  // Two caller threads each run a wave on one pool while a third wave runs
  // inside a job on that same pool, so regions close side by side and one
  // nests on a worker.
  std::vector<std::vector<Result<PolicyArtifact>>> waves(3);
  test_util::RunWithWatchdog(
      "concurrent and nested waves", std::chrono::seconds(120), [&] {
        kernel::PmfShareCache cache;
        ThreadPool pool(2);
        SolveWaveOptions options;
        options.pool = &pool;
        options.share_cache = &cache;
        std::promise<std::vector<Result<PolicyArtifact>>> nested;
        std::future<std::vector<Result<PolicyArtifact>>> nested_wave =
            nested.get_future();
        pool.Submit([&] { nested.set_value(SolveWave(specs, options)); });
        std::thread first([&] { waves[0] = SolveWave(specs, options); });
        std::thread second([&] { waves[1] = SolveWave(specs, options); });
        first.join();
        second.join();
        waves[2] = nested_wave.get();
      });

  for (size_t w = 0; w < waves.size(); ++w) {
    ASSERT_EQ(waves[w].size(), specs.size()) << "wave " << w;
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(waves[w][i].ok())
          << "wave " << w << " slot " << i << ": " << waves[w][i].status();
      EXPECT_EQ(waves[w][i]->Serialize().value(), sequential[i])
          << "wave " << w << " slot " << i;
      ExpectSameOptTables(*waves[w][i], solved[i],
                          "wave " + std::to_string(w) + " slot " +
                              std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace crowdprice::engine
