// Randomized-instance property tests for the deadline DP solvers.
//
// Conjecture 1 (paper §3.2) says the optimal price is monotone in n, which
// is what lets SolveImprovedDp shrink its search brackets; these tests
// check, over randomized instances, that Algorithm 1 and Algorithm 2 (with
// and without time-monotonicity pruning) produce identical plans -- and
// that the thread-pooled layer scans are bit-identical to a serial solve,
// whatever the thread count.

#include "pricing/deadline_dp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "kernel/layer_scan.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "test_util.h"

namespace crowdprice::pricing {
namespace {

struct RandomInstance {
  DeadlineProblem problem;
  std::vector<double> lambdas;
  ActionSet actions;
};

RandomInstance MakeRandomInstance(Rng& rng) {
  DeadlineProblem problem;
  problem.num_tasks = 5 + static_cast<int>(rng.NextDouble() * 60.0);
  problem.num_intervals = 2 + static_cast<int>(rng.NextDouble() * 10.0);
  problem.penalty_cents = 20.0 + rng.NextDouble() * 400.0;
  // extra_penalty_alpha stays 0: the §3.3 extended penalty makes the price
  // spike as n -> 0 (see ExtendedPenaltyPricesHarderNearZeroRemaining in
  // deadline_dp_test), which violates Conjecture 1 -- the premise of
  // Algorithm 2's bracket shrinking. The equivalence property only holds on
  // the linear-penalty instances the conjecture covers.

  const double s = 8.0 + rng.NextDouble() * 14.0;
  const double b = -0.8 + rng.NextDouble() * 1.2;
  const double m = 500.0 + rng.NextDouble() * 3000.0;
  auto acceptance = choice::LogitAcceptance::Create(s, b, m);
  EXPECT_TRUE(acceptance.ok()) << acceptance.status();
  const int max_price = 10 + static_cast<int>(rng.NextDouble() * 40.0);
  auto actions = ActionSet::FromPriceGrid(max_price, *acceptance);
  EXPECT_TRUE(actions.ok()) << actions.status();

  // Arrival volumes spanning starved to saturated markets, with some
  // repeated rates so the truncated-Poisson cache path is exercised.
  std::vector<double> lambdas;
  const double base =
      problem.num_tasks * (0.2 + rng.NextDouble() * 3.0) / problem.num_intervals;
  for (int t = 0; t < problem.num_intervals; ++t) {
    lambdas.push_back(rng.NextDouble() < 0.5 ? base
                                             : base * (0.5 + rng.NextDouble()));
  }
  return RandomInstance{problem, std::move(lambdas), std::move(actions).value()};
}

void ExpectIdenticalPlans(const DeadlinePlan& a, const DeadlinePlan& b,
                          const char* label) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  for (int t = 0; t < a.num_intervals(); ++t) {
    for (int n = 1; n <= a.num_tasks(); ++n) {
      ASSERT_EQ(a.ActionIndexUnchecked(n, t), b.ActionIndexUnchecked(n, t))
          << label << " at (n=" << n << ", t=" << t << ")";
      // Bit-identical values, not just close: both solvers must evaluate
      // the winning action with the same arithmetic.
      ASSERT_EQ(a.OptUnchecked(n, t), b.OptUnchecked(n, t))
          << label << " Opt at (n=" << n << ", t=" << t << ")";
    }
  }
}

// Every registered kernel backend must uphold the equivalence property:
// within one backend, Algorithm 1, Algorithm 2 and the pruned variant
// produce bit-identical plans (the kernel's dense/bracketed scans share
// their arithmetic exactly -- the contract in kernel/layer_scan.h).
TEST(DpEquivalenceTest, SimpleAndImprovedAgreeOnRandomInstancesPerBackend) {
  for (const std::string& backend :
       kernel::KernelRegistry::Global().Available()) {
    SCOPED_TRACE(backend);
    Rng rng(20260726);
    for (int rep = 0; rep < 15; ++rep) {
      const RandomInstance instance = MakeRandomInstance(rng);
      DpOptions options;
      options.kernel_backend = backend;
      auto simple = SolveSimpleDp(instance.problem, instance.lambdas,
                                  instance.actions, options);
      ASSERT_TRUE(simple.ok()) << simple.status();
      EXPECT_EQ(simple->kernel_backend, backend);
      auto improved = SolveImprovedDp(instance.problem, instance.lambdas,
                                      instance.actions, options);
      ASSERT_TRUE(improved.ok()) << improved.status();
      ExpectIdenticalPlans(*simple, *improved, "simple vs improved");

      DpOptions pruned = options;
      pruned.time_monotonicity_pruning = true;
      auto improved_pruned = SolveImprovedDp(instance.problem, instance.lambdas,
                                             instance.actions, pruned);
      ASSERT_TRUE(improved_pruned.ok()) << improved_pruned.status();
      ExpectIdenticalPlans(*simple, *improved_pruned, "simple vs pruned");
      // Pruning may only reduce work.
      EXPECT_LE(improved_pruned->action_evaluations,
                improved->action_evaluations);
    }
  }
}

// SIMD backends agree with scalar within tolerance and pick the same
// actions on the reference instances (away from exact cost ties).
TEST(DpEquivalenceTest, BackendsAgreeWithScalarWithinTolerance) {
  if (kernel::KernelRegistry::Global().Available().size() < 2) {
    GTEST_SKIP() << "no SIMD backend registered on this host";
  }
  Rng rng(607);
  for (int rep = 0; rep < 6; ++rep) {
    const RandomInstance instance = MakeRandomInstance(rng);
    DpOptions scalar_options;
    scalar_options.kernel_backend = "scalar";
    auto want = SolveImprovedDp(instance.problem, instance.lambdas,
                                instance.actions, scalar_options);
    ASSERT_TRUE(want.ok()) << want.status();
    for (const std::string& backend :
         kernel::KernelRegistry::Global().Available()) {
      if (backend == "scalar") continue;  // the reference itself
      SCOPED_TRACE(backend);
      DpOptions options;
      options.kernel_backend = backend;
      auto got = SolveImprovedDp(instance.problem, instance.lambdas,
                                 instance.actions, options);
      ASSERT_TRUE(got.ok()) << got.status();
      for (int t = 0; t < want->num_intervals(); ++t) {
        for (int n = 1; n <= want->num_tasks(); ++n) {
          ASSERT_EQ(got->ActionIndexUnchecked(n, t),
                    want->ActionIndexUnchecked(n, t))
              << "argmin at (n=" << n << ", t=" << t << ")";
          const double w = want->OptUnchecked(n, t);
          ASSERT_NEAR(got->OptUnchecked(n, t), w,
                      1e-12 * std::max(1.0, std::abs(w)))
              << "Opt at (n=" << n << ", t=" << t << ")";
        }
      }
    }
  }
}

TEST(DpEquivalenceTest, ParallelSolvesAreBitIdenticalToSerial) {
  // N must clear the solver's internal parallelism threshold, and the
  // thread counts straddle hardware_concurrency on any machine.
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(35, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 600;
  problem.num_intervals = 8;
  problem.penalty_cents = 150.0;
  const std::vector<double> lambdas(8, 240.0);

  for (const std::string& backend :
       kernel::KernelRegistry::Global().Available()) {
    SCOPED_TRACE(backend);
    DpOptions serial;
    serial.num_threads = 1;
    serial.kernel_backend = backend;
    for (const bool monotone : {false, true}) {
      auto solve = [&](const DpOptions& options) {
        return monotone ? SolveImprovedDp(problem, lambdas, *actions, options)
                        : SolveSimpleDp(problem, lambdas, *actions, options);
      };
      auto baseline = solve(serial);
      ASSERT_TRUE(baseline.ok()) << baseline.status();
      EXPECT_EQ(baseline->threads_used, 1);
      for (const int threads : {2, 3, 4, 8}) {
        DpOptions parallel;
        parallel.num_threads = threads;
        parallel.kernel_backend = backend;
        auto plan = solve(parallel);
        ASSERT_TRUE(plan.ok()) << plan.status();
        // threads_used reports actual parallelism: the request capped by
        // the shared pool (pool workers + the calling thread).
        EXPECT_EQ(plan->threads_used,
                  std::min(threads, ThreadPool::Shared().size() + 1));
        ExpectIdenticalPlans(*baseline, *plan,
                             monotone ? "serial vs parallel (monotone)"
                                      : "serial vs parallel (simple)");
        // The parallel decomposition must not change the work done either.
        EXPECT_EQ(plan->action_evaluations, baseline->action_evaluations);
      }
    }
  }
}

TEST(DpEquivalenceTest, PoissonTableCacheReusesRepeatedRates) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(20, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 30;
  problem.num_intervals = 12;
  problem.penalty_cents = 100.0;
  // Constant trace: every interval repeats the same rates.
  const std::vector<double> lambdas(12, 90.0);
  auto plan = SolveImprovedDp(problem, lambdas, *actions);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // One table per action, built once; the other 11 layers reuse them.
  EXPECT_EQ(plan->poisson_tables_built, 21);
  EXPECT_EQ(plan->poisson_table_reuses, 21 * 11);
}

TEST(DpEquivalenceTest, RejectsNegativeThreadCount) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = ActionSet::FromPriceGrid(10, acceptance);
  ASSERT_TRUE(actions.ok());
  DeadlineProblem problem;
  problem.num_tasks = 5;
  problem.num_intervals = 2;
  problem.penalty_cents = 50.0;
  DpOptions options;
  options.num_threads = -2;
  EXPECT_TRUE(SolveSimpleDp(problem, {10.0, 10.0}, *actions, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(513);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(513, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MaxParallelismOneRunsOnTheCallingThread) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  int64_t sum = 0;
  int64_t elsewhere = 0;
  pool.ParallelFor(
      100,
      [&](int64_t i) {
        sum += i;  // inline: no races
        if (std::this_thread::get_id() != caller) ++elsewhere;
      },
      /*max_parallelism=*/1);
  EXPECT_EQ(sum, 99 * 100 / 2);
  EXPECT_EQ(elsewhere, 0);
  EXPECT_EQ(pool.submitted(), 0);
}

TEST(ThreadPoolTest, NestedParallelForOnOnePoolCompletes) {
  constexpr int64_t kSide = 64;
  for (const int workers : {1, 3}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(kSide * kSide);
    for (auto& h : hits) h.store(0);
    test_util::RunWithWatchdog(
        "nested ParallelFor", std::chrono::seconds(20), [&] {
          pool.ParallelFor(kSide, [&](int64_t row) {
            pool.ParallelFor(kSide, [&](int64_t col) {
              hits[static_cast<size_t>(row * kSide + col)].fetch_add(1);
            });
          });
        });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers " << workers << " cell " << i;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentRegionsOverlap) {
  // Two callers, each with a 2-index region on a 2-worker pool: each
  // region takes one helper, so all four bodies can be inside fn at once
  // only if neither region waits for the other.
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  std::atomic<int> saw_all{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto body = [&](int64_t) {
    inside.fetch_add(1);
    while (inside.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (inside.load() == 4) saw_all.fetch_add(1);
  };
  std::thread other([&] { pool.ParallelFor(2, body); });
  pool.ParallelFor(2, body);
  other.join();
  EXPECT_EQ(saw_all.load(), 4);
}

TEST(ThreadPoolTest, DestructorRunsEveryQueuedJob) {
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::thread releaser;
  {
    ThreadPool pool(1);
    std::shared_future<void> released = release.get_future().share();
    pool.Submit([released] { released.wait(); });
    for (int i = 0; i < 16; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
    // The only worker is parked on the first job, so the other 16 are
    // still queued when the destructor starts.
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release.set_value();
    });
  }
  releaser.join();
  EXPECT_EQ(ran.load(), 16);
}

#if defined(__linux__)
TEST(ThreadPoolTest, BackgroundWorkersRunAtIdlePriority) {
  ThreadPool background(1, /*background=*/true);
  ThreadPool normal(1);
  std::promise<int> background_policy;
  std::promise<int> normal_policy;
  background.Submit(
      [&] { background_policy.set_value(sched_getscheduler(0)); });
  normal.Submit([&] { normal_policy.set_value(sched_getscheduler(0)); });
  EXPECT_EQ(background_policy.get_future().get(), SCHED_IDLE);
  EXPECT_EQ(normal_policy.get_future().get(), sched_getscheduler(0));
}
#endif

}  // namespace
}  // namespace crowdprice::pricing
