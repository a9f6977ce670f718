#include "pricing/deadline_dp.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "stats/poisson.h"
#include "util/rng.h"

namespace crowdprice::pricing {
namespace {

choice::LogitAcceptance PaperAcceptance() {
  return choice::LogitAcceptance::Paper2014();
}

DeadlineProblem SmallProblem() {
  DeadlineProblem p;
  p.num_tasks = 20;
  p.num_intervals = 6;
  p.penalty_cents = 200.0;
  return p;
}

std::vector<double> ConstantLambdas(int nt, double lambda) {
  return std::vector<double>(static_cast<size_t>(nt), lambda);
}

TEST(DeadlineProblemTest, Validation) {
  DeadlineProblem p = SmallProblem();
  p.num_tasks = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p = SmallProblem();
  p.num_intervals = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p = SmallProblem();
  p.penalty_cents = -1.0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p = SmallProblem();
  p.truncation_epsilon = 0.0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p = SmallProblem();
  p.truncation_epsilon = 1.0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  EXPECT_TRUE(SmallProblem().Validate().ok());
}

TEST(DeadlineProblemTest, TerminalPenalty) {
  DeadlineProblem p = SmallProblem();
  EXPECT_DOUBLE_EQ(p.TerminalPenalty(0), 0.0);
  EXPECT_DOUBLE_EQ(p.TerminalPenalty(3), 600.0);
  p.extra_penalty_alpha = 2.0;
  EXPECT_DOUBLE_EQ(p.TerminalPenalty(0), 0.0);
  EXPECT_DOUBLE_EQ(p.TerminalPenalty(3), 1000.0);  // (3 + 2) * 200
  EXPECT_DOUBLE_EQ(p.TerminalPenalty(1), 600.0);   // (1 + 2) * 200
}

TEST(SolveSimpleDpTest, InputValidation) {
  auto acceptance = PaperAcceptance();
  auto actions = ActionSet::FromPriceGrid(30, acceptance).value();
  DeadlineProblem p = SmallProblem();
  // Mismatched lambda count.
  EXPECT_TRUE(SolveSimpleDp(p, ConstantLambdas(5, 100.0), actions)
                  .status()
                  .IsInvalidArgument());
  // Negative lambda.
  auto lambdas = ConstantLambdas(6, 100.0);
  lambdas[2] = -1.0;
  EXPECT_TRUE(SolveSimpleDp(p, lambdas, actions).status().IsInvalidArgument());
  // NaN lambda.
  lambdas[2] = std::nan("");
  EXPECT_TRUE(SolveSimpleDp(p, lambdas, actions).status().IsInvalidArgument());
}

TEST(SolveSimpleDpTest, TerminalLayerSetFromPenalty) {
  auto actions = ActionSet::FromPriceGrid(10, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 100.0), actions).value();
  for (int n = 0; n <= p.num_tasks; ++n) {
    EXPECT_DOUBLE_EQ(plan.OptAt(n, p.num_intervals).value(),
                     p.penalty_cents * n);
  }
}

TEST(SolveSimpleDpTest, SingleStateAnalyticCheck) {
  // N = 1, NT = 1, single action: Opt(1,0) = (1 - e^-mu) c + e^-mu * penalty.
  DeadlineProblem p;
  p.num_tasks = 1;
  p.num_intervals = 1;
  p.penalty_cents = 50.0;
  std::vector<PricingAction> raw{{10.0, 1, 0.5}};
  auto actions = ActionSet::FromActions(raw).value();
  auto plan = SolveSimpleDp(p, {2.0}, actions).value();  // mu = 1.0
  const double mu = 1.0;
  const double expected = (1.0 - std::exp(-mu)) * 10.0 + std::exp(-mu) * 50.0;
  EXPECT_NEAR(plan.OptAt(1, 0).value(), expected, 1e-9);
  EXPECT_EQ(plan.ActionIndexAt(1, 0).value(), 0);
}

TEST(SolveSimpleDpTest, ZeroLambdaMeansPenaltyOnly) {
  auto actions = ActionSet::FromPriceGrid(20, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 0.0), actions).value();
  for (int n = 1; n <= p.num_tasks; ++n) {
    EXPECT_NEAR(plan.OptAt(n, 0).value(), n * p.penalty_cents, 1e-9);
    // No workers: price is irrelevant; ties resolve to the lowest price.
    EXPECT_EQ(plan.ActionIndexAt(n, 0).value(), 0);
  }
}

TEST(SolveSimpleDpTest, OptMonotoneInRemainingTasks) {
  auto actions = ActionSet::FromPriceGrid(40, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 800.0), actions).value();
  for (int t = 0; t <= p.num_intervals; ++t) {
    for (int n = 1; n <= p.num_tasks; ++n) {
      EXPECT_LE(plan.OptAt(n - 1, t).value(), plan.OptAt(n, t).value() + 1e-9)
          << "n = " << n << ", t = " << t;
    }
  }
}

TEST(SolveSimpleDpTest, MoreTimeNeverHurtsUnderStationaryArrivals) {
  auto actions = ActionSet::FromPriceGrid(40, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 800.0), actions).value();
  for (int n = 0; n <= p.num_tasks; ++n) {
    for (int t = 0; t < p.num_intervals; ++t) {
      EXPECT_LE(plan.OptAt(n, t).value(), plan.OptAt(n, t + 1).value() + 1e-9)
          << "n = " << n << ", t = " << t;
    }
  }
}

TEST(SolveSimpleDpTest, HigherPenaltyRaisesInitialPrice) {
  auto actions = ActionSet::FromPriceGrid(40, PaperAcceptance()).value();
  DeadlineProblem low = SmallProblem();
  low.penalty_cents = 30.0;
  DeadlineProblem high = SmallProblem();
  high.penalty_cents = 3000.0;
  auto lambdas = ConstantLambdas(6, 400.0);
  auto plan_low = SolveSimpleDp(low, lambdas, actions).value();
  auto plan_high = SolveSimpleDp(high, lambdas, actions).value();
  EXPECT_LE(plan_low.PriceAt(low.num_tasks, 0).value(),
            plan_high.PriceAt(high.num_tasks, 0).value());
  EXPECT_LT(plan_low.TotalObjective(), plan_high.TotalObjective());
}

TEST(SolveSimpleDpTest, DominatesAnyFixedPricePolicy) {
  // The DP optimum is no worse than playing any constant price.
  auto acceptance = PaperAcceptance();
  auto actions = ActionSet::FromPriceGrid(40, acceptance).value();
  DeadlineProblem p = SmallProblem();
  auto lambdas = ConstantLambdas(6, 600.0);
  auto plan = SolveSimpleDp(p, lambdas, actions).value();
  for (int c : {5, 12, 20, 40}) {
    DeadlinePlan fixed(p, actions, lambdas);
    for (int n = 1; n <= p.num_tasks; ++n) {
      for (int t = p.num_intervals - 1; t >= 0; --t) {
        fixed.SetActionIndex(n, t, c);
      }
    }
    // Evaluate the fixed plan by one backward sweep using the DP's own
    // machinery: cost of the fixed policy from (N, 0).
    // (Build values bottom-up with the same transition law.)
    for (int t = p.num_intervals - 1; t >= 0; --t) {
      auto tp = stats::MakeTruncatedPoisson(
                    lambdas[static_cast<size_t>(t)] *
                        acceptance.ProbabilityAt(static_cast<double>(c)),
                    p.truncation_epsilon)
                    .value();
      for (int n = 1; n <= p.num_tasks; ++n) {
        double cost = 0.0, cum = 0.0;
        for (int s = 0; s < static_cast<int>(tp.pmf.size()) && s < n; ++s) {
          cost += tp.pmf[static_cast<size_t>(s)] *
                  (c * s + fixed.OptUnchecked(n - s, t + 1));
          cum += tp.pmf[static_cast<size_t>(s)];
        }
        cost += (1.0 - cum) * c * n;
        fixed.SetOpt(n, t, cost);
      }
    }
    EXPECT_LE(plan.TotalObjective(), fixed.TotalObjective() + 1e-6)
        << "fixed price " << c;
  }
}

TEST(SolveSimpleDpTest, BundledActionsAnalyticCheck) {
  // One action with bundle = 4: one interval, N = 10.
  // Opt(10, 0) = sum_k pmf(k) * cost * min(10, 4k) with the tail at cost*10.
  DeadlineProblem p;
  p.num_tasks = 10;
  p.num_intervals = 1;
  p.penalty_cents = 0.0;  // isolate transition costs
  std::vector<PricingAction> raw{{2.0, 4, 0.5}};
  auto actions = ActionSet::FromActions(raw).value();
  const double mu = 3.0 * 0.5;
  auto plan = SolveSimpleDp(p, {3.0}, actions).value();
  double expected = 0.0, cum = 0.0;
  for (int k = 0; k * 4 < 10; ++k) {
    expected += stats::PoissonPmf(k, mu) * 2.0 * (4 * k);
    cum += stats::PoissonPmf(k, mu);
  }
  expected += (1.0 - cum) * 2.0 * 10;
  EXPECT_NEAR(plan.OptAt(10, 0).value(), expected, 1e-9);
}

TEST(SolveImprovedDpTest, RejectsBundledActions) {
  std::vector<PricingAction> raw{{2.0, 4, 0.5}, {4.0, 2, 0.7}};
  auto actions = ActionSet::FromActions(raw).value();
  DeadlineProblem p = SmallProblem();
  EXPECT_TRUE(SolveImprovedDp(p, ConstantLambdas(6, 10.0), actions)
                  .status()
                  .IsFailedPrecondition());
}

// --- Equivalence & monotonicity property sweep ------------------------------

struct DpCase {
  int num_tasks;
  int num_intervals;
  double lambda_scale;
  double penalty;
  int max_price;
};

class DpEquivalenceTest : public ::testing::TestWithParam<DpCase> {};

TEST_P(DpEquivalenceTest, ImprovedMatchesSimple) {
  const DpCase c = GetParam();
  auto acceptance = PaperAcceptance();
  auto actions = ActionSet::FromPriceGrid(c.max_price, acceptance).value();
  DeadlineProblem p;
  p.num_tasks = c.num_tasks;
  p.num_intervals = c.num_intervals;
  p.penalty_cents = c.penalty;
  // Non-stationary lambdas to exercise the general case.
  std::vector<double> lambdas;
  Rng rng(static_cast<uint64_t>(c.num_tasks * 1000 + c.num_intervals));
  for (int t = 0; t < c.num_intervals; ++t) {
    lambdas.push_back(c.lambda_scale * (0.5 + rng.NextDouble()));
  }
  auto simple = SolveSimpleDp(p, lambdas, actions).value();
  auto improved = SolveImprovedDp(p, lambdas, actions).value();
  for (int t = 0; t < p.num_intervals; ++t) {
    for (int n = 1; n <= p.num_tasks; ++n) {
      ASSERT_NEAR(simple.OptAt(n, t).value(), improved.OptAt(n, t).value(), 1e-9)
          << "n = " << n << ", t = " << t;
      ASSERT_EQ(simple.ActionIndexAt(n, t).value(),
                improved.ActionIndexAt(n, t).value())
          << "n = " << n << ", t = " << t;
    }
  }
  // The divide-and-conquer search must not do more work, and strictly less
  // once there are enough states for the bracketing to bite.
  if (c.num_tasks >= 4) {
    EXPECT_LT(improved.action_evaluations, simple.action_evaluations);
  } else {
    EXPECT_LE(improved.action_evaluations, simple.action_evaluations);
  }
}

TEST_P(DpEquivalenceTest, Conjecture1PriceMonotoneInN) {
  const DpCase c = GetParam();
  auto actions = ActionSet::FromPriceGrid(c.max_price, PaperAcceptance()).value();
  DeadlineProblem p;
  p.num_tasks = c.num_tasks;
  p.num_intervals = c.num_intervals;
  p.penalty_cents = c.penalty;
  auto plan =
      SolveSimpleDp(p, ConstantLambdas(c.num_intervals, c.lambda_scale), actions)
          .value();
  for (int t = 0; t < p.num_intervals; ++t) {
    for (int n = 2; n <= p.num_tasks; ++n) {
      EXPECT_LE(plan.PriceAt(n - 1, t).value(), plan.PriceAt(n, t).value())
          << "n = " << n << ", t = " << t;
    }
  }
}

TEST_P(DpEquivalenceTest, PriceMonotoneInTimeUnderStationaryArrivals) {
  const DpCase c = GetParam();
  auto actions = ActionSet::FromPriceGrid(c.max_price, PaperAcceptance()).value();
  DeadlineProblem p;
  p.num_tasks = c.num_tasks;
  p.num_intervals = c.num_intervals;
  p.penalty_cents = c.penalty;
  auto plan =
      SolveSimpleDp(p, ConstantLambdas(c.num_intervals, c.lambda_scale), actions)
          .value();
  for (int n = 1; n <= p.num_tasks; ++n) {
    for (int t = 1; t < p.num_intervals; ++t) {
      EXPECT_LE(plan.PriceAt(n, t - 1).value(), plan.PriceAt(n, t).value())
          << "n = " << n << ", t = " << t;
    }
  }
}

TEST_P(DpEquivalenceTest, TimePruningMatchesWhenEnabled) {
  const DpCase c = GetParam();
  auto actions = ActionSet::FromPriceGrid(c.max_price, PaperAcceptance()).value();
  DeadlineProblem p;
  p.num_tasks = c.num_tasks;
  p.num_intervals = c.num_intervals;
  p.penalty_cents = c.penalty;
  const auto lambdas = ConstantLambdas(c.num_intervals, c.lambda_scale);
  DpOptions pruned;
  pruned.time_monotonicity_pruning = true;
  auto base = SolveImprovedDp(p, lambdas, actions).value();
  auto fast = SolveImprovedDp(p, lambdas, actions, pruned).value();
  for (int t = 0; t < p.num_intervals; ++t) {
    for (int n = 1; n <= p.num_tasks; ++n) {
      ASSERT_EQ(base.ActionIndexAt(n, t).value(), fast.ActionIndexAt(n, t).value())
          << "n = " << n << ", t = " << t;
    }
  }
  EXPECT_LE(fast.action_evaluations, base.action_evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpEquivalenceTest,
    ::testing::Values(DpCase{5, 3, 50.0, 100.0, 25},
                      DpCase{30, 8, 400.0, 300.0, 40},
                      DpCase{50, 4, 1500.0, 80.0, 30},
                      DpCase{12, 12, 120.0, 1000.0, 35},
                      DpCase{1, 1, 10.0, 500.0, 20},
                      DpCase{64, 6, 900.0, 50.0, 45}));

TEST(SolveSimpleDpTest, ExtendedPenaltyPricesHarderNearZeroRemaining) {
  // §3.3: with the (n + alpha) * Penalty terminal form, even one leftover
  // task is expensive, so the endgame prices for small n rise relative to
  // the plain linear penalty.
  auto actions = ActionSet::FromPriceGrid(40, PaperAcceptance()).value();
  DeadlineProblem linear = SmallProblem();
  DeadlineProblem extended = SmallProblem();
  extended.extra_penalty_alpha = 10.0;
  const auto lambdas = ConstantLambdas(6, 400.0);
  auto plan_linear = SolveSimpleDp(linear, lambdas, actions).value();
  auto plan_extended = SolveSimpleDp(extended, lambdas, actions).value();
  // At the last interval with one task left, the extended penalty must not
  // price lower, and the objective strictly exceeds the linear one.
  const int last = linear.num_intervals - 1;
  EXPECT_GE(plan_extended.PriceAt(1, last).value(),
            plan_linear.PriceAt(1, last).value());
  EXPECT_GT(plan_extended.TotalObjective(), plan_linear.TotalObjective());
}

TEST(SolveSimpleDpTest, PenaltyZeroMeansNeverPay) {
  // With no terminal penalty there is no reason to pay anything: the
  // optimal policy prices at the cheapest action everywhere.
  auto actions = ActionSet::FromPriceGrid(20, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  p.penalty_cents = 0.0;
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 500.0), actions).value();
  for (int t = 0; t < p.num_intervals; ++t) {
    for (int n = 1; n <= p.num_tasks; ++n) {
      ASSERT_EQ(plan.ActionIndexAt(n, t).value(), 0);
    }
  }
  EXPECT_DOUBLE_EQ(plan.TotalObjective(), 0.0);
}

TEST(SolveSimpleDpTest, PenaltyBelowCheapestPriceStillNeverPays) {
  // If finishing a task costs more than abandoning it, the optimizer
  // abandons: objective equals E[remaining] * penalty at the floor price...
  // but with price 0 available, tasks complete for free, so the objective
  // is bounded by what price 0 achieves.
  auto actions = ActionSet::FromPriceGrid(20, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  p.penalty_cents = 0.5;  // half a cent per leftover
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 500.0), actions).value();
  for (int t = 0; t < p.num_intervals; ++t) {
    for (int n = 1; n <= p.num_tasks; ++n) {
      // Never pay a full cent to avoid half a cent of penalty.
      ASSERT_EQ(plan.ActionIndexAt(n, t).value(), 0);
    }
  }
}

TEST(TruncationErrorTest, Theorem1BoundHolds) {
  // Coarse truncation vs near-exact truncation: Theorem 1 bounds the error
  // of the coarse estimate by N * NT * C * epsilon.
  auto actions = ActionSet::FromPriceGrid(30, PaperAcceptance()).value();
  DeadlineProblem coarse = SmallProblem();
  coarse.truncation_epsilon = 1e-3;
  DeadlineProblem fine = SmallProblem();
  fine.truncation_epsilon = 1e-13;
  const auto lambdas = ConstantLambdas(6, 700.0);
  auto plan_coarse = SolveSimpleDp(coarse, lambdas, actions).value();
  auto plan_fine = SolveSimpleDp(fine, lambdas, actions).value();
  const double bound = coarse.num_tasks * coarse.num_intervals * 30.0 * 1e-3;
  EXPECT_NEAR(plan_coarse.TotalObjective(), plan_fine.TotalObjective(),
              bound + 1e-9);
}

TEST(DeadlinePlanTest, AccessorsValidateRanges) {
  auto actions = ActionSet::FromPriceGrid(10, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  auto plan = SolveSimpleDp(p, ConstantLambdas(6, 100.0), actions).value();
  EXPECT_TRUE(plan.OptAt(-1, 0).status().IsOutOfRange());
  EXPECT_TRUE(plan.OptAt(0, 7).status().IsOutOfRange());
  EXPECT_TRUE(plan.ActionIndexAt(0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(plan.ActionIndexAt(1, 6).status().IsOutOfRange());
  EXPECT_TRUE(plan.PriceAt(21, 0).status().IsOutOfRange());
  EXPECT_TRUE(plan.OptAt(0, 6).ok());
  EXPECT_TRUE(plan.PriceAt(20, 5).ok());
}

// Holders that only play a plan (the adaptive controller) drop it to its
// policy: converted in place, a solved plan answers ActionAt exactly as
// before at every state, and otherwise reads like a decoded plan.
TEST(DeadlinePlanTest, DropToPolicyKeepsEveryAction) {
  auto actions = ActionSet::FromPriceGrid(10, PaperAcceptance()).value();
  DeadlineProblem p = SmallProblem();
  const DeadlinePlan solved =
      SolveImprovedDp(p, ConstantLambdas(6, 100.0), actions).value();
  ASSERT_NE(solved.solve_arena(), nullptr);
  DeadlinePlan policy = solved;
  policy.DropToPolicy();
  for (int t = 0; t < p.num_intervals; ++t) {
    for (int n = 1; n <= p.num_tasks; ++n) {
      const PricingAction want = solved.ActionAt(n, t).value();
      const PricingAction got = policy.ActionAt(n, t).value();
      ASSERT_EQ(got.cost_per_task_cents, want.cost_per_task_cents)
          << "n = " << n << ", t = " << t;
      ASSERT_EQ(got.bundle, want.bundle) << "n = " << n << ", t = " << t;
      ASSERT_EQ(got.acceptance, want.acceptance)
          << "n = " << n << ", t = " << t;
    }
  }
  EXPECT_TRUE(policy.OptAt(p.num_tasks, 0).status().IsFailedPrecondition());
  EXPECT_TRUE(std::isnan(policy.TotalObjective()));
  EXPECT_EQ(policy.solve_arena(), nullptr);
  EXPECT_TRUE(policy.arena_table_ids().empty());
}

TEST(ActionSetTest, FromPriceGridShape) {
  auto actions = ActionSet::FromPriceGrid(15, PaperAcceptance()).value();
  ASSERT_EQ(actions.size(), 16u);
  EXPECT_DOUBLE_EQ(actions[0].cost_per_task_cents, 0.0);
  EXPECT_DOUBLE_EQ(actions[15].cost_per_task_cents, 15.0);
  EXPECT_TRUE(actions.uniform_unit_bundle());
  EXPECT_DOUBLE_EQ(actions.max_cost(), 15.0);
  for (size_t i = 1; i < actions.size(); ++i) {
    EXPECT_GT(actions[i].acceptance, actions[i - 1].acceptance);
  }
}

TEST(ActionSetTest, FromActionsSortsByAcceptance) {
  std::vector<PricingAction> raw{{4.0, 1, 0.7}, {1.0, 1, 0.2}, {2.0, 1, 0.5}};
  auto actions = ActionSet::FromActions(raw).value();
  EXPECT_DOUBLE_EQ(actions[0].acceptance, 0.2);
  EXPECT_DOUBLE_EQ(actions[2].acceptance, 0.7);
}

TEST(ActionSetTest, Validation) {
  EXPECT_TRUE(ActionSet::FromActions({}).status().IsInvalidArgument());
  EXPECT_TRUE(ActionSet::FromActions({{-1.0, 1, 0.5}}).status().IsInvalidArgument());
  EXPECT_TRUE(ActionSet::FromActions({{1.0, 0, 0.5}}).status().IsInvalidArgument());
  EXPECT_TRUE(ActionSet::FromActions({{1.0, 1, 1.5}}).status().IsInvalidArgument());
  EXPECT_TRUE(ActionSet::FromPriceGrid(-1, PaperAcceptance())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace crowdprice::pricing
