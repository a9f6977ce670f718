#include "pricing/adaptive.h"

#include <gtest/gtest.h>

#include "arrival/rate_function.h"
#include "choice/acceptance.h"
#include "market/simulator.h"
#include "pricing/controller.h"
#include "stats/descriptive.h"
#include "util/rng.h"

#include "test_util.h"

namespace crowdprice::pricing {
namespace {

struct Env {
  choice::LogitAcceptance acceptance = choice::LogitAcceptance::Paper2014();
  ActionSet actions = ActionSet::FromPriceGrid(50, acceptance).value();
  DeadlineProblem problem;
  std::vector<double> believed;

  static Env Make(int n = 100, int nt = 24, double lambda = 2500.0,
                    double penalty = 500.0) {
    Env s;
    s.problem.num_tasks = n;
    s.problem.num_intervals = nt;
    s.problem.penalty_cents = penalty;
    s.believed.assign(static_cast<size_t>(nt), lambda);
    return s;
  }
};

TEST(AdaptiveControllerTest, CreateValidation) {
  Env s = Env::Make();
  EXPECT_TRUE(AdaptiveRateController::Create(s.problem, {1.0}, s.actions, 24.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AdaptiveRateController::Create(s.problem, s.believed, s.actions, 0.0)
                  .status()
                  .IsInvalidArgument());
  AdaptiveOptions bad;
  bad.resolve_every = 0;
  EXPECT_TRUE(
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0, bad)
          .status()
          .IsInvalidArgument());
  bad = AdaptiveOptions{};
  bad.min_factor = 0.0;
  EXPECT_TRUE(
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0, bad)
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0).ok());
}

// Validate checks Create's inputs and solves nothing; Create solves the
// whole-horizon plan, so the first Decide is a lookup.
TEST(AdaptiveControllerTest, CreateSolvesTheInitialPlanValidateDoesNot) {
  Env s = Env::Make();
  EXPECT_TRUE(AdaptiveRateController::Validate(s.problem, {1.0}, 24.0, {})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      AdaptiveRateController::Validate(s.problem, s.believed, 24.0, {}).ok());

  auto controller =
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
          .value();
  EXPECT_EQ(controller.resolves(), 1);
  ASSERT_TRUE(test_util::SingleOffer(controller, 0.0, 100).ok());
  EXPECT_EQ(controller.resolves(), 1);
}

TEST(AdaptiveControllerTest, FirstDecisionMatchesStaticPlan) {
  Env s = Env::Make();
  auto adaptive =
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
          .value();
  auto static_plan = SolveImprovedDp(s.problem, s.believed, s.actions).value();
  auto offer = test_util::SingleOffer(adaptive, 0.0, 100).value();
  EXPECT_DOUBLE_EQ(offer.per_task_reward_cents,
                   static_plan.PriceAt(100, 0).value());
  EXPECT_DOUBLE_EQ(adaptive.current_factor(), 1.0);
}

TEST(AdaptiveControllerTest, AccurateBeliefLeavesFactorNearOne) {
  Env s = Env::Make();
  auto rate = arrival::PiecewiseConstantRate::Constant(2500.0 * 24.0 / 24.0, 24.0)
                  .value();
  market::SimulatorConfig sim;
  sim.total_tasks = 100;
  sim.horizon_hours = 24.0;
  sim.decision_interval_hours = 1.0;
  Rng rng(5);
  auto controller =
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
          .value();
  auto result =
      market::RunSimulation(sim, rate, s.acceptance, controller, rng).value();
  EXPECT_GT(result.tasks_assigned, 95);
  EXPECT_NEAR(controller.current_factor(), 1.0, 0.3);
}

TEST(AdaptiveControllerTest, DetectsSlowMarketAndRaisesPrices) {
  // Believed 2500 workers/interval, true market at 55% of that (the Fig. 10
  // holiday). The adaptive controller should converge to factor ~0.55 and
  // replan at least once.
  Env s = Env::Make();
  auto rate =
      arrival::PiecewiseConstantRate::Constant(2500.0 * 0.55, 24.0).value();
  market::SimulatorConfig sim;
  sim.total_tasks = 100;
  sim.horizon_hours = 24.0;
  sim.decision_interval_hours = 1.0;
  Rng rng(6);
  auto controller =
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
          .value();
  auto result =
      market::RunSimulation(sim, rate, s.acceptance, controller, rng).value();
  EXPECT_GE(controller.resolves(), 2);  // initial solve + >= 1 replan
  EXPECT_LT(controller.current_factor(), 0.85);
  EXPECT_GT(controller.current_factor(), 0.3);
  (void)result;
}

TEST(AdaptiveControllerTest, BeatsStaticPlanOnConsistentDeviation) {
  // The §5.2.5 future-work claim: on a consistently slow day, replanning
  // from observed completions leaves fewer tasks than the static policy.
  Env s = Env::Make(/*n=*/150, /*nt=*/24, /*lambda=*/3500.0,
                        /*penalty=*/800.0);
  auto slow_rate =
      arrival::PiecewiseConstantRate::Constant(3500.0 * 0.5, 24.0).value();
  auto static_plan = SolveImprovedDp(s.problem, s.believed, s.actions).value();

  market::SimulatorConfig sim;
  sim.total_tasks = 150;
  sim.horizon_hours = 24.0;
  sim.decision_interval_hours = 1.0;
  Rng rng(7);
  stats::RunningStats static_rem, adaptive_rem;
  for (int rep = 0; rep < 40; ++rep) {
    auto static_ctl = PlanController::Create(&static_plan, 24.0).value();
    Rng c1 = rng.Fork();
    auto static_run =
        market::RunSimulation(sim, slow_rate, s.acceptance, static_ctl, c1)
            .value();
    static_rem.Add(
        static_cast<double>(sim.total_tasks - static_run.tasks_assigned));

    auto adaptive_ctl =
        AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
            .value();
    Rng c2 = rng.Fork();
    auto adaptive_run =
        market::RunSimulation(sim, slow_rate, s.acceptance, adaptive_ctl, c2)
            .value();
    adaptive_rem.Add(
        static_cast<double>(sim.total_tasks - adaptive_run.tasks_assigned));
  }
  EXPECT_LT(adaptive_rem.mean(), static_rem.mean() * 0.7)
      << "static leaves " << static_rem.mean() << ", adaptive leaves "
      << adaptive_rem.mean();
}

TEST(AdaptiveControllerTest, HotMarketCutsPrices) {
  // True market 2x the belief: the controller should lower its trajectory
  // of prices relative to the static plan (factor > 1).
  Env s = Env::Make();
  auto hot_rate = arrival::PiecewiseConstantRate::Constant(5000.0, 24.0).value();
  market::SimulatorConfig sim;
  sim.total_tasks = 100;
  sim.horizon_hours = 24.0;
  sim.decision_interval_hours = 1.0;
  Rng rng(8);
  auto controller =
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
          .value();
  auto result =
      market::RunSimulation(sim, hot_rate, s.acceptance, controller, rng).value();
  EXPECT_TRUE(result.finished);
  EXPECT_GT(controller.current_factor(), 1.2);
}

TEST(AdaptiveControllerTest, RejectsNonPositiveRemaining) {
  Env s = Env::Make();
  auto controller =
      AdaptiveRateController::Create(s.problem, s.believed, s.actions, 24.0)
          .value();
  EXPECT_TRUE(test_util::SingleOffer(controller, 0.0, 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace crowdprice::pricing
