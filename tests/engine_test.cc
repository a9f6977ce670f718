// Engine and PolicyArtifact tests: every built-in kind solves through
// Engine::Solve into an artifact of that kind, artifacts play as
// controllers, and the persistable kinds round-trip through
// Serialize/Deserialize with bit-identical Decide outputs.

#include "engine/engine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "pricing/policy_eval.h"

#include "test_util.h"

namespace crowdprice::engine {
namespace {

const choice::LogitAcceptance& PaperAcceptance() {
  static const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  return acceptance;
}

DeadlineDpSpec SmallDeadlineSpec() {
  DeadlineDpSpec spec;
  spec.problem.num_tasks = 25;
  spec.problem.num_intervals = 6;
  spec.problem.penalty_cents = 180.0;
  spec.interval_lambdas.assign(6, 1600.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(30, PaperAcceptance()).value();
  return spec;
}

// Compares two controllers' Decide outputs over a grid of single-type
// states (via the test_util::SingleOffer sheet helper).
void ExpectIdenticalDecisions(market::PricingController& a,
                              market::PricingController& b,
                              double horizon_hours, int max_tasks) {
  for (double now : {0.0, horizon_hours * 0.3, horizon_hours * 0.9}) {
    for (int remaining = 1; remaining <= max_tasks; remaining += 3) {
      auto offer_a = test_util::SingleOffer(a, now, remaining);
      auto offer_b = test_util::SingleOffer(b, now, remaining);
      ASSERT_TRUE(offer_a.ok()) << offer_a.status();
      ASSERT_TRUE(offer_b.ok()) << offer_b.status();
      EXPECT_EQ(offer_a->per_task_reward_cents, offer_b->per_task_reward_cents)
          << "at now=" << now << " remaining=" << remaining;
      EXPECT_EQ(offer_a->group_size, offer_b->group_size);
    }
  }
}

TEST(EngineTest, DeadlineSpecSolvesAndScores) {
  auto artifact = Solve(SmallDeadlineSpec());
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  EXPECT_EQ(artifact->kind(), PolicyKind::kDeadlineDp);
  auto plan = artifact->deadline_plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->num_tasks(), 25);
  // Fixed-penalty solves have no cached evaluation but Evaluate() works.
  EXPECT_TRUE(artifact->deadline_evaluation().status().IsFailedPrecondition());
  auto eval = artifact->Evaluate();
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_GT(eval->expected_cost_cents, 0.0);
  // Wrong-kind accessors fail cleanly.
  EXPECT_TRUE(artifact->budget_assignment().status().IsFailedPrecondition());
  EXPECT_TRUE(artifact->tradeoff().status().IsFailedPrecondition());
}

TEST(EngineTest, DeadlineSpecRequiresActions) {
  DeadlineDpSpec spec = SmallDeadlineSpec();
  spec.actions.reset();
  EXPECT_TRUE(Solve(spec).status().IsInvalidArgument());
}

TEST(EngineTest, BoundedDeadlineSpecCachesEvaluation) {
  DeadlineDpSpec spec = SmallDeadlineSpec();
  spec.expected_remaining_bound = 0.5;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto eval = artifact->deadline_evaluation();
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_LE((*eval)->expected_remaining, 0.5);
  EXPECT_GT(artifact->penalty_used(), 0.0);
  EXPECT_GT(artifact->dp_solves(), 1);
}

TEST(EngineTest, DeadlineAlgorithmsMatchThroughTheEngine) {
  DeadlineDpSpec spec = SmallDeadlineSpec();
  spec.algorithm = DeadlineDpSpec::Algorithm::kSimple;
  auto simple = Solve(spec);
  spec.algorithm = DeadlineDpSpec::Algorithm::kImproved;
  auto improved = Solve(spec);
  ASSERT_TRUE(simple.ok() && improved.ok());
  const pricing::DeadlinePlan& a = **simple->deadline_plan();
  const pricing::DeadlinePlan& b = **improved->deadline_plan();
  for (int t = 0; t < a.num_intervals(); ++t) {
    for (int n = 1; n <= a.num_tasks(); ++n) {
      ASSERT_EQ(a.ActionIndexUnchecked(n, t), b.ActionIndexUnchecked(n, t));
    }
  }
}

TEST(EngineTest, BoundedDeadlineHonorsSimpleAlgorithmForBundledActions) {
  // Bundled (multi-task HIT) actions are outside Algorithm 2's premise;
  // the bound-mode bisection must honor Algorithm::kSimple for them.
  std::vector<pricing::PricingAction> raw;
  for (int g : {1, 2, 5}) {
    pricing::PricingAction a;
    a.cost_per_task_cents = 10.0 / g;
    a.bundle = g;
    a.acceptance = PaperAcceptance().ProbabilityAt(a.cost_per_task_cents);
    raw.push_back(a);
  }
  DeadlineDpSpec spec;
  spec.problem.num_tasks = 30;
  spec.problem.num_intervals = 5;
  spec.interval_lambdas.assign(5, 4000.0);
  spec.actions = pricing::ActionSet::FromActions(raw).value();
  spec.algorithm = DeadlineDpSpec::Algorithm::kSimple;
  spec.expected_remaining_bound = 2.0;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  EXPECT_LE((*artifact->deadline_evaluation())->expected_remaining, 2.0);
  // The improved algorithm rejects the same bundled set with a clear error.
  spec.algorithm = DeadlineDpSpec::Algorithm::kImproved;
  EXPECT_TRUE(Solve(spec).status().IsFailedPrecondition());
}

TEST(EngineTest, DeadlineRoundTripPreservesDecideOutputs) {
  DeadlineDpSpec spec = SmallDeadlineSpec();
  spec.expected_remaining_bound = 1.0;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto text = artifact->Serialize();
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = PolicyArtifact::Deserialize(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->kind(), PolicyKind::kDeadlineDp);
  EXPECT_EQ(restored->penalty_used(), artifact->penalty_used());
  EXPECT_EQ(restored->dp_solves(), artifact->dp_solves());
  auto a = artifact->MakeController(24.0);
  auto b = restored->MakeController(24.0);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalDecisions(**a, **b, 24.0, 25);
  // The reloaded table is bit-exact, so nominal scoring agrees too.
  auto eval_a = artifact->Evaluate();
  auto eval_b = restored->Evaluate();
  ASSERT_TRUE(eval_a.ok() && eval_b.ok());
  EXPECT_EQ(eval_a->expected_objective, eval_b->expected_objective);
}

TEST(EngineTest, BudgetSpecSolvesAndRoundTrips) {
  BudgetStaticSpec spec;
  spec.num_tasks = 200;
  spec.budget_cents = 2500.0;
  spec.acceptance = &PaperAcceptance();
  spec.max_price_cents = 50;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto assignment = artifact->budget_assignment();
  ASSERT_TRUE(assignment.ok());
  EXPECT_LE((*assignment)->allocations.size(), 2u);  // Theorem 7: two prices
  EXPECT_LE((*assignment)->total_cost_cents, 2500.0 + 1e-9);

  auto text = artifact->Serialize();
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = PolicyArtifact::Deserialize(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const auto& original = **artifact->budget_assignment();
  const auto& reloaded = **restored->budget_assignment();
  ASSERT_EQ(original.allocations.size(), reloaded.allocations.size());
  for (size_t i = 0; i < original.allocations.size(); ++i) {
    EXPECT_EQ(original.allocations[i].price_cents,
              reloaded.allocations[i].price_cents);
    EXPECT_EQ(original.allocations[i].count, reloaded.allocations[i].count);
  }
  EXPECT_EQ(original.expected_worker_arrivals, reloaded.expected_worker_arrivals);
  auto a = artifact->MakeController(24.0);
  auto b = restored->MakeController(24.0);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalDecisions(**a, **b, 24.0, 200);
}

TEST(EngineTest, ExactBudgetMethodNeverWorseThanLp) {
  BudgetStaticSpec spec;
  spec.num_tasks = 60;
  spec.budget_cents = 800.0;
  spec.acceptance = &PaperAcceptance();
  spec.max_price_cents = 40;
  auto lp = Solve(spec);
  spec.method = BudgetStaticSpec::Method::kExactDp;
  auto exact = Solve(spec);
  ASSERT_TRUE(lp.ok() && exact.ok());
  EXPECT_LE((*exact->budget_assignment())->expected_worker_arrivals,
            (*lp->budget_assignment())->expected_worker_arrivals + 1e-9);
}

TEST(EngineTest, FixedPriceSpecRoundTripsAndPlays) {
  FixedPriceSpec spec;
  spec.num_tasks = 100;
  spec.interval_lambdas.assign(24, 2000.0);
  spec.acceptance = &PaperAcceptance();
  spec.max_price_cents = 50;
  spec.criterion = FixedPriceSpec::Criterion::kQuantile;
  spec.threshold = 0.999;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto fixed = artifact->fixed_price();
  ASSERT_TRUE(fixed.ok());
  EXPECT_GE((*fixed)->prob_finish, 0.999);

  auto text = artifact->Serialize();
  ASSERT_TRUE(text.ok());
  auto restored = PolicyArtifact::Deserialize(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->fixed_price())->price_cents, (*fixed)->price_cents);
  EXPECT_EQ((*restored->fixed_price())->expected_remaining,
            (*fixed)->expected_remaining);
  auto a = artifact->MakeController(24.0);
  auto b = restored->MakeController(24.0);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalDecisions(**a, **b, 24.0, 100);
}

TEST(EngineTest, TradeoffSpecRoundTrips) {
  TradeoffSpec spec;
  spec.rate = 5083.0;
  spec.acceptance = &PaperAcceptance();
  spec.alpha = 32.0;
  spec.max_price_cents = 60;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto text = artifact->Serialize();
  ASSERT_TRUE(text.ok());
  auto restored = PolicyArtifact::Deserialize(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const auto& original = **artifact->tradeoff();
  const auto& reloaded = **restored->tradeoff();
  EXPECT_EQ(original.price_cents, reloaded.price_cents);
  EXPECT_EQ(original.objective_per_task, reloaded.objective_per_task);
  ASSERT_EQ(original.objective_curve.size(), reloaded.objective_curve.size());
  for (size_t i = 0; i < original.objective_curve.size(); ++i) {
    EXPECT_EQ(original.objective_curve[i], reloaded.objective_curve[i]);
  }
  auto a = artifact->MakeController(24.0);
  auto b = restored->MakeController(24.0);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalDecisions(**a, **b, 24.0, 30);
}

TEST(EngineTest, AdaptiveSpecMakesReplanningControllers) {
  AdaptiveSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 5;
  spec.problem.penalty_cents = 120.0;
  spec.believed_lambdas.assign(5, 300.0);
  spec.actions = pricing::ActionSet::FromPriceGrid(25, PaperAcceptance()).value();
  spec.horizon_hours = 10.0;
  auto artifact = Solve(spec);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  EXPECT_EQ(artifact->kind(), PolicyKind::kAdaptive);
  auto controller = artifact->MakeAdaptiveController();
  ASSERT_TRUE(controller.ok()) << controller.status();
  auto offer = test_util::SingleOffer(*controller, 0.0, 20);
  ASSERT_TRUE(offer.ok()) << offer.status();
  EXPECT_GE(offer->per_task_reward_cents, 0.0);
  // The belief state (priors, not in-flight campaign state) checkpoints.
  auto text = artifact->Serialize();
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = PolicyArtifact::Deserialize(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->kind(), PolicyKind::kAdaptive);
}

TEST(EngineTest, AdaptiveSpecValidatesEagerly) {
  AdaptiveSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 5;
  spec.believed_lambdas.assign(3, 300.0);  // wrong length
  spec.actions = pricing::ActionSet::FromPriceGrid(25, PaperAcceptance()).value();
  spec.horizon_hours = 10.0;
  EXPECT_TRUE(Solve(spec).status().IsInvalidArgument());
}

MultiTypeSpec SmallMultiTypeSpec() {
  MultiTypeSpec spec;
  spec.s1 = 10.0;
  spec.b1 = 1.2;
  spec.s2 = 10.0;
  spec.b2 = 1.0;
  spec.m = 200.0;
  spec.problem.num_tasks_1 = 4;
  spec.problem.num_tasks_2 = 4;
  spec.problem.num_intervals = 3;
  spec.problem.penalty_1_cents = 100.0;
  spec.problem.penalty_2_cents = 100.0;
  spec.problem.max_price_cents = 20;
  spec.problem.price_stride = 4;
  spec.interval_lambdas.assign(3, 30.0);
  return spec;
}

TEST(EngineTest, MultiTypeSpecSolvesAndPlays) {
  auto artifact = Solve(SmallMultiTypeSpec());
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto plan = artifact->multitype_plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_GT((*plan)->TotalObjective(), 0.0);

  // Multitype artifacts answer 2-offer sheets through the same controller
  // surface as every other kind.
  auto controller = artifact->MakeController(6.0);
  ASSERT_TRUE(controller.ok()) << controller.status();
  EXPECT_EQ((*controller)->num_types(), 2);
  market::DecisionRequest request;
  request.campaign_hours = 0.0;
  request.remaining = {4, 4};
  auto sheet = (*controller)->Decide(request);
  ASSERT_TRUE(sheet.ok()) << sheet.status();
  ASSERT_EQ(sheet->num_types(), 2);
  auto prices = (*plan)->PricesAt(4, 4, 0).value();
  EXPECT_DOUBLE_EQ(sheet->offers[0].per_task_reward_cents, prices.first);
  EXPECT_DOUBLE_EQ(sheet->offers[1].per_task_reward_cents, prices.second);
  // A single-type request cannot drive a 2-offer policy.
  EXPECT_TRUE(test_util::SingleOffer(**controller, 0.0, 4)
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineTest, HugeDimensionsAreRejectedBeforeAnyTableIsSized) {
  // A 2e9-task plan would need tens of GB; the solve must say so rather
  // than abort on bad_alloc or length_error.
  DeadlineDpSpec deadline = SmallDeadlineSpec();
  deadline.problem.num_tasks = 2000000000;
  const Status d = Solve(deadline).status();
  EXPECT_TRUE(d.IsInvalidArgument()) << d;
  EXPECT_NE(d.message().find("implausible deadline dimensions"),
            std::string::npos)
      << d;
  deadline.expected_remaining_bound = 0.5;  // the bisection's solves too
  EXPECT_TRUE(Solve(deadline).status().IsInvalidArgument());

  // 2e9 + 2e9 tasks also overflows an int sum of the two counts.
  MultiTypeSpec multi = SmallMultiTypeSpec();
  multi.problem.num_tasks_1 = 2000000000;
  multi.problem.num_tasks_2 = 2000000000;
  const Status m = Solve(multi).status();
  EXPECT_TRUE(m.IsInvalidArgument()) << m;
  EXPECT_NE(m.message().find("implausible multitype dimensions"),
            std::string::npos)
      << m;
}

TEST(EngineTest, EveryPolicyKindIsPlayable) {
  // The ROADMAP "engine coverage" criterion: MakeController succeeds for
  // all six kinds -- no Unimplemented path left.
  std::vector<PolicySpec> specs;
  specs.push_back(SmallDeadlineSpec());
  BudgetStaticSpec budget;
  budget.num_tasks = 40;
  budget.budget_cents = 600.0;
  budget.acceptance = &PaperAcceptance();
  budget.max_price_cents = 40;
  specs.push_back(budget);
  FixedPriceSpec fixed;
  fixed.num_tasks = 20;
  fixed.interval_lambdas.assign(6, 1500.0);
  fixed.acceptance = &PaperAcceptance();
  fixed.max_price_cents = 40;
  specs.push_back(fixed);
  AdaptiveSpec adaptive;
  adaptive.problem.num_tasks = 15;
  adaptive.problem.num_intervals = 4;
  adaptive.problem.penalty_cents = 120.0;
  adaptive.believed_lambdas.assign(4, 300.0);
  adaptive.actions =
      pricing::ActionSet::FromPriceGrid(25, PaperAcceptance()).value();
  adaptive.horizon_hours = 8.0;
  specs.push_back(adaptive);
  specs.push_back(SmallMultiTypeSpec());
  TradeoffSpec tradeoff;
  tradeoff.rate = 5083.0;
  tradeoff.acceptance = &PaperAcceptance();
  tradeoff.alpha = 32.0;
  tradeoff.max_price_cents = 60;
  specs.push_back(tradeoff);

  for (const PolicySpec& spec : specs) {
    auto artifact = Solve(spec);
    ASSERT_TRUE(artifact.ok())
        << KindName(spec.kind()) << ": " << artifact.status();
    EXPECT_EQ(artifact->kind(), spec.kind());
    auto controller = artifact->MakeController(8.0);
    ASSERT_TRUE(controller.ok())
        << KindName(spec.kind()) << ": " << controller.status();
    // Every kind answers a sheet sized to its type count.
    market::DecisionRequest request;
    request.remaining.assign(
        static_cast<size_t>((*controller)->num_types()), 4);
    auto sheet = (*controller)->Decide(request);
    ASSERT_TRUE(sheet.ok())
        << KindName(spec.kind()) << ": " << sheet.status();
    EXPECT_EQ(sheet->num_types(), (*controller)->num_types());
  }
}

TEST(PolicyArtifactTest, RecordsKernelBackendMetadata) {
  // Solves that run on the kernel layer record which backend produced the
  // tables; forcing "scalar" must be visible in the artifact.
  DeadlineDpSpec deadline = SmallDeadlineSpec();
  deadline.dp_options.kernel_backend = "scalar";
  auto artifact = Solve(deadline);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  EXPECT_EQ(artifact->kernel_backend(), "scalar");

  // Unforced solves record whatever the registry picked.
  auto auto_artifact = Solve(SmallDeadlineSpec());
  ASSERT_TRUE(auto_artifact.ok());
  EXPECT_FALSE(auto_artifact->kernel_backend().empty());

  // Unknown backends fail the solve instead of silently falling back.
  DeadlineDpSpec bad = SmallDeadlineSpec();
  bad.dp_options.kernel_backend = "warp9";
  EXPECT_TRUE(Solve(bad).status().IsNotFound());

  MultiTypeSpec multi = SmallMultiTypeSpec();
  multi.kernel_backend = "scalar";
  auto multi_artifact = Solve(multi);
  ASSERT_TRUE(multi_artifact.ok()) << multi_artifact.status();
  EXPECT_EQ(multi_artifact->kernel_backend(), "scalar");

  // Kinds without a kernel-backed solve report no backend.
  BudgetStaticSpec budget;
  budget.num_tasks = 40;
  budget.budget_cents = 600.0;
  budget.acceptance = &PaperAcceptance();
  budget.max_price_cents = 25;
  auto budget_artifact = Solve(budget);
  ASSERT_TRUE(budget_artifact.ok()) << budget_artifact.status();
  EXPECT_EQ(budget_artifact->kernel_backend(), "");
}

TEST(PolicyArtifactTest, DeserializeRejectsGarbage) {
  EXPECT_TRUE(PolicyArtifact::Deserialize("").status().IsInvalidArgument());
  EXPECT_TRUE(
      PolicyArtifact::Deserialize("not an artifact\n").status().IsInvalidArgument());
  EXPECT_TRUE(PolicyArtifact::Deserialize("crowdprice-artifact v1\nkind bogus\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PolicyArtifact::Deserialize(
                  "crowdprice-artifact v1\nkind fixed-price\nfixed 12\n")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace crowdprice::engine
