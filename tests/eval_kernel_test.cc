// Evaluation kernel parity suite.
//
// The exact policy evaluator's per-interval body now runs on
// LayerScanKernel::EvaluateLayer (kernel/layer_scan.h). The anchor is the
// pre-kernel hand-rolled forward pass, reproduced verbatim below as
// LegacyReferenceEvaluate: the scalar backend must match it BIT-EXACTLY on
// the Fig. 9 / Fig. 10-shaped robustness fixtures (perturbed acceptance
// curves and arrival rates), SIMD backends must agree with scalar to
// ~1e-12, the plan-arena reuse fast path must agree with a fresh rebuild,
// and a shared PmfShareCache must change sharing counters but never
// numbers. Cross-kind coverage: every one of the six PolicyKinds produces
// identical decisions under every registered backend.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "choice/acceptance.h"
#include "engine/engine.h"
#include "kernel/layer_scan.h"
#include "kernel/pmf_cache.h"
#include "pricing/deadline_dp.h"
#include "pricing/policy_eval.h"
#include "pricing/serialization.h"
#include "stats/poisson.h"
#include "util/stringf.h"

#include "test_util.h"

namespace crowdprice::pricing {
namespace {

struct Fixture {
  choice::LogitAcceptance acceptance = choice::LogitAcceptance::Paper2014();
  ActionSet actions = ActionSet::FromPriceGrid(40, acceptance).value();
  DeadlineProblem problem;
  std::vector<double> lambdas;
  DeadlinePlan plan;

  static Fixture Make(int n = 25, int nt = 6, double lambda = 900.0,
                      double penalty = 300.0) {
    DeadlineProblem p;
    p.num_tasks = n;
    p.num_intervals = nt;
    p.penalty_cents = penalty;
    std::vector<double> lams(static_cast<size_t>(nt), lambda);
    choice::LogitAcceptance acc = choice::LogitAcceptance::Paper2014();
    ActionSet acts = ActionSet::FromPriceGrid(40, acc).value();
    DeadlinePlan plan = SolveImprovedDp(p, lams, acts).value();
    return Fixture{acc, acts, p, lams, std::move(plan)};
  }
};

// The forward pass exactly as it existed before the kernel lowering --
// copied, not reimplemented. This is the arithmetic the scalar backend
// promises to reproduce bit-for-bit.
Result<PolicyEvaluation> LegacyReferenceEvaluate(
    const DeadlinePlan& plan, const std::vector<double>& true_lambdas,
    const std::vector<double>& true_probs) {
  const int num_tasks = plan.num_tasks();
  const int nt = plan.num_intervals();
  const double epsilon = plan.problem().truncation_epsilon;

  std::vector<double> dist(static_cast<size_t>(num_tasks) + 1, 0.0);
  dist[static_cast<size_t>(num_tasks)] = 1.0;
  std::vector<double> next(static_cast<size_t>(num_tasks) + 1, 0.0);
  double expected_cost = 0.0;

  std::vector<int> table_of_action(plan.actions().size());
  for (int t = 0; t < nt; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    next[0] += dist[0];
    std::vector<stats::TruncatedPoisson> tables;
    std::fill(table_of_action.begin(), table_of_action.end(), -1);
    for (int n = 1; n <= num_tasks; ++n) {
      const double mass = dist[static_cast<size_t>(n)];
      if (mass <= 0.0) continue;
      const int a_idx = plan.ActionIndexUnchecked(n, t);
      if (a_idx < 0) {
        return Status::FailedPrecondition(
            StringF("plan has no action at (n=%d, t=%d)", n, t));
      }
      if (table_of_action[static_cast<size_t>(a_idx)] < 0) {
        CP_ASSIGN_OR_RETURN(
            stats::TruncatedPoisson tp,
            stats::MakeTruncatedPoisson(
                true_lambdas[static_cast<size_t>(t)] *
                    true_probs[static_cast<size_t>(a_idx)],
                epsilon));
        table_of_action[static_cast<size_t>(a_idx)] =
            static_cast<int>(tables.size());
        tables.push_back(std::move(tp));
      }
      const stats::TruncatedPoisson& tp = tables[static_cast<size_t>(
          table_of_action[static_cast<size_t>(a_idx)])];
      const PricingAction& action = plan.actions()[static_cast<size_t>(a_idx)];
      const double c = action.cost_per_task_cents;
      double cum = 0.0;
      for (int k = 0; k < static_cast<int>(tp.pmf.size()); ++k) {
        const long long d_ll = static_cast<long long>(k) * action.bundle;
        if (d_ll >= n) break;
        const int d = static_cast<int>(d_ll);
        const double p = tp.pmf[static_cast<size_t>(k)];
        next[static_cast<size_t>(n - d)] += mass * p;
        expected_cost += mass * p * c * d;
        cum += p;
      }
      const double finish_mass = std::max(0.0, 1.0 - cum);
      next[0] += mass * finish_mass;
      expected_cost += mass * finish_mass * c * n;
    }
    dist.swap(next);
  }

  PolicyEvaluation eval;
  eval.expected_cost_cents = expected_cost;
  eval.remaining_distribution = dist;
  double expected_remaining = 0.0;
  double expected_penalty = 0.0;
  for (int n = 0; n <= num_tasks; ++n) {
    expected_remaining += static_cast<double>(n) * dist[static_cast<size_t>(n)];
    expected_penalty +=
        plan.problem().TerminalPenalty(n) * dist[static_cast<size_t>(n)];
  }
  eval.expected_remaining = expected_remaining;
  eval.prob_unfinished = std::clamp(1.0 - dist[0], 0.0, 1.0);
  const double expected_completed =
      static_cast<double>(num_tasks) - expected_remaining;
  eval.average_reward_per_task =
      expected_completed > 0.0 ? expected_cost / expected_completed : 0.0;
  eval.expected_objective = expected_cost + expected_penalty;
  return eval;
}

void ExpectBitIdentical(const PolicyEvaluation& got,
                        const PolicyEvaluation& want) {
  EXPECT_EQ(got.expected_cost_cents, want.expected_cost_cents);
  EXPECT_EQ(got.expected_remaining, want.expected_remaining);
  EXPECT_EQ(got.prob_unfinished, want.prob_unfinished);
  EXPECT_EQ(got.average_reward_per_task, want.average_reward_per_task);
  EXPECT_EQ(got.expected_objective, want.expected_objective);
  ASSERT_EQ(got.remaining_distribution.size(),
            want.remaining_distribution.size());
  for (size_t i = 0; i < want.remaining_distribution.size(); ++i) {
    EXPECT_EQ(got.remaining_distribution[i], want.remaining_distribution[i])
        << "remaining_distribution[" << i << "]";
  }
}

void ExpectWithin(const PolicyEvaluation& got, const PolicyEvaluation& want,
                  double rel) {
  auto near = [rel](double a, double b, const char* what) {
    const double tol = rel * std::max({std::abs(a), std::abs(b), 1.0});
    EXPECT_NEAR(a, b, tol) << what;
  };
  near(got.expected_cost_cents, want.expected_cost_cents, "expected_cost");
  near(got.expected_remaining, want.expected_remaining, "expected_remaining");
  near(got.prob_unfinished, want.prob_unfinished, "prob_unfinished");
  near(got.expected_objective, want.expected_objective, "expected_objective");
  ASSERT_EQ(got.remaining_distribution.size(),
            want.remaining_distribution.size());
  for (size_t i = 0; i < want.remaining_distribution.size(); ++i) {
    near(got.remaining_distribution[i], want.remaining_distribution[i],
         "remaining_distribution entry");
  }
}

// The Fig. 9 / Fig. 10 robustness sweep: the plan solved under the paper's
// market, evaluated under perturbed acceptance curves and arrival scales.
struct MarketCase {
  double lambda_scale;
  double s, b, m;  // LogitAcceptance::Create parameters for the true market
};

const MarketCase kMarketCases[] = {
    {1.0, 15.0, 0.39, 2000.0},   // nominal market (Paper2014)
    {0.5, 15.0, 0.39, 2000.0},   // Fig. 10: arrivals halved
    {2.0, 15.0, 0.39, 2000.0},   // Fig. 10: arrivals doubled
    {1.0, 12.0, 0.39, 2000.0},   // Fig. 9: steeper acceptance
    {1.0, 15.0, 0.10, 3500.0},   // Fig. 9: more reluctant workers
    {0.75, 18.0, 0.60, 1200.0},  // joint perturbation
};

TEST(EvalKernelTest, ScalarBitIdenticalToPreKernelEvaluator) {
  Fixture f = Fixture::Make();
  for (const MarketCase& mc : kMarketCases) {
    auto market = choice::LogitAcceptance::Create(mc.s, mc.b, mc.m).value();
    std::vector<double> probs;
    for (const auto& a : f.plan.actions().actions()) {
      probs.push_back(market.ProbabilityAt(a.cost_per_task_cents));
    }
    std::vector<double> lams;
    for (double lam : f.lambdas) lams.push_back(lam * mc.lambda_scale);

    auto want = LegacyReferenceEvaluate(f.plan, lams, probs);
    ASSERT_TRUE(want.ok()) << want.status();

    EvalOptions options;
    options.kernel_backend = "scalar";
    auto got = EvaluatePolicy(f.plan, lams, probs, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectBitIdentical(*got, *want);
  }
}

TEST(EvalKernelTest, ScalarNominalBitIdenticalOnBothArenaPaths) {
  Fixture f = Fixture::Make(30, 8, 1100.0, 250.0);
  std::vector<double> probs;
  for (const auto& a : f.plan.actions().actions()) {
    probs.push_back(a.acceptance);
  }
  auto want = LegacyReferenceEvaluate(f.plan, f.lambdas, probs);
  ASSERT_TRUE(want.ok()) << want.status();

  // Fresh-rebuild path: a deserialized plan carries no solve arena, so it
  // gets exact-rate tables, bit-identical by construction.
  auto loaded = DeserializePlan(SerializePlan(f.plan));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->solve_arena() == nullptr);
  EvalOptions rebuild;
  rebuild.kernel_backend = "scalar";
  auto fresh = EvaluatePolicyNominal(*loaded, rebuild);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ExpectBitIdentical(*fresh, *want);

  // Plan-arena reuse path: same numbers unless quantized dedup collided
  // during the solve (it does not on this fixture -- the rates are well
  // separated), so this is also exact.
  EvalOptions reuse;
  reuse.kernel_backend = "scalar";
  ASSERT_TRUE(f.plan.solve_arena() != nullptr);
  auto reused = EvaluatePolicyNominal(f.plan, reuse);
  ASSERT_TRUE(reused.ok()) << reused.status();
  ExpectBitIdentical(*reused, *want);
}

TEST(EvalKernelTest, BundledActionsBitIdenticalToPreKernelEvaluator) {
  // Multi-task HIT bundles drive the d = k*b skip/break logic; solved with
  // Algorithm 1 (bundles are outside Algorithm 2's premise).
  auto acc = choice::LogitAcceptance::Paper2014();
  std::vector<PricingAction> raw;
  for (int g : {1, 2, 5}) {
    PricingAction a;
    a.cost_per_task_cents = 12.0 / g;
    a.bundle = g;
    a.acceptance = acc.ProbabilityAt(a.cost_per_task_cents);
    raw.push_back(a);
  }
  DeadlineProblem p;
  p.num_tasks = 30;
  p.num_intervals = 5;
  p.penalty_cents = 200.0;
  std::vector<double> lams(5, 3000.0);
  ActionSet actions = ActionSet::FromActions(raw).value();
  DeadlinePlan plan = SolveSimpleDp(p, lams, actions).value();

  std::vector<double> probs;
  for (const auto& a : plan.actions().actions()) probs.push_back(a.acceptance);
  auto want = LegacyReferenceEvaluate(plan, lams, probs);
  ASSERT_TRUE(want.ok()) << want.status();

  // A deserialized plan carries no solve arena: fresh exact-rate tables.
  auto loaded = DeserializePlan(SerializePlan(plan));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EvalOptions options;
  options.kernel_backend = "scalar";
  auto got = EvaluatePolicy(*loaded, lams, probs, options);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *want);
}

TEST(EvalKernelTest, SimdBackendsMatchScalarWithin1e12) {
  Fixture f = Fixture::Make();
  for (const std::string& backend :
       kernel::KernelRegistry::Global().Available()) {
    if (backend == "scalar") continue;
    for (const MarketCase& mc : kMarketCases) {
      auto market = choice::LogitAcceptance::Create(mc.s, mc.b, mc.m).value();
      std::vector<double> probs;
      for (const auto& a : f.plan.actions().actions()) {
        probs.push_back(market.ProbabilityAt(a.cost_per_task_cents));
      }
      std::vector<double> lams;
      for (double lam : f.lambdas) lams.push_back(lam * mc.lambda_scale);

      EvalOptions scalar_options;
      scalar_options.kernel_backend = "scalar";
      auto scalar = EvaluatePolicy(f.plan, lams, probs, scalar_options);
      ASSERT_TRUE(scalar.ok()) << scalar.status();

      EvalOptions simd_options;
      simd_options.kernel_backend = backend;
      auto simd = EvaluatePolicy(f.plan, lams, probs, simd_options);
      ASSERT_TRUE(simd.ok()) << backend << ": " << simd.status();
      ExpectWithin(*simd, *scalar, 1e-12);
    }
  }
}

TEST(EvalKernelTest, ShareCacheChangesCountersNeverNumbers) {
  Fixture f = Fixture::Make(20, 6, 800.0, 220.0);
  std::vector<double> probs;
  for (const auto& a : f.plan.actions().actions()) {
    probs.push_back(f.acceptance.ProbabilityAt(a.cost_per_task_cents + 1.0));
  }
  EvalOptions plain;
  plain.kernel_backend = "scalar";
  auto without = EvaluatePolicy(f.plan, f.lambdas, probs, plain);
  ASSERT_TRUE(without.ok()) << without.status();

  kernel::PmfShareCache cache;
  EvalOptions shared = plain;
  shared.share_cache = &cache;
  auto first = EvaluatePolicy(f.plan, f.lambdas, probs, shared);
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectBitIdentical(*first, *without);
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.blocks_built, 0);

  // The second pass adopts every block it needs from the cache.
  auto second = EvaluatePolicy(f.plan, f.lambdas, probs, shared);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectBitIdentical(*second, *without);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.blocks_built, after_first.blocks_built);
  EXPECT_GT(after_second.blocks_shared, 0);
}

// Every one of the six PolicyKinds, solved under every registered backend,
// plays identically (kinds without a kernel-backed solve are covered as
// invariance checks; deadline evaluation additionally agrees to ~1e-12).
TEST(EvalKernelTest, AllSixPolicyKindsAgreeAcrossBackends) {
  const choice::LogitAcceptance& acc = choice::LogitAcceptance::Paper2014();
  auto make_specs = [&acc](const std::string& backend) {
    std::vector<engine::PolicySpec> specs;
    engine::DeadlineDpSpec deadline;
    deadline.problem.num_tasks = 20;
    deadline.problem.num_intervals = 5;
    deadline.problem.penalty_cents = 180.0;
    deadline.interval_lambdas.assign(5, 1500.0);
    deadline.actions = ActionSet::FromPriceGrid(30, acc).value();
    deadline.dp_options.kernel_backend = backend;
    specs.push_back(deadline);
    engine::BudgetStaticSpec budget;
    budget.num_tasks = 40;
    budget.budget_cents = 600.0;
    budget.acceptance = &acc;
    budget.max_price_cents = 40;
    specs.push_back(budget);
    engine::FixedPriceSpec fixed;
    fixed.num_tasks = 20;
    fixed.interval_lambdas.assign(6, 1500.0);
    fixed.acceptance = &acc;
    fixed.max_price_cents = 40;
    specs.push_back(fixed);
    engine::AdaptiveSpec adaptive;
    adaptive.problem.num_tasks = 15;
    adaptive.problem.num_intervals = 4;
    adaptive.problem.penalty_cents = 120.0;
    adaptive.believed_lambdas.assign(4, 300.0);
    adaptive.actions = ActionSet::FromPriceGrid(25, acc).value();
    adaptive.horizon_hours = 8.0;
    adaptive.options.dp_options.kernel_backend = backend;
    specs.push_back(adaptive);
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
    multi.kernel_backend = backend;
    specs.push_back(multi);
    engine::TradeoffSpec tradeoff;
    tradeoff.rate = 5083.0;
    tradeoff.acceptance = &acc;
    tradeoff.alpha = 32.0;
    tradeoff.max_price_cents = 60;
    specs.push_back(tradeoff);
    return specs;
  };

  std::vector<engine::PolicySpec> scalar_specs = make_specs("scalar");
  for (const std::string& backend :
       kernel::KernelRegistry::Global().Available()) {
    if (backend == "scalar") continue;
    std::vector<engine::PolicySpec> simd_specs = make_specs(backend);
    ASSERT_EQ(scalar_specs.size(), simd_specs.size());
    for (size_t i = 0; i < scalar_specs.size(); ++i) {
      auto a = engine::Solve(scalar_specs[i]);
      auto b = engine::Solve(simd_specs[i]);
      ASSERT_TRUE(a.ok() && b.ok())
          << engine::KindName(scalar_specs[i].kind()) << " under " << backend;
      auto ca = a->MakeController(8.0);
      auto cb = b->MakeController(8.0);
      ASSERT_TRUE(ca.ok() && cb.ok());
      market::DecisionRequest request;
      request.remaining.assign(static_cast<size_t>((*ca)->num_types()), 4);
      auto sheet_a = (*ca)->Decide(request);
      auto sheet_b = (*cb)->Decide(request);
      ASSERT_TRUE(sheet_a.ok() && sheet_b.ok());
      ASSERT_EQ(sheet_a->num_types(), sheet_b->num_types());
      for (int ty = 0; ty < sheet_a->num_types(); ++ty) {
        EXPECT_EQ(sheet_a->offers[static_cast<size_t>(ty)]
                      .per_task_reward_cents,
                  sheet_b->offers[static_cast<size_t>(ty)]
                      .per_task_reward_cents)
            << engine::KindName(scalar_specs[i].kind()) << " under " << backend;
      }
      if (scalar_specs[i].kind() == engine::PolicyKind::kDeadlineDp) {
        const DeadlinePlan& plan = **a->deadline_plan();
        EvalOptions scalar_eval;
        scalar_eval.kernel_backend = "scalar";
        EvalOptions simd_eval;
        simd_eval.kernel_backend = backend;
        auto ea = EvaluatePolicyNominal(plan, scalar_eval);
        auto eb = EvaluatePolicyNominal(**b->deadline_plan(), simd_eval);
        ASSERT_TRUE(ea.ok() && eb.ok());
        ExpectWithin(*eb, *ea, 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace crowdprice::pricing
