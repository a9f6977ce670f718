#include "engine/engine.h"

#include <utility>

#include "pricing/budget.h"
#include "pricing/deadline_dp.h"
#include "pricing/fixed_price.h"
#include "pricing/multitype.h"
#include "pricing/penalty_search.h"
#include "pricing/policy_eval.h"
#include "pricing/tradeoff.h"
#include "util/macros.h"

namespace crowdprice::engine {

namespace {

Result<PolicyArtifact> SolveDeadline(const PolicySpec& spec) {
  const auto& s = spec.get<DeadlineDpSpec>();
  if (!s.actions.has_value()) {
    return Status::InvalidArgument("DeadlineDpSpec.actions is required");
  }
  if (s.expected_remaining_bound.has_value()) {
    // Theorem 2 penalty bisection; the inner solves honor the spec's
    // algorithm choice (kSimple is required for bundled action sets).
    pricing::BoundSolveOptions options = s.bound_options;
    options.dp_options = s.dp_options;
    options.use_simple_dp = s.algorithm == DeadlineDpSpec::Algorithm::kSimple;
    CP_ASSIGN_OR_RETURN(
        pricing::BoundSolveResult bound,
        pricing::SolveForExpectedRemaining(s.problem, s.interval_lambdas,
                                           *s.actions,
                                           *s.expected_remaining_bound,
                                           options));
    return PolicyArtifact(DeadlinePolicy{std::move(bound.plan),
                                         bound.penalty_used, bound.dp_solves,
                                         std::move(bound.evaluation)});
  }
  Result<pricing::DeadlinePlan> plan =
      s.algorithm == DeadlineDpSpec::Algorithm::kSimple
          ? pricing::SolveSimpleDp(s.problem, s.interval_lambdas, *s.actions,
                                   s.dp_options)
          : pricing::SolveImprovedDp(s.problem, s.interval_lambdas, *s.actions,
                                     s.dp_options);
  CP_RETURN_IF_ERROR(plan.status());
  return PolicyArtifact(DeadlinePolicy{std::move(plan).value(),
                                       s.problem.penalty_cents, 1,
                                       std::nullopt});
}

Result<PolicyArtifact> SolveBudgetStatic(const PolicySpec& spec) {
  const auto& s = spec.get<BudgetStaticSpec>();
  if (s.acceptance == nullptr) {
    return Status::InvalidArgument("BudgetStaticSpec.acceptance is required");
  }
  if (s.method == BudgetStaticSpec::Method::kExactDp) {
    CP_ASSIGN_OR_RETURN(
        pricing::StaticPriceAssignment assignment,
        pricing::SolveBudgetExactDp(static_cast<int>(s.num_tasks),
                                    static_cast<int>(s.budget_cents),
                                    *s.acceptance, s.max_price_cents));
    return PolicyArtifact(std::move(assignment));
  }
  CP_ASSIGN_OR_RETURN(pricing::StaticPriceAssignment assignment,
                      pricing::SolveBudgetLp(s.num_tasks, s.budget_cents,
                                             *s.acceptance, s.max_price_cents));
  return PolicyArtifact(std::move(assignment));
}

Result<PolicyArtifact> SolveFixedPrice(const PolicySpec& spec) {
  const auto& s = spec.get<FixedPriceSpec>();
  if (s.acceptance == nullptr) {
    return Status::InvalidArgument("FixedPriceSpec.acceptance is required");
  }
  Result<pricing::FixedPriceSolution> solution = Status::OK();
  switch (s.criterion) {
    case FixedPriceSpec::Criterion::kExpectedCompletion:
      solution = pricing::SolveFixedForExpectedCompletion(
          s.num_tasks, s.interval_lambdas, *s.acceptance, s.max_price_cents);
      break;
    case FixedPriceSpec::Criterion::kQuantile:
      solution = pricing::SolveFixedForQuantile(
          s.num_tasks, s.interval_lambdas, *s.acceptance, s.max_price_cents,
          s.threshold);
      break;
    case FixedPriceSpec::Criterion::kExpectedRemaining:
      solution = pricing::SolveFixedForExpectedRemaining(
          s.num_tasks, s.interval_lambdas, *s.acceptance, s.max_price_cents,
          s.threshold);
      break;
  }
  CP_RETURN_IF_ERROR(solution.status());
  return PolicyArtifact(std::move(solution).value());
}

Result<PolicyArtifact> SolveAdaptive(const PolicySpec& spec) {
  const auto& s = spec.get<AdaptiveSpec>();
  if (!s.actions.has_value()) {
    return Status::InvalidArgument("AdaptiveSpec.actions is required");
  }
  // Validate eagerly so a bad spec fails at Solve time, not at admission;
  // the plan itself is solved when a controller is built.
  CP_RETURN_IF_ERROR(pricing::AdaptiveRateController::Validate(
      s.problem, s.believed_lambdas, s.horizon_hours, s.options));
  return PolicyArtifact(AdaptivePolicy{s.problem, s.believed_lambdas,
                                       *s.actions, s.horizon_hours, s.options});
}

Result<PolicyArtifact> SolveMultiTypeSpec(const PolicySpec& spec) {
  const auto& s = spec.get<MultiTypeSpec>();
  CP_ASSIGN_OR_RETURN(
      pricing::JointLogitAcceptance joint,
      pricing::JointLogitAcceptance::Create(s.s1, s.b1, s.s2, s.b2, s.m));
  pricing::MultiTypeOptions options;
  options.kernel_backend = s.kernel_backend;
  CP_ASSIGN_OR_RETURN(pricing::MultiTypePlan plan,
                      pricing::SolveMultiType(s.problem, s.interval_lambdas,
                                              joint, options));
  return PolicyArtifact(std::move(plan));
}

Result<PolicyArtifact> SolveTradeoff(const PolicySpec& spec) {
  const auto& s = spec.get<TradeoffSpec>();
  if (s.acceptance == nullptr) {
    return Status::InvalidArgument("TradeoffSpec.acceptance is required");
  }
  Result<pricing::TradeoffSolution> solution =
      s.model == TradeoffSpec::Model::kFixedRate
          ? pricing::SolveFixedRateTradeoff(s.rate, *s.acceptance, s.alpha,
                                            s.max_price_cents,
                                            s.two_completion_tolerance)
          : pricing::SolveWorkerArrivalTradeoff(s.rate, *s.acceptance, s.alpha,
                                                s.max_price_cents);
  CP_RETURN_IF_ERROR(solution.status());
  return PolicyArtifact(std::move(solution).value());
}

}  // namespace

const char* KindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDeadlineDp: return "deadline-dp";
    case PolicyKind::kBudgetStatic: return "budget-static";
    case PolicyKind::kFixedPrice: return "fixed-price";
    case PolicyKind::kAdaptive: return "adaptive";
    case PolicyKind::kMultiType: return "multitype";
    case PolicyKind::kTradeoff: return "tradeoff";
  }
  return "unknown";
}

Result<PolicyArtifact> Engine::Solve(const PolicySpec& spec) {
  switch (spec.kind()) {
    case PolicyKind::kDeadlineDp: return SolveDeadline(spec);
    case PolicyKind::kBudgetStatic: return SolveBudgetStatic(spec);
    case PolicyKind::kFixedPrice: return SolveFixedPrice(spec);
    case PolicyKind::kAdaptive: return SolveAdaptive(spec);
    case PolicyKind::kMultiType: return SolveMultiTypeSpec(spec);
    case PolicyKind::kTradeoff: return SolveTradeoff(spec);
  }
  return Status::Internal("unknown policy kind");
}

}  // namespace crowdprice::engine
