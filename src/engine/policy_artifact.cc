#include "engine/policy_artifact.h"

#include <cstdint>
#include <string>
#include <utility>

#include "pricing/controller.h"
#include "pricing/serialization.h"
#include "util/hexfloat.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::engine {

namespace {

constexpr char kHeader[] = "crowdprice-artifact v1";

}  // namespace

Status PolicyArtifact::WrongKind(const char* wanted) const {
  return Status::FailedPrecondition(
      StringF("artifact holds a %s policy; %s requested",
              KindName(kind()), wanted));
}

Result<const pricing::DeadlinePlan*> PolicyArtifact::deadline_plan() const {
  const auto* p = std::get_if<DeadlinePolicy>(&payload_);
  if (p == nullptr) return WrongKind("deadline plan");
  return &p->plan;
}

Result<const pricing::PolicyEvaluation*> PolicyArtifact::deadline_evaluation()
    const {
  const auto* p = std::get_if<DeadlinePolicy>(&payload_);
  if (p == nullptr) return WrongKind("deadline evaluation");
  if (!p->evaluation.has_value()) {
    return Status::FailedPrecondition(
        "no cached evaluation (solve without a bound; call Evaluate())");
  }
  return &*p->evaluation;
}

double PolicyArtifact::penalty_used() const {
  const auto* p = std::get_if<DeadlinePolicy>(&payload_);
  return p == nullptr ? 0.0 : p->penalty_used;
}

int PolicyArtifact::dp_solves() const {
  const auto* p = std::get_if<DeadlinePolicy>(&payload_);
  return p == nullptr ? 1 : p->dp_solves;
}

std::string PolicyArtifact::kernel_backend() const {
  if (const auto* p = std::get_if<DeadlinePolicy>(&payload_)) {
    return p->plan.kernel_backend;
  }
  if (const auto* p = std::get_if<pricing::MultiTypePlan>(&payload_)) {
    return p->kernel_backend;
  }
  return std::string();
}

Result<const pricing::StaticPriceAssignment*>
PolicyArtifact::budget_assignment() const {
  const auto* p = std::get_if<pricing::StaticPriceAssignment>(&payload_);
  if (p == nullptr) return WrongKind("budget assignment");
  return p;
}

Result<const pricing::FixedPriceSolution*> PolicyArtifact::fixed_price() const {
  const auto* p = std::get_if<pricing::FixedPriceSolution>(&payload_);
  if (p == nullptr) return WrongKind("fixed price");
  return p;
}

Result<const pricing::MultiTypePlan*> PolicyArtifact::multitype_plan() const {
  const auto* p = std::get_if<pricing::MultiTypePlan>(&payload_);
  if (p == nullptr) return WrongKind("multitype plan");
  return p;
}

Result<const pricing::TradeoffSolution*> PolicyArtifact::tradeoff() const {
  const auto* p = std::get_if<pricing::TradeoffSolution>(&payload_);
  if (p == nullptr) return WrongKind("tradeoff solution");
  return p;
}

Result<std::unique_ptr<market::PricingController>>
PolicyArtifact::MakeController(double horizon_hours) const {
  switch (kind()) {
    case PolicyKind::kDeadlineDp: {
      const DeadlinePolicy& p = std::get<DeadlinePolicy>(payload_);
      CP_ASSIGN_OR_RETURN(
          pricing::PlanController controller,
          pricing::PlanController::Create(&p.plan, horizon_hours));
      return std::unique_ptr<market::PricingController>(
          std::make_unique<pricing::PlanController>(std::move(controller)));
    }
    case PolicyKind::kBudgetStatic: {
      const auto& assignment =
          std::get<pricing::StaticPriceAssignment>(payload_);
      std::vector<market::StaticTierController::Tier> tiers;
      tiers.reserve(assignment.allocations.size());
      for (const pricing::PriceAllocation& alloc : assignment.allocations) {
        tiers.push_back({static_cast<double>(alloc.price_cents), alloc.count});
      }
      CP_ASSIGN_OR_RETURN(
          market::StaticTierController controller,
          market::StaticTierController::Create(std::move(tiers)));
      return std::unique_ptr<market::PricingController>(
          std::make_unique<market::StaticTierController>(
              std::move(controller)));
    }
    case PolicyKind::kFixedPrice: {
      const auto& fixed = std::get<pricing::FixedPriceSolution>(payload_);
      return std::unique_ptr<market::PricingController>(
          std::make_unique<market::FixedOfferController>(
              market::Offer{static_cast<double>(fixed.price_cents), 1}));
    }
    case PolicyKind::kAdaptive: {
      CP_ASSIGN_OR_RETURN(pricing::AdaptiveRateController controller,
                          MakeAdaptiveController());
      return std::unique_ptr<market::PricingController>(
          std::make_unique<pricing::AdaptiveRateController>(
              std::move(controller)));
    }
    case PolicyKind::kMultiType: {
      const auto& plan = std::get<pricing::MultiTypePlan>(payload_);
      CP_ASSIGN_OR_RETURN(
          pricing::MultiTypeController controller,
          pricing::MultiTypeController::Create(&plan, horizon_hours));
      return std::unique_ptr<market::PricingController>(
          std::make_unique<pricing::MultiTypeController>(
              std::move(controller)));
    }
    case PolicyKind::kTradeoff: {
      const auto& sol = std::get<pricing::TradeoffSolution>(payload_);
      return std::unique_ptr<market::PricingController>(
          std::make_unique<market::FixedOfferController>(
              market::Offer{static_cast<double>(sol.price_cents), 1}));
    }
  }
  return Status::Internal("unknown artifact kind");
}

Result<pricing::AdaptiveRateController> PolicyArtifact::MakeAdaptiveController()
    const {
  const auto* p = std::get_if<AdaptivePolicy>(&payload_);
  if (p == nullptr) return WrongKind("adaptive controller");
  return pricing::AdaptiveRateController::Create(
      p->problem, p->believed_lambdas, p->actions, p->horizon_hours,
      p->options);
}

Result<pricing::PolicyEvaluation> PolicyArtifact::Evaluate() const {
  const auto* p = std::get_if<DeadlinePolicy>(&payload_);
  if (p == nullptr) {
    return Status::Unimplemented(
        StringF("policy_eval scoring is defined for deadline plans; artifact "
                "holds %s", KindName(kind())));
  }
  if (p->evaluation.has_value()) return *p->evaluation;
  return pricing::EvaluatePolicyNominal(p->plan);
}

Status PolicyArtifact::PrecomputeEvaluation(
    const pricing::EvalOptions& options) {
  auto* p = std::get_if<DeadlinePolicy>(&payload_);
  if (p == nullptr) return WrongKind("evaluation precompute");
  if (p->evaluation.has_value()) return Status::OK();
  CP_ASSIGN_OR_RETURN(pricing::PolicyEvaluation eval,
                      pricing::EvaluatePolicyNominal(p->plan, options));
  p->evaluation = std::move(eval);
  return Status::OK();
}

Result<std::string> PolicyArtifact::Serialize() const {
  std::string out = kHeader;
  out += "\nkind ";
  out += KindName(kind());
  out += '\n';
  // Field appenders: `sep`, then the value (hex float or base 10). A field
  // that opens its line passes an empty `sep`.
  const auto hex = [&out](double v, const char* sep = " ") {
    out += sep;
    AppendHex(v, &out);
  };
  const auto num = [&out](auto v, const char* sep = " ") {
    out += sep;
    AppendInt(v, &out);
  };
  switch (kind()) {
    case PolicyKind::kDeadlineDp: {
      const DeadlinePolicy& p = std::get<DeadlinePolicy>(payload_);
      out += "deadline-meta";
      hex(p.penalty_used);
      num(p.dp_solves);
      out += '\n';
      pricing::AppendPlan(p.plan, &out);
      return out;
    }
    case PolicyKind::kBudgetStatic: {
      const auto& a = std::get<pricing::StaticPriceAssignment>(payload_);
      out += "budget-meta";
      num(a.allocations.size());
      hex(a.expected_worker_arrivals);
      hex(a.total_cost_cents);
      out += '\n';
      for (const pricing::PriceAllocation& alloc : a.allocations) {
        num(alloc.price_cents, "");
        num(alloc.count);
        out += '\n';
      }
      return out;
    }
    case PolicyKind::kFixedPrice: {
      const auto& f = std::get<pricing::FixedPriceSolution>(payload_);
      out += "fixed";
      num(f.price_cents);
      hex(f.expected_remaining);
      hex(f.prob_finish);
      hex(f.expected_cost_cents);
      out += '\n';
      return out;
    }
    case PolicyKind::kTradeoff: {
      const auto& s = std::get<pricing::TradeoffSolution>(payload_);
      out += "tradeoff";
      num(s.price_cents);
      hex(s.objective_per_task);
      hex(s.expected_latency_per_task);
      num(s.objective_curve.size());
      out += '\n';
      for (size_t i = 0; i < s.objective_curve.size(); ++i) {
        hex(s.objective_curve[i], i > 0 ? " " : "");
      }
      if (!s.objective_curve.empty()) out += '\n';
      return out;
    }
    case PolicyKind::kMultiType: {
      const auto& plan = std::get<pricing::MultiTypePlan>(payload_);
      const pricing::MultiTypeProblem& p = plan.problem();
      // Every field at its longest, plus a separator: the text is reserved
      // once and each table row written in place through a cursor.
      const auto intervals = static_cast<size_t>(p.num_intervals);
      const size_t rows = static_cast<size_t>(p.num_tasks_1 + 1) *
                          static_cast<size_t>(p.num_tasks_2 + 1);
      const size_t policy_row = intervals * (kMaxIntChars + 1);
      out.reserve(out.size() + 256 + intervals * (kMaxHexChars + 1) +
                  rows * policy_row);
      out += "multitype-meta";
      num(p.num_tasks_1);
      num(p.num_tasks_2);
      num(p.num_intervals);
      num(p.max_price_cents);
      num(p.price_stride);
      hex(p.penalty_1_cents);
      hex(p.penalty_2_cents);
      hex(p.truncation_epsilon);
      out += "\nlambdas";
      for (double lam : plan.interval_lambdas()) hex(lam);
      out += "\npolicy\n";
      for (int n1 = 0; n1 <= p.num_tasks_1; ++n1) {
        for (int n2 = 0; n2 <= p.num_tasks_2; ++n2) {
          AppendRow(&out, policy_row, [&](char* c) {
            for (int t = 0; t < p.num_intervals; ++t) {
              if (t > 0) *c++ = ' ';
              c = PutInt(plan.policy()[plan.PolicyIndex(n1, n2, t)], c);
            }
            *c++ = '\n';
            return c;
          });
        }
      }
      return out;
    }
    case PolicyKind::kAdaptive: {
      const AdaptivePolicy& p = std::get<AdaptivePolicy>(payload_);
      out += "adaptive-meta";
      num(p.problem.num_tasks);
      num(p.problem.num_intervals);
      hex(p.problem.penalty_cents);
      hex(p.problem.extra_penalty_alpha);
      hex(p.problem.truncation_epsilon);
      hex(p.horizon_hours);
      out += "\nadaptive-options";
      num(p.options.resolve_every);
      hex(p.options.prior_weight);
      hex(p.options.min_factor);
      hex(p.options.max_factor);
      num(p.options.dp_options.monotone_price_search ? 1 : 0);
      num(p.options.dp_options.time_monotonicity_pruning ? 1 : 0);
      num(p.options.dp_options.num_threads);
      out += "\nlambdas";
      for (double lam : p.believed_lambdas) hex(lam);
      out += "\nactions";
      num(p.actions.size());
      out += '\n';
      for (const pricing::PricingAction& a : p.actions.actions()) {
        hex(a.cost_per_task_cents, "");
        num(a.bundle);
        hex(a.acceptance);
        out += '\n';
      }
      return out;
    }
  }
  return Status::Internal("unknown artifact kind");
}

Result<PolicyArtifact> PolicyArtifact::Deserialize(std::string_view text) {
  LineReader reader(text, "artifact");
  CP_RETURN_IF_ERROR(reader.ExpectFinalNewline());
  CP_ASSIGN_OR_RETURN(auto header, reader.Next("header"));
  if (header != kHeader) {
    return Status::InvalidArgument(
        StringF("unsupported artifact header '%.*s'",
                static_cast<int>(header.size()), header.data()));
  }
  CP_ASSIGN_OR_RETURN(auto kind_line, reader.Next("kind line"));
  CP_ASSIGN_OR_RETURN(auto ktokens, Tokens(kind_line, 2, "kind line"));
  if (ktokens[0] != "kind") {
    return Status::InvalidArgument("expected 'kind' line");
  }
  const std::string_view kind_name = ktokens[1];

  if (kind_name == KindName(PolicyKind::kDeadlineDp)) {
    CP_ASSIGN_OR_RETURN(auto meta, reader.Next("deadline-meta"));
    CP_ASSIGN_OR_RETURN(auto mtokens, Tokens(meta, 3, "deadline-meta"));
    if (mtokens[0] != "deadline-meta") {
      return Status::InvalidArgument("expected 'deadline-meta' line");
    }
    CP_ASSIGN_OR_RETURN(double penalty_used,
                        ParseDouble(mtokens[1], "penalty_used"));
    CP_ASSIGN_OR_RETURN(const int solves,
                        ParseInt<int>(mtokens[2], "dp_solves"));
    CP_ASSIGN_OR_RETURN(pricing::DeadlinePlan plan,
                        pricing::DeserializePlan(reader.Rest()));
    return PolicyArtifact(
        DeadlinePolicy{std::move(plan), penalty_used, solves, std::nullopt});
  }

  if (kind_name == KindName(PolicyKind::kBudgetStatic)) {
    CP_ASSIGN_OR_RETURN(auto meta, reader.Next("budget-meta"));
    CP_ASSIGN_OR_RETURN(auto mtokens, Tokens(meta, 4, "budget-meta"));
    if (mtokens[0] != "budget-meta") {
      return Status::InvalidArgument("expected 'budget-meta' line");
    }
    CP_ASSIGN_OR_RETURN(const int count,
                        ParseInt<int>(mtokens[1], "allocation count"));
    if (count < 0 || count > (1 << 20)) {
      return Status::InvalidArgument(
          StringF("implausible allocation count %d", count));
    }
    pricing::StaticPriceAssignment assignment;
    CP_ASSIGN_OR_RETURN(assignment.expected_worker_arrivals,
                        ParseDouble(mtokens[2], "expected workers"));
    CP_ASSIGN_OR_RETURN(assignment.total_cost_cents,
                        ParseDouble(mtokens[3], "total cost"));
    for (int i = 0; i < count; ++i) {
      CP_ASSIGN_OR_RETURN(auto line, reader.Next("allocation"));
      CP_ASSIGN_OR_RETURN(auto tokens, Tokens(line, 2, "allocation"));
      pricing::PriceAllocation alloc;
      CP_ASSIGN_OR_RETURN(alloc.price_cents, ParseInt<int>(tokens[0], "price"));
      CP_ASSIGN_OR_RETURN(alloc.count, ParseInt<int64_t>(tokens[1], "count"));
      assignment.allocations.push_back(alloc);
    }
    CP_RETURN_IF_ERROR(reader.ExpectEnd("budget allocations"));
    return PolicyArtifact(std::move(assignment));
  }

  if (kind_name == KindName(PolicyKind::kFixedPrice)) {
    CP_ASSIGN_OR_RETURN(auto line, reader.Next("fixed line"));
    CP_ASSIGN_OR_RETURN(auto tokens, Tokens(line, 5, "fixed line"));
    if (tokens[0] != "fixed") {
      return Status::InvalidArgument("expected 'fixed' line");
    }
    pricing::FixedPriceSolution fixed;
    CP_ASSIGN_OR_RETURN(fixed.price_cents, ParseInt<int>(tokens[1], "price"));
    CP_ASSIGN_OR_RETURN(fixed.expected_remaining,
                        ParseDouble(tokens[2], "expected remaining"));
    CP_ASSIGN_OR_RETURN(fixed.prob_finish,
                        ParseDouble(tokens[3], "prob finish"));
    CP_ASSIGN_OR_RETURN(fixed.expected_cost_cents,
                        ParseDouble(tokens[4], "expected cost"));
    CP_RETURN_IF_ERROR(reader.ExpectEnd("fixed line"));
    return PolicyArtifact(std::move(fixed));
  }

  if (kind_name == KindName(PolicyKind::kTradeoff)) {
    CP_ASSIGN_OR_RETURN(auto line, reader.Next("tradeoff line"));
    CP_ASSIGN_OR_RETURN(auto tokens, Tokens(line, 5, "tradeoff line"));
    if (tokens[0] != "tradeoff") {
      return Status::InvalidArgument("expected 'tradeoff' line");
    }
    pricing::TradeoffSolution sol;
    CP_ASSIGN_OR_RETURN(sol.price_cents, ParseInt<int>(tokens[1], "price"));
    CP_ASSIGN_OR_RETURN(sol.objective_per_task,
                        ParseDouble(tokens[2], "objective"));
    CP_ASSIGN_OR_RETURN(sol.expected_latency_per_task,
                        ParseDouble(tokens[3], "latency"));
    CP_ASSIGN_OR_RETURN(const int curve,
                        ParseInt<int>(tokens[4], "curve size"));
    if (curve < 0 || curve > (1 << 20)) {
      return Status::InvalidArgument(
          StringF("implausible curve size %d", curve));
    }
    if (curve > 0) {
      CP_ASSIGN_OR_RETURN(auto curve_line, reader.Next("curve"));
      CP_ASSIGN_OR_RETURN(
          auto values, Tokens(curve_line, static_cast<size_t>(curve), "curve"));
      sol.objective_curve.reserve(static_cast<size_t>(curve));
      for (const std::string_view v : values) {
        CP_ASSIGN_OR_RETURN(double x, ParseDouble(v, "curve value"));
        sol.objective_curve.push_back(x);
      }
    }
    CP_RETURN_IF_ERROR(reader.ExpectEnd("tradeoff"));
    return PolicyArtifact(std::move(sol));
  }

  if (kind_name == KindName(PolicyKind::kMultiType)) {
    CP_ASSIGN_OR_RETURN(auto meta, reader.Next("multitype-meta"));
    CP_ASSIGN_OR_RETURN(auto mtokens, Tokens(meta, 9, "multitype-meta"));
    if (mtokens[0] != "multitype-meta") {
      return Status::InvalidArgument("expected 'multitype-meta' line");
    }
    pricing::MultiTypeProblem problem;
    CP_ASSIGN_OR_RETURN(problem.num_tasks_1,
                        ParseInt<int>(mtokens[1], "num_tasks_1"));
    CP_ASSIGN_OR_RETURN(problem.num_tasks_2,
                        ParseInt<int>(mtokens[2], "num_tasks_2"));
    CP_ASSIGN_OR_RETURN(problem.num_intervals,
                        ParseInt<int>(mtokens[3], "num_intervals"));
    CP_ASSIGN_OR_RETURN(problem.max_price_cents,
                        ParseInt<int>(mtokens[4], "max_price"));
    CP_ASSIGN_OR_RETURN(problem.price_stride,
                        ParseInt<int>(mtokens[5], "price_stride"));
    CP_ASSIGN_OR_RETURN(problem.penalty_1_cents,
                        ParseDouble(mtokens[6], "penalty_1"));
    CP_ASSIGN_OR_RETURN(problem.penalty_2_cents,
                        ParseDouble(mtokens[7], "penalty_2"));
    CP_ASSIGN_OR_RETURN(problem.truncation_epsilon,
                        ParseDouble(mtokens[8], "epsilon"));
    // Validate bounds the plan at kMaxPlanStates before anything is sized
    // from the meta line.
    CP_RETURN_IF_ERROR(problem.Validate());

    CP_ASSIGN_OR_RETURN(auto lambda_line, reader.Next("lambdas"));
    CP_ASSIGN_OR_RETURN(
        auto ltokens,
        Tokens(lambda_line, static_cast<size_t>(problem.num_intervals) + 1,
               "lambdas line"));
    if (ltokens[0] != "lambdas") {
      return Status::InvalidArgument("expected 'lambdas' line");
    }
    std::vector<double> lambdas;
    for (size_t i = 1; i < ltokens.size(); ++i) {
      CP_ASSIGN_OR_RETURN(double lam, ParseDouble(ltokens[i], "lambda"));
      lambdas.push_back(lam);
    }
    // The policy table is sized from the meta line, so first check that the
    // text left can hold it.
    const auto intervals = static_cast<uint64_t>(problem.num_intervals);
    const auto layer = (static_cast<uint64_t>(problem.num_tasks_1) + 1) *
                       (static_cast<uint64_t>(problem.num_tasks_2) + 1);
    CP_RETURN_IF_ERROR(reader.ExpectRoomFor(layer * intervals, "policy"));
    pricing::MultiTypePlan plan =
        pricing::MultiTypePlan::PolicyOnly(problem, std::move(lambdas));

    CP_ASSIGN_OR_RETURN(auto policy_marker, reader.Next("policy marker"));
    if (policy_marker != "policy") {
      return Status::InvalidArgument("expected 'policy' marker");
    }
    constexpr int kMaxPacked = 4096 * 4096;
    for (int r1 = 0; r1 <= problem.num_tasks_1; ++r1) {
      for (int r2 = 0; r2 <= problem.num_tasks_2; ++r2) {
        CP_ASSIGN_OR_RETURN(auto line, reader.Next("policy row"));
        CP_RETURN_IF_ERROR(ForEachToken(
            line, static_cast<size_t>(problem.num_intervals), "policy row",
            [&](size_t t, std::string_view token) -> Status {
              CP_ASSIGN_OR_RETURN(const int packed,
                                  ParseInt<int>(token, "policy entry"));
              if (packed < -1 || packed >= kMaxPacked) {
                return Status::InvalidArgument(
                    StringF("policy entry %d out of range at (%d, %d, t=%zu)",
                            packed, r1, r2, t));
              }
              plan.policy()[plan.PolicyIndex(r1, r2, static_cast<int>(t))] =
                  packed;
              return Status::OK();
            }));
      }
    }

    CP_RETURN_IF_ERROR(pricing::SkipLegacyOpt(&reader, layer, intervals + 1,
                                              "multitype plan"));
    return PolicyArtifact(std::move(plan));
  }

  if (kind_name == KindName(PolicyKind::kAdaptive)) {
    CP_ASSIGN_OR_RETURN(auto meta, reader.Next("adaptive-meta"));
    CP_ASSIGN_OR_RETURN(auto mtokens, Tokens(meta, 7, "adaptive-meta"));
    if (mtokens[0] != "adaptive-meta") {
      return Status::InvalidArgument("expected 'adaptive-meta' line");
    }
    pricing::DeadlineProblem problem;
    CP_ASSIGN_OR_RETURN(problem.num_tasks,
                        ParseInt<int>(mtokens[1], "num_tasks"));
    CP_ASSIGN_OR_RETURN(problem.num_intervals,
                        ParseInt<int>(mtokens[2], "num_intervals"));
    CP_ASSIGN_OR_RETURN(problem.penalty_cents,
                        ParseDouble(mtokens[3], "penalty"));
    CP_ASSIGN_OR_RETURN(problem.extra_penalty_alpha,
                        ParseDouble(mtokens[4], "alpha"));
    CP_ASSIGN_OR_RETURN(problem.truncation_epsilon,
                        ParseDouble(mtokens[5], "epsilon"));
    double horizon_hours = 0.0;
    CP_ASSIGN_OR_RETURN(horizon_hours, ParseDouble(mtokens[6], "horizon"));
    CP_RETURN_IF_ERROR(problem.Validate());

    CP_ASSIGN_OR_RETURN(auto opts, reader.Next("adaptive-options"));
    CP_ASSIGN_OR_RETURN(auto otokens, Tokens(opts, 8, "adaptive-options"));
    if (otokens[0] != "adaptive-options") {
      return Status::InvalidArgument("expected 'adaptive-options' line");
    }
    pricing::AdaptiveOptions options;
    CP_ASSIGN_OR_RETURN(options.resolve_every,
                        ParseInt<int>(otokens[1], "resolve_every"));
    CP_ASSIGN_OR_RETURN(options.prior_weight,
                        ParseDouble(otokens[2], "prior_weight"));
    CP_ASSIGN_OR_RETURN(options.min_factor,
                        ParseDouble(otokens[3], "min_factor"));
    CP_ASSIGN_OR_RETURN(options.max_factor,
                        ParseDouble(otokens[4], "max_factor"));
    CP_ASSIGN_OR_RETURN(const int monotone,
                        ParseInt<int>(otokens[5], "monotone"));
    CP_ASSIGN_OR_RETURN(const int time_prune,
                        ParseInt<int>(otokens[6], "time_prune"));
    CP_ASSIGN_OR_RETURN(const int num_threads,
                        ParseInt<int>(otokens[7], "num_threads"));
    // The controller's Validate does not inspect dp_options, so reject a
    // corrupt thread count here rather than when a controller solves its
    // plan (0 = auto, like DpOptions).
    if (num_threads < 0 || num_threads > (1 << 12)) {
      return Status::InvalidArgument(
          StringF("implausible num_threads %d", num_threads));
    }
    options.dp_options.monotone_price_search = monotone != 0;
    options.dp_options.time_monotonicity_pruning = time_prune != 0;
    options.dp_options.num_threads = num_threads;

    CP_ASSIGN_OR_RETURN(auto lambda_line, reader.Next("lambdas"));
    CP_ASSIGN_OR_RETURN(
        auto ltokens,
        Tokens(lambda_line, static_cast<size_t>(problem.num_intervals) + 1,
               "lambdas line"));
    if (ltokens[0] != "lambdas") {
      return Status::InvalidArgument("expected 'lambdas' line");
    }
    std::vector<double> believed_lambdas;
    for (size_t i = 1; i < ltokens.size(); ++i) {
      CP_ASSIGN_OR_RETURN(double lam, ParseDouble(ltokens[i], "lambda"));
      believed_lambdas.push_back(lam);
    }

    CP_ASSIGN_OR_RETURN(auto actions_line, reader.Next("actions"));
    CP_ASSIGN_OR_RETURN(auto atokens, Tokens(actions_line, 2, "actions line"));
    if (atokens[0] != "actions") {
      return Status::InvalidArgument("expected 'actions' line");
    }
    CP_ASSIGN_OR_RETURN(const int num_actions,
                        ParseInt<int>(atokens[1], "action count"));
    if (num_actions < 1 || num_actions > (1 << 20)) {
      return Status::InvalidArgument(
          StringF("implausible action count %d", num_actions));
    }
    std::vector<pricing::PricingAction> actions;
    for (int i = 0; i < num_actions; ++i) {
      CP_ASSIGN_OR_RETURN(auto line, reader.Next("action"));
      CP_ASSIGN_OR_RETURN(auto tokens, Tokens(line, 3, "action"));
      pricing::PricingAction a;
      CP_ASSIGN_OR_RETURN(a.cost_per_task_cents,
                          ParseDouble(tokens[0], "cost"));
      CP_ASSIGN_OR_RETURN(a.bundle, ParseInt<int>(tokens[1], "bundle"));
      CP_ASSIGN_OR_RETURN(a.acceptance, ParseDouble(tokens[2], "acceptance"));
      actions.push_back(a);
    }
    CP_ASSIGN_OR_RETURN(pricing::ActionSet action_set,
                        pricing::ActionSet::FromActions(std::move(actions)));
    // The same eager validation Solve applies: a reloaded checkpoint must
    // be able to instantiate controllers.
    CP_RETURN_IF_ERROR(pricing::AdaptiveRateController::Validate(
        problem, believed_lambdas, horizon_hours, options));
    CP_RETURN_IF_ERROR(reader.ExpectEnd("adaptive actions"));
    return PolicyArtifact(AdaptivePolicy{problem, std::move(believed_lambdas),
                                         std::move(action_set), horizon_hours,
                                         options});
  }

  return Status::InvalidArgument(
      StringF("unknown artifact kind '%.*s'",
              static_cast<int>(kind_name.size()), kind_name.data()));
}

}  // namespace crowdprice::engine
