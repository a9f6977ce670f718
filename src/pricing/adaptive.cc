#include "pricing/adaptive.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::pricing {

Status AdaptiveRateController::Validate(
    const DeadlineProblem& problem, const std::vector<double>& believed_lambdas,
    double horizon_hours, const AdaptiveOptions& options) {
  CP_RETURN_IF_ERROR(problem.Validate());
  // Create and every re-plan solve an (N+1) x (NT+1) plan, so bound the
  // state table here: a checkpoint that claims two billion tasks would
  // otherwise load fine and abort the process when its controller is built.
  CP_RETURN_IF_ERROR(problem.CheckPlanStates("adaptive"));
  if (believed_lambdas.size() != static_cast<size_t>(problem.num_intervals)) {
    return Status::InvalidArgument(
        StringF("believed_lambdas has %zu entries; problem has %d intervals",
                believed_lambdas.size(), problem.num_intervals));
  }
  if (!(horizon_hours > 0.0)) {
    return Status::InvalidArgument("horizon_hours must be > 0");
  }
  if (options.resolve_every < 1) {
    return Status::InvalidArgument("resolve_every must be >= 1");
  }
  if (!(options.prior_weight >= 0.0)) {
    return Status::InvalidArgument("prior_weight must be >= 0");
  }
  if (!(options.min_factor > 0.0 && options.min_factor <= 1.0 &&
        options.max_factor >= 1.0)) {
    return Status::InvalidArgument(
        "need 0 < min_factor <= 1 <= max_factor");
  }
  return Status::OK();
}

Result<AdaptiveRateController> AdaptiveRateController::Create(
    const DeadlineProblem& problem, std::vector<double> believed_lambdas,
    ActionSet actions, double horizon_hours, AdaptiveOptions options) {
  CP_RETURN_IF_ERROR(
      Validate(problem, believed_lambdas, horizon_hours, options));
  AdaptiveRateController controller(problem, std::move(believed_lambdas),
                                    std::move(actions), horizon_hours,
                                    options);
  CP_RETURN_IF_ERROR(controller.ReplanFrom(0));
  return controller;
}

Status AdaptiveRateController::ReplanFrom(int interval) {
  DeadlineProblem sub = problem_;
  sub.num_intervals = problem_.num_intervals - interval;
  std::vector<double> scaled;
  scaled.reserve(static_cast<size_t>(sub.num_intervals));
  for (int t = interval; t < problem_.num_intervals; ++t) {
    scaled.push_back(believed_lambdas_[static_cast<size_t>(t)] * factor_);
  }
  Result<DeadlinePlan> solved =
      actions_.uniform_unit_bundle()
          ? SolveImprovedDp(sub, scaled, actions_, options_.dp_options)
          : SolveSimpleDp(sub, scaled, actions_);
  CP_RETURN_IF_ERROR(solved.status());
  // Decide reads only Price(n, t): free the cost-to-go table and the
  // solve arena before the plan goes live.
  solved->DropToPolicy();
  plan_.emplace(std::move(solved).value());
  plan_start_ = interval;
  ++resolves_;
  return Status::OK();
}

Result<market::OfferSheet> AdaptiveRateController::Decide(
    const market::DecisionRequest& request) {
  CP_ASSIGN_OR_RETURN(int64_t remaining_tasks,
                      market::SingleTypeRemaining(request));
  if (remaining_tasks <= 0) {
    return Status::InvalidArgument("Decide called with no remaining tasks");
  }
  std::lock_guard<std::mutex> lock(*mu_);
  const double interval_hours =
      horizon_hours_ / static_cast<double>(problem_.num_intervals);
  int t = static_cast<int>(request.campaign_hours / interval_hours + 1e-9);
  t = std::clamp(t, 0, problem_.num_intervals - 1);

  if (t > last_interval_ && last_interval_ >= 0) {
    // Close the book on the elapsed interval(s): what did the belief
    // predict, what materialized?
    observed_so_far_ +=
        static_cast<double>(last_remaining_ - remaining_tasks);
    predicted_so_far_ += pending_prediction_;
    pending_prediction_ = 0.0;
    if (t % options_.resolve_every == 0 && predicted_so_far_ > 0.0) {
      // Scale-free shrinkage anchor: weight the prior as if
      // prior_weight * predicted_so_far worth of evidence said factor = 1.
      const double anchor = options_.prior_weight * predicted_so_far_ + 1e-9;
      double factor =
          (observed_so_far_ + anchor) / (predicted_so_far_ + anchor);
      factor = std::clamp(factor, options_.min_factor, options_.max_factor);
      if (std::fabs(factor - factor_) > 0.02) {
        factor_ = factor;
        CP_RETURN_IF_ERROR(ReplanFrom(t));
      }
    }
  }
  last_interval_ = std::max(last_interval_, t);
  last_remaining_ = remaining_tasks;

  const int plan_t = std::clamp(t - plan_start_, 0, plan_->num_intervals() - 1);
  const int n = static_cast<int>(
      std::min<int64_t>(remaining_tasks, problem_.num_tasks));
  CP_ASSIGN_OR_RETURN(PricingAction action, plan_->ActionAt(n, plan_t));
  // Record the prediction for the interval now in flight, under the
  // *original* belief so the factor stays anchored to it.
  const double raw =
      believed_lambdas_[static_cast<size_t>(t)] * action.acceptance *
      static_cast<double>(action.bundle);
  pending_prediction_ =
      std::min(raw, static_cast<double>(remaining_tasks));
  return market::OfferSheet::Single(
      market::Offer{action.cost_per_task_cents, action.bundle});
}

}  // namespace crowdprice::pricing
