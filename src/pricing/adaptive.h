// Adaptive arrival-rate correction (the future work of paper §5.2.5).
//
// The Fig. 10 experiment shows both pricing strategies degrade when the
// day's arrival rate deviates *consistently* from the trained profile (the
// New-Year's-Day effect); the paper suggests "predicting the arrival-rate
// in the next few hours based on the arrival-rate in the last few hours".
// AdaptiveRateController implements that suggestion:
//
//   * it runs a solved policy as usual, but tracks, per elapsed interval,
//     the completions the belief predicted (lambda_t * p(posted price),
//     capped by the backlog) against the completions that materialized;
//   * every `resolve_every` intervals it computes a shrinkage-regularized
//     rate-correction factor
//         factor = (observed + w * predicted_total) /
//                  (predicted + w * predicted_total)
//     and re-solves the remaining-horizon MDP with the scaled rates.
//
// On ordinary days factor ~ 1 and behaviour matches the static plan; on a
// consistently slow (or hot) day the re-solved policies reprice early
// instead of discovering the problem at the deadline.

#ifndef CROWDPRICE_PRICING_ADAPTIVE_H_
#define CROWDPRICE_PRICING_ADAPTIVE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "market/controller.h"
#include "pricing/deadline_dp.h"
#include "util/result.h"

namespace crowdprice::pricing {

struct AdaptiveOptions {
  /// Re-solve cadence in intervals (>= 1). 1 replans every interval.
  int resolve_every = 3;
  /// Shrinkage weight toward factor = 1, as a fraction of the total
  /// predicted completions (guards against overreacting to early noise).
  double prior_weight = 0.25;
  /// Clamp for the correction factor.
  double min_factor = 0.25;
  double max_factor = 4.0;
  DpOptions dp_options;
};

/// A marketplace controller that replans against the observed completion
/// rate. Create it with the *believed* per-interval worker means; it keeps
/// the penalty and action set fixed and rescales only the arrival belief.
///
/// Thread-safe: a member mutex serializes Decide -- tracking state and
/// re-plans included -- so concurrent decides on one campaign wait for
/// each other and never for any other campaign. Between re-plans it holds
/// the plan's policy table only (DeadlinePlan::DropToPolicy).
class AdaptiveRateController final : public market::PricingController {
 public:
  /// Checks Create's inputs without solving anything: `problem` must
  /// validate and fit kMaxPlanStates; believed_lambdas must have
  /// problem.num_intervals entries; horizon_hours > 0 maps wall-clock time
  /// to intervals; `options` must be in range.
  static Status Validate(const DeadlineProblem& problem,
                         const std::vector<double>& believed_lambdas,
                         double horizon_hours, const AdaptiveOptions& options);

  /// Validates, then solves the whole-horizon plan, so a Decide re-plans
  /// only when a rate correction calls for it.
  static Result<AdaptiveRateController> Create(
      const DeadlineProblem& problem, std::vector<double> believed_lambdas,
      ActionSet actions, double horizon_hours, AdaptiveOptions options = {});

  Result<market::OfferSheet> Decide(
      const market::DecisionRequest& request) override;

  /// The most recent rate-correction factor (1 until the first re-solve).
  double current_factor() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return factor_;
  }
  /// Number of MDP solves performed so far, Create's initial one included.
  int resolves() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return resolves_;
  }

 private:
  AdaptiveRateController(DeadlineProblem problem,
                         std::vector<double> believed_lambdas,
                         ActionSet actions, double horizon_hours,
                         AdaptiveOptions options)
      : problem_(problem),
        believed_lambdas_(std::move(believed_lambdas)),
        actions_(std::move(actions)),
        horizon_hours_(horizon_hours),
        options_(options) {}

  Status ReplanFrom(int interval);

  DeadlineProblem problem_;
  std::vector<double> believed_lambdas_;
  ActionSet actions_;
  double horizon_hours_;
  AdaptiveOptions options_;

  /// Guards the members below; the ones above are fixed at Create. Held
  /// by pointer so the controller stays movable: Create returns it by
  /// value, before anything shares it.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();

  /// Plan covering intervals [plan_start_, NT); Create builds the first.
  std::optional<DeadlinePlan> plan_;
  int plan_start_ = 0;

  // Tracking state.
  int last_interval_ = -1;
  int64_t last_remaining_ = -1;
  double predicted_so_far_ = 0.0;
  double observed_so_far_ = 0.0;
  double pending_prediction_ = 0.0;  ///< prediction for the interval in flight
  double factor_ = 1.0;
  int resolves_ = 0;
};

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_ADAPTIVE_H_
