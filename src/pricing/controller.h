// Adapters that drive the marketplace simulator with solved plans.

#ifndef CROWDPRICE_PRICING_CONTROLLER_H_
#define CROWDPRICE_PRICING_CONTROLLER_H_

#include "market/controller.h"
#include "pricing/multitype.h"
#include "pricing/plan.h"
#include "util/result.h"

namespace crowdprice::pricing {

/// Plays a DeadlinePlan as a marketplace controller: at decision time
/// `now`, looks up the plan's action at (remaining tasks, current interval).
/// The plan must outlive the controller.
class PlanController final : public market::PricingController {
 public:
  /// horizon_hours is the campaign deadline the plan was solved for; the
  /// interval width is horizon / plan.num_intervals().
  static Result<PlanController> Create(const DeadlinePlan* plan,
                                       double horizon_hours);

  /// Pure lookup into the immutable plan table.
  Result<market::OfferSheet> Decide(
      const market::DecisionRequest& request) override;

 private:
  PlanController(const DeadlinePlan* plan, double interval_hours)
      : plan_(plan), interval_hours_(interval_hours) {}

  const DeadlinePlan* plan_;
  double interval_hours_;
};

/// Plays a solved MultiTypePlan (§6): both task types priced jointly, one
/// offer per type on the sheet. The plan must outlive the controller.
class MultiTypeController final : public market::PricingController {
 public:
  /// horizon_hours is the campaign deadline the plan was solved for; the
  /// interval width is horizon / plan.problem().num_intervals.
  static Result<MultiTypeController> Create(const MultiTypePlan* plan,
                                            double horizon_hours);

  int num_types() const override { return 2; }
  /// Pure lookup into the immutable joint plan.
  Result<market::OfferSheet> Decide(
      const market::DecisionRequest& request) override;

 private:
  MultiTypeController(const MultiTypePlan* plan, double interval_hours)
      : plan_(plan), interval_hours_(interval_hours) {}

  const MultiTypePlan* plan_;
  double interval_hours_;
};

/// Plays a JointLogitAcceptance (the §6 two-type conditional logit) as the
/// market's sheet-level worker-choice model, so RunMultiTypeSimulation
/// draws from exactly the distribution SolveMultiType planned against.
class JointLogitSheetAcceptance final : public market::SheetAcceptance {
 public:
  explicit JointLogitSheetAcceptance(JointLogitAcceptance joint)
      : joint_(joint) {}

  Result<std::vector<double>> ProbabilitiesAt(
      const market::OfferSheet& sheet) const override;

 private:
  JointLogitAcceptance joint_;
};

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_CONTROLLER_H_
