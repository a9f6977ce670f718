// Pricing controllers: the decision-making side of a simulated campaign.
//
// The simulator consults a controller at every decision epoch (and, when
// configured, on every worker arrival) for the offers to post. A
// consultation is a DecisionRequest (campaign clock, per-type remaining
// counts) answered by an OfferSheet (one offer per task type; single-type
// policies answer 1-offer sheets). Controllers range from the trivial
// fixed offer (the Faridani baseline posts one price up-front) to MDP
// policy tables (pricing/controller.h), the descending price tiers of the
// fixed-budget static strategy, and the §6 joint multi-type policy.

#ifndef CROWDPRICE_MARKET_CONTROLLER_H_
#define CROWDPRICE_MARKET_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "market/types.h"
#include "util/result.h"

namespace crowdprice::market {

/// Interface consulted by the simulator for the offers currently in force.
class PricingController {
 public:
  virtual ~PricingController() = default;

  /// Task types this controller prices concurrently; the request's
  /// `remaining` vector must have exactly this many entries.
  virtual int num_types() const { return 1; }

  /// Returns the sheet to post from the request's time onward: one offer
  /// per task type, aligned with `request.remaining`. At least one
  /// remaining entry is > 0. (The pre-sheet Decide(now, remaining) shim
  /// completed its one-PR deprecation cycle and is gone; build a
  /// DecisionRequest::Single and read sheet.offers[0].)
  ///
  /// May be called from several threads at once: the serving map calls
  /// it on whichever reader thread serves the campaign. A controller that
  /// keeps state between decides guards that state itself
  /// (pricing::AdaptiveRateController holds a mutex). The one exception
  /// is net::RemoteController, which stays one session per client.
  virtual Result<OfferSheet> Decide(const DecisionRequest& request) = 0;
};

/// Validates that `request` prices exactly one task type and returns its
/// remaining count -- the single-type controllers' shared precondition.
Result<int64_t> SingleTypeRemaining(const DecisionRequest& request);

/// Sheet-level worker choice: the probability an arriving worker picks
/// each of the concurrently-posted task types. The demand-side companion
/// of PricingController (choice::AcceptanceFunction is the 1-type case).
class SheetAcceptance {
 public:
  virtual ~SheetAcceptance() = default;

  /// Per-type pick probabilities for one arriving worker facing `sheet`.
  /// Returns one entry per offer; every entry >= 0 and the sum <= 1 (the
  /// remainder walks away).
  virtual Result<std::vector<double>> ProbabilitiesAt(
      const OfferSheet& sheet) const = 0;
};

/// Posts one constant offer forever (static/fixed pricing).
class FixedOfferController final : public PricingController {
 public:
  explicit FixedOfferController(Offer offer) : offer_(offer) {}
  Result<OfferSheet> Decide(const DecisionRequest& request) override;

 private:
  Offer offer_;
};

/// Plays a pre-computed per-interval schedule: offer[i] is in force on
/// [i*interval, (i+1)*interval); the last entry persists beyond the end.
class ScheduleController final : public PricingController {
 public:
  /// Requires a non-empty schedule and interval > 0.
  static Result<ScheduleController> Create(std::vector<Offer> schedule,
                                           double interval_hours);
  Result<OfferSheet> Decide(const DecisionRequest& request) override;

 private:
  ScheduleController(std::vector<Offer> schedule, double interval_hours)
      : schedule_(std::move(schedule)), interval_hours_(interval_hours) {}
  std::vector<Offer> schedule_;
  double interval_hours_;
};

/// A semi-static pricing strategy (§4.2.3, Definition 2): a price sequence
/// c_1, ..., c_N fixed up-front; all remaining tasks carry price c_{k+1}
/// after k tasks have been picked up. Unlike the static strategy the
/// sequence need not be monotone -- Theorem 5 shows E[worker arrivals] is
/// order-invariant, which the tests verify by simulation. Use with
/// decide_on_every_assignment so repricing happens exactly per pickup.
class SemiStaticController final : public PricingController {
 public:
  /// One price per task, all finite and >= 0; the sequence length fixes N.
  static Result<SemiStaticController> Create(std::vector<double> prices_cents);

  Result<OfferSheet> Decide(const DecisionRequest& request) override;

 private:
  explicit SemiStaticController(std::vector<double> prices)
      : prices_(std::move(prices)) {}
  std::vector<double> prices_;
};

/// The fixed-budget static strategy (§4.1): every task gets an up-front
/// price; since workers always take the highest-priced task available, the
/// effective offer is the price of the highest non-exhausted tier. Tiers
/// are given as (price, count) and served in descending price order.
class StaticTierController final : public PricingController {
 public:
  struct Tier {
    double price_cents = 0.0;
    int64_t count = 0;
  };

  /// Requires tiers non-empty, counts > 0. Sorts descending by price.
  static Result<StaticTierController> Create(std::vector<Tier> tiers);
  Result<OfferSheet> Decide(const DecisionRequest& request) override;

 private:
  explicit StaticTierController(std::vector<Tier> tiers)
      : tiers_(std::move(tiers)) {}
  std::vector<Tier> tiers_;
  int64_t total_ = 0;
};

}  // namespace crowdprice::market

#endif  // CROWDPRICE_MARKET_CONTROLLER_H_
