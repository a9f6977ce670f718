// CampaignSession: one simulated campaign as a resumable object.
//
// RunSimulation (market/simulator.h) plays a campaign from its admission
// to its horizon in a single call. The fleet simulator needs to interleave
// thousands of campaigns on one global clock, so the single-campaign loop
// lives here as a session that can be advanced in time slices:
//
//   CP_ASSIGN_OR_RETURN(CampaignSession session,
//                       CampaignSession::Create(config, rate, acceptance,
//                                               controller, rng));
//   while (!session.done()) {
//     CP_RETURN_IF_ERROR(session.AdvanceUntil(next_slice_hours));
//     ...
//   }
//   CP_ASSIGN_OR_RETURN(SimulationResult result,
//                       std::move(session).TakeResult());
//
// Streaming fleets admit campaigns mid-run, so a session can also start at
// a nonzero marketplace wall clock (CreateAt): the campaign's own clock is
// zero at `start_hours`, its horizon ends at start + config.horizon_hours,
// and arrivals are drawn from the shared wall-clock rate function from the
// start point onward. All recorded times (events, workers, completion) are
// wall-clock hours.
//
// Determinism contract: a session advances through *whole* arrival-rate
// buckets (a bucket is processed only once the slice covers its full
// [start, end) span, with the campaign horizon capping the final bucket).
// All random draws therefore happen in exactly the same order regardless
// of how the advancement is sliced, so any monotone slice schedule whose
// final slice reaches the horizon yields results bit-identical to one
// AdvanceUntil(horizon) call -- which is what RunSimulation does, whatever
// the start time. The fleet simulator's serial-equivalence property rests
// on this.
//
// The session consults its controller through the PricingController
// interface only. A fleet session's controller forwards each decide to
// CampaignShardMap::Decide by campaign id, so a hot artifact swap needs no
// rebind: the next decide reads the campaign's new snapshot.

#ifndef CROWDPRICE_MARKET_SESSION_H_
#define CROWDPRICE_MARKET_SESSION_H_

#include <cstdint>
#include <vector>

#include "arrival/rate_function.h"
#include "choice/acceptance.h"
#include "market/controller.h"
#include "market/simulator.h"
#include "market/types.h"
#include "util/result.h"
#include "util/rng.h"

namespace crowdprice::market {

class CampaignSession {
 public:
  /// Validates `config` and captures the campaign's inputs. `rate`,
  /// `acceptance` and `controller` are borrowed and must outlive the
  /// session; the Rng is owned (copy it in, read it back via rng()).
  /// The campaign starts at wall-clock 0.
  static Result<CampaignSession> Create(
      const SimulatorConfig& config,
      const arrival::PiecewiseConstantRate& rate,
      const choice::AcceptanceFunction& acceptance,
      PricingController& controller, Rng rng);

  /// Same, for a campaign admitted at wall-clock `start_hours` >= 0 into
  /// the shared arrival process: the campaign clock is zero at the start
  /// point, decision epochs sit at start + k * decision_interval, and the
  /// horizon ends at start + config.horizon_hours. Controllers see both
  /// clocks (DecisionRequest::now_hours is wall, campaign_hours is local).
  static Result<CampaignSession> CreateAt(
      const SimulatorConfig& config,
      const arrival::PiecewiseConstantRate& rate,
      const choice::AcceptanceFunction& acceptance,
      PricingController& controller, Rng rng, double start_hours);

  /// A session for a campaign that started at wall-clock 0 but whose
  /// simulation picks up at `resume_hours` (a restarted controller host):
  /// no arrivals before the resume point are drawn, decision epochs stay
  /// on the original 0, d, 2d, ... grid, and the horizon still ends at
  /// config.horizon_hours. With a start-time-insensitive controller the
  /// draw sequence is identical to CreateAt(..., resume_hours) -- the
  /// property tests/fleet_simulator_test.cc asserts.
  static Result<CampaignSession> Resume(
      const SimulatorConfig& config,
      const arrival::PiecewiseConstantRate& rate,
      const choice::AcceptanceFunction& acceptance,
      PricingController& controller, Rng rng, double resume_hours);

  CampaignSession(CampaignSession&&) = default;
  CampaignSession& operator=(CampaignSession&&) = default;

  /// Advances the campaign through every arrival bucket that ends at or
  /// before wall-clock `until_hours` (the horizon caps the last bucket, so
  /// any `until_hours` >= end_hours() plays the campaign to its end).
  /// Calls with non-increasing `until_hours` are no-ops.
  Status AdvanceUntil(double until_hours);

  /// Lowers the campaign's effective horizon to wall-clock `at_hours` (a
  /// mid-life retirement): requires clock() <= at_hours <= end_hours().
  /// Once the clock reaches the curtailed end the session is done and the
  /// result reflects the truncated run.
  Status Curtail(double at_hours);

  /// True once the batch is fully assigned or the clock reached the
  /// (possibly curtailed) horizon; AdvanceUntil becomes a no-op and
  /// TakeResult is available.
  bool done() const { return remaining_ <= 0 || !(clock_hours_ < end_hours_); }

  const SimulatorConfig& config() const { return config_; }
  /// Wall clock at which the campaign's own clock reads zero.
  double start_hours() const { return origin_hours_; }
  /// Wall clock at which the campaign's horizon ends (start + horizon,
  /// unless Curtail lowered it).
  double end_hours() const { return end_hours_; }
  /// Start of the next unprocessed arrival bucket (wall clock).
  double clock_hours() const { return clock_hours_; }
  int64_t remaining_tasks() const { return remaining_; }
  /// The owned generator; RunSimulation copies it back to its caller.
  const Rng& rng() const { return rng_; }

  /// Finalizes and returns the campaign outcome. Requires done().
  Result<SimulationResult> TakeResult() &&;

 private:
  CampaignSession(const SimulatorConfig& config,
                  const arrival::PiecewiseConstantRate& rate,
                  const choice::AcceptanceFunction& acceptance,
                  PricingController& controller, Rng rng, double origin_hours,
                  double clock_hours);

  /// Plays every arrival in [seg_start, seg_end): the body of the
  /// RunSimulation bucket loop, verbatim.
  Status ProcessBucket(double seg_start, double seg_end);

  SimulatorConfig config_;
  const arrival::PiecewiseConstantRate* rate_;
  const choice::AcceptanceFunction* acceptance_;
  PricingController* controller_;
  Rng rng_;

  // Campaign state carried across AdvanceUntil calls.
  SimulationResult result_;
  int64_t remaining_ = 0;
  double origin_hours_ = 0.0;  ///< Wall clock of the campaign's t = 0.
  double end_hours_ = 0.0;     ///< Wall clock of the (curtailable) horizon.
  double clock_hours_ = 0.0;   ///< Start of the next unprocessed bucket.
  double next_epoch_ = 0.0;
  /// The in-force offer: the lone entry of the controller's latest
  /// OfferSheet (sessions play single-type campaigns).
  Offer offer_;
  bool offer_valid_ = false;
  double last_completion_ = 0.0;
  std::vector<double> arrivals_;  ///< Per-bucket scratch buffer.
};

}  // namespace crowdprice::market

#endif  // CROWDPRICE_MARKET_SESSION_H_
