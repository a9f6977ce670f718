// The fixed-deadline pricing problem specification (paper §2.3, §3.1).

#ifndef CROWDPRICE_PRICING_PROBLEM_H_
#define CROWDPRICE_PRICING_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "arrival/rate_function.h"
#include "util/result.h"

namespace crowdprice::pricing {

/// The most states one plan may hold: (N+1) x (NT+1) for a deadline or
/// adaptive plan, (N1+1) x (N2+1) x (NT+1) for a two-type plan. Solvers
/// and decoders both check it before they size a table, so neither a user's
/// task count nor a crafted text can make the process allocate without
/// bound.
inline constexpr int64_t kMaxPlanStates = int64_t{1} << 24;

/// A batch of N identical tasks that must be finished within NT discrete
/// time intervals. The MDP state is (n, t): n tasks remaining at the start
/// of interval t (paper Fig. 2); the terminal cost at t = NT is
///   n > 0 ?  (n + extra_penalty_alpha) * penalty_cents  :  0,
/// which is the paper's n * Penalty for extra_penalty_alpha = 0 and the
/// §3.3 extended form otherwise.
struct DeadlineProblem {
  /// N: batch size.
  int num_tasks = 0;
  /// NT: number of equal time intervals before the deadline.
  int num_intervals = 0;
  /// Penalty per unsolved task at the deadline (cents).
  double penalty_cents = 0.0;
  /// The alpha of the §3.3 extended penalty; 0 disables.
  double extra_penalty_alpha = 0.0;
  /// Poisson tail-truncation threshold epsilon (§3.2); transition terms
  /// beyond the first s0 with Pr[X >= s0] <= epsilon are lumped.
  double truncation_epsilon = 1e-9;

  Status Validate() const;

  /// InvalidArgument("implausible <kind> dimensions: N tasks x NT
  /// intervals") when the (N+1) x (NT+1) plan would exceed kMaxPlanStates.
  Status CheckPlanStates(const char* kind) const;

  double TerminalPenalty(int remaining) const {
    if (remaining <= 0) return 0.0;
    return (static_cast<double>(remaining) + extra_penalty_alpha) *
           penalty_cents;
  }
};

/// The per-interval expected worker arrivals lambda_t of Eq. (4):
/// lambda_t = integral of lambda over interval t of [0, horizon] split into
/// problem.num_intervals equal parts.
Result<std::vector<double>> IntervalWorkerMeans(
    const arrival::PiecewiseConstantRate& rate, double horizon_hours,
    int num_intervals);

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_PROBLEM_H_
