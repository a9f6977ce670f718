#include "pricing/problem.h"

#include <cmath>

#include "util/stringf.h"

namespace crowdprice::pricing {

Status DeadlineProblem::Validate() const {
  if (num_tasks < 1) {
    return Status::InvalidArgument(
        StringF("num_tasks must be >= 1; got %d", num_tasks));
  }
  if (num_intervals < 1) {
    return Status::InvalidArgument(
        StringF("num_intervals must be >= 1; got %d", num_intervals));
  }
  if (!(penalty_cents >= 0.0) || !std::isfinite(penalty_cents)) {
    return Status::InvalidArgument(
        StringF("penalty_cents must be finite and >= 0; got %g",
                penalty_cents));
  }
  if (!(extra_penalty_alpha >= 0.0) || !std::isfinite(extra_penalty_alpha)) {
    return Status::InvalidArgument(
        StringF("extra_penalty_alpha must be finite and >= 0; got %g",
                extra_penalty_alpha));
  }
  if (!(truncation_epsilon > 0.0 && truncation_epsilon < 1.0)) {
    return Status::InvalidArgument(
        StringF("truncation_epsilon must be in (0, 1); got %g",
                truncation_epsilon));
  }
  return Status::OK();
}

Status DeadlineProblem::CheckPlanStates(const char* kind) const {
  const int64_t states =
      (int64_t{num_tasks} + 1) * (int64_t{num_intervals} + 1);
  if (states > kMaxPlanStates) {
    return Status::InvalidArgument(
        StringF("implausible %s dimensions: %d tasks x %d intervals", kind,
                num_tasks, num_intervals));
  }
  return Status::OK();
}

Result<std::vector<double>> IntervalWorkerMeans(
    const arrival::PiecewiseConstantRate& rate, double horizon_hours,
    int num_intervals) {
  return rate.IntervalMeans(horizon_hours, num_intervals);
}

}  // namespace crowdprice::pricing
