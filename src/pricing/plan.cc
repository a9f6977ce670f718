#include "pricing/plan.h"

#include <limits>

#include "util/stringf.h"
#include "util/macros.h"

namespace crowdprice::pricing {

DeadlinePlan::DeadlinePlan(DeadlineProblem problem, ActionSet actions,
                           std::vector<double> interval_lambdas)
    : DeadlinePlan(problem, std::move(actions), std::move(interval_lambdas),
                   /*with_opt=*/true) {}

DeadlinePlan DeadlinePlan::PolicyOnly(DeadlineProblem problem,
                                      ActionSet actions,
                                      std::vector<double> interval_lambdas) {
  return DeadlinePlan(problem, std::move(actions), std::move(interval_lambdas),
                      /*with_opt=*/false);
}

DeadlinePlan::DeadlinePlan(DeadlineProblem problem, ActionSet actions,
                           std::vector<double> interval_lambdas, bool with_opt)
    : problem_(problem),
      actions_(std::move(actions)),
      interval_lambdas_(std::move(interval_lambdas)) {
  const size_t n_states = static_cast<size_t>(problem_.num_tasks) + 1;
  const size_t nt = static_cast<size_t>(problem_.num_intervals);
  action_idx_.assign(n_states * nt, -1);
  if (!with_opt) return;
  opt_.assign(n_states * (nt + 1), 0.0);
  // Terminal layer: Opt(n, NT) = terminal penalty.
  double* terminal = MutableOptLayer(problem_.num_intervals);
  for (int n = 0; n <= problem_.num_tasks; ++n) {
    terminal[static_cast<size_t>(n)] = problem_.TerminalPenalty(n);
  }
}

void DeadlinePlan::DropToPolicy() {
  std::vector<double>().swap(opt_);
  solve_arena_.reset();
  std::vector<int>().swap(arena_table_ids_);
}

Status DeadlinePlan::CheckState(int n, int t, bool terminal_ok) const {
  if (n < 0 || n > problem_.num_tasks) {
    return Status::OutOfRange(
        StringF("n = %d outside [0, %d]", n, problem_.num_tasks));
  }
  const int t_max =
      terminal_ok ? problem_.num_intervals : problem_.num_intervals - 1;
  if (t < 0 || t > t_max) {
    return Status::OutOfRange(StringF("t = %d outside [0, %d]", t, t_max));
  }
  return Status::OK();
}

Result<int> DeadlinePlan::ActionIndexAt(int n, int t) const {
  CP_RETURN_IF_ERROR(CheckState(n, t, /*terminal_ok=*/false));
  if (n == 0) {
    return Status::InvalidArgument("no action is taken at n = 0 (batch done)");
  }
  const int idx = ActionIndexUnchecked(n, t);
  if (idx < 0) {
    return Status::FailedPrecondition(
        StringF("state (n=%d, t=%d) was never solved", n, t));
  }
  return idx;
}

Result<PricingAction> DeadlinePlan::ActionAt(int n, int t) const {
  CP_ASSIGN_OR_RETURN(int idx, ActionIndexAt(n, t));
  return actions_[static_cast<size_t>(idx)];
}

Result<double> DeadlinePlan::PriceAt(int n, int t) const {
  CP_ASSIGN_OR_RETURN(PricingAction a, ActionAt(n, t));
  return a.cost_per_task_cents;
}

Result<double> DeadlinePlan::OptAt(int n, int t) const {
  CP_RETURN_IF_ERROR(CheckState(n, t, /*terminal_ok=*/true));
  if (opt_.empty()) {
    return Status::FailedPrecondition("decoded plans carry the policy only");
  }
  return OptUnchecked(n, t);
}

double DeadlinePlan::TotalObjective() const {
  if (opt_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return OptUnchecked(problem_.num_tasks, 0);
}

}  // namespace crowdprice::pricing
