// DeadlinePlan: the solved MDP policy and value tables.

#ifndef CROWDPRICE_PRICING_PLAN_H_
#define CROWDPRICE_PRICING_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pricing/action.h"
#include "pricing/problem.h"
#include "util/result.h"

namespace crowdprice::kernel {
class PmfArena;
}  // namespace crowdprice::kernel

namespace crowdprice::pricing {

/// Output of a deadline-DP solve: for every state (n, t) the optimal action
/// index Price(n, t) and the optimal cost-to-go Opt(n, t) (paper §3.1).
/// Opt is the backward induction's working state; a controller reads only
/// Price, so a plan decoded from text (pricing/serialization.h) holds the
/// policy table alone.
class DeadlinePlan {
 public:
  /// A plan with both tables: Price(n, t) unsolved (-1), Opt(n, t) zero
  /// except the terminal layer, which holds the deadline penalty.
  DeadlinePlan(DeadlineProblem problem, ActionSet actions,
               std::vector<double> interval_lambdas);

  /// A plan with the policy table only, for decoders: OptAt fails and
  /// TotalObjective is NaN, and the opt accessors below must not be called.
  static DeadlinePlan PolicyOnly(DeadlineProblem problem, ActionSet actions,
                                 std::vector<double> interval_lambdas);

  /// Converts a solved plan in place to the PolicyOnly form: frees the
  /// Opt table and the solve arena and keeps Price(n, t), so ActionAt
  /// answers as before. For holders that only play the plan.
  void DropToPolicy();

  const DeadlineProblem& problem() const { return problem_; }
  const ActionSet& actions() const { return actions_; }
  /// lambda_t for t = 0..NT-1.
  const std::vector<double>& interval_lambdas() const {
    return interval_lambdas_;
  }

  int num_tasks() const { return problem_.num_tasks; }
  int num_intervals() const { return problem_.num_intervals; }

  /// Optimal action index at state (n, t); n in [1, N], t in [0, NT).
  Result<int> ActionIndexAt(int n, int t) const;
  /// Optimal action at state (n, t).
  Result<PricingAction> ActionAt(int n, int t) const;
  /// Per-task reward (cents) of the optimal action at (n, t): the paper's
  /// Price(n, t).
  Result<double> PriceAt(int n, int t) const;
  /// Expected cost-to-go Opt(n, t); n in [0, N], t in [0, NT].
  /// FailedPrecondition on a decoded (policy-only) plan.
  Result<double> OptAt(int n, int t) const;

  /// Expected total objective starting from the full batch, Opt(N, 0); NaN
  /// on a decoded (policy-only) plan.
  double TotalObjective() const;

  // --- Solver-facing access ------------------------------------------
  // Both tables live in one contiguous arena, row-major with the time layer
  // as the row: opt_[t * (N+1) + n]. A backward-induction sweep therefore
  // reads layer t+1 and writes layer t as two dense rows, with no per-layer
  // vectors or copies, and the per-state scan within a layer can be chunked
  // across worker threads writing disjoint parts of the same row.
  void SetActionIndex(int n, int t, int action) {
    MutableActionLayer(t)[static_cast<size_t>(n)] = action;
  }
  void SetOpt(int n, int t, double value) {
    MutableOptLayer(t)[static_cast<size_t>(n)] = value;
  }
  double OptUnchecked(int n, int t) const {
    return OptLayer(t)[static_cast<size_t>(n)];
  }
  int ActionIndexUnchecked(int n, int t) const {
    return ActionLayer(t)[static_cast<size_t>(n)];
  }

  /// Row of Opt(., t), indexed by n in [0, N]; t in [0, NT].
  const double* OptLayer(int t) const { return opt_.data() + LayerOffset(t); }
  double* MutableOptLayer(int t) { return opt_.data() + LayerOffset(t); }
  /// Row of Price(., t) action indices, n in [0, N] (n = 0 is -1); t in
  /// [0, NT).
  const int32_t* ActionLayer(int t) const {
    return action_idx_.data() + LayerOffset(t);
  }
  int32_t* MutableActionLayer(int t) {
    return action_idx_.data() + LayerOffset(t);
  }

  // --- Solve-time pmf tables --------------------------------------------
  // The solver attaches the arena its scans ran over, so evaluators can
  // replay the plan's nominal forward pass without rebuilding any
  // truncated pmf (policy_eval reuses it when the evaluation trace equals
  // the plan's). Deserialized plans carry none.
  void SetSolveArena(std::shared_ptr<const kernel::PmfArena> arena,
                     std::vector<int> table_ids) {
    solve_arena_ = std::move(arena);
    arena_table_ids_ = std::move(table_ids);
  }
  /// The solve's arena, or null when the plan was not produced by a solve.
  const std::shared_ptr<const kernel::PmfArena>& solve_arena() const {
    return solve_arena_;
  }
  /// Arena table id per (interval, action), interval-major
  /// [t * num_actions + a]; empty iff solve_arena() is null.
  const std::vector<int>& arena_table_ids() const { return arena_table_ids_; }

  // --- Diagnostics ---
  double solve_seconds = 0.0;
  int64_t action_evaluations = 0;  ///< Calls to the state-action evaluator.
  int threads_used = 1;            ///< Parallelism of the layer scans.
  int64_t poisson_tables_built = 0;  ///< Distinct pmf-arena tables.
  int64_t poisson_table_reuses = 0;  ///< Arena requests served by sharing.
  /// LayerScanKernel backend that ran the scans ("scalar", "avx2", ...);
  /// empty for plans that predate the kernel layer (e.g. deserialized).
  std::string kernel_backend;

 private:
  DeadlinePlan(DeadlineProblem problem, ActionSet actions,
               std::vector<double> interval_lambdas, bool with_opt);

  Status CheckState(int n, int t, bool terminal_ok) const;
  size_t LayerOffset(int t) const {
    return static_cast<size_t>(t) *
           (static_cast<size_t>(problem_.num_tasks) + 1);
  }

  DeadlineProblem problem_;
  ActionSet actions_;
  std::vector<double> interval_lambdas_;
  /// opt_[t * (N+1) + n], t in [0, NT], n in [0, N]; empty on a
  /// policy-only plan.
  std::vector<double> opt_;
  /// action_idx_[t * (N+1) + n], t in [0, NT), n in [0, N] (n = 0 unused).
  std::vector<int32_t> action_idx_;
  std::shared_ptr<const kernel::PmfArena> solve_arena_;
  std::vector<int> arena_table_ids_;
};

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_PLAN_H_
