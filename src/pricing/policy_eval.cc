#include "pricing/policy_eval.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "kernel/pmf_cache.h"
#include "stats/poisson.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::pricing {

namespace {

Status ValidateEvalInputs(const DeadlinePlan& plan,
                          const std::vector<double>& true_lambdas,
                          const std::vector<double>& true_probs) {
  if (true_lambdas.size() != static_cast<size_t>(plan.num_intervals())) {
    return Status::InvalidArgument(
        StringF("true_lambdas has %zu entries; plan has %d intervals",
                true_lambdas.size(), plan.num_intervals()));
  }
  if (true_probs.size() != plan.actions().size()) {
    return Status::InvalidArgument(
        StringF("true_probs has %zu entries; plan has %zu actions",
                true_probs.size(), plan.actions().size()));
  }
  for (double lam : true_lambdas) {
    if (!(lam >= 0.0) || !std::isfinite(lam)) {
      return Status::InvalidArgument(
          "true_lambdas entries must be finite, >= 0");
    }
  }
  for (double p : true_probs) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("true_probs entries must be in [0, 1]");
    }
  }
  return Status::OK();
}

// The forward pass's pmf tables: an arena plus the interval-major
// [t * num_actions + a] table-id grid (-1 where the plan never posts
// action a in interval t). Either borrowed from the plan's solve or built
// fresh for the evaluation trace.
struct EvalTables {
  // Borrowed-plan path only; null when owned (the optional lives inline,
  // so callers re-derive the pointer after moving an owned EvalTables).
  const kernel::PmfArena* arena = nullptr;
  const int* grid = nullptr;
  std::optional<kernel::PmfArena> owned;
  std::vector<int> owned_grid;
};

// True when the evaluation trace IS the planning model, so the plan's own
// solve arena already holds every table the forward pass needs.
bool CanReusePlanArena(const DeadlinePlan& plan,
                       const std::vector<double>& true_lambdas,
                       const std::vector<double>& true_probs) {
  if (plan.solve_arena() == nullptr) return false;
  if (plan.arena_table_ids().size() !=
      static_cast<size_t>(plan.num_intervals()) * plan.actions().size()) {
    return false;
  }
  if (true_lambdas != plan.interval_lambdas()) return false;
  for (size_t a = 0; a < true_probs.size(); ++a) {
    if (true_probs[a] != plan.actions()[a].acceptance) return false;
  }
  return true;
}

// Builds exact-rate tables for every (interval, action) pair the plan's
// action rows mention. Exact-bit dedup keeps each table bit-identical to
// the historical per-interval lazy build; the share cache (if any) only
// changes where blocks live, never their contents.
Result<EvalTables> BuildEvalTables(const DeadlinePlan& plan,
                                   const std::vector<double>& true_lambdas,
                                   const std::vector<double>& true_probs,
                                   kernel::PmfShareCache* share_cache) {
  const int num_tasks = plan.num_tasks();
  const int nt = plan.num_intervals();
  const int num_actions = static_cast<int>(plan.actions().size());
  EvalTables out;
  out.owned_grid.assign(static_cast<size_t>(nt) * num_actions, -1);
  std::vector<double> rates;
  for (int t = 0; t < nt; ++t) {
    const int32_t* row = plan.ActionLayer(t);
    for (int n = 1; n <= num_tasks; ++n) {
      const int a = row[n];
      if (a < 0) continue;
      int& slot = out.owned_grid[static_cast<size_t>(t) * num_actions + a];
      if (slot >= 0) continue;
      slot = static_cast<int>(rates.size());
      rates.push_back(true_lambdas[static_cast<size_t>(t)] *
                      true_probs[static_cast<size_t>(a)]);
    }
  }
  CP_ASSIGN_OR_RETURN(
      kernel::PmfArena arena,
      kernel::PmfArena::Build(rates, plan.problem().truncation_epsilon,
                              kernel::PmfArena::Dedup::kExactRate,
                              share_cache));
  for (int& slot : out.owned_grid) {
    if (slot >= 0) slot = arena.TableOf(static_cast<size_t>(slot));
  }
  out.owned.emplace(std::move(arena));
  return out;
}

}  // namespace

Result<PolicyEvaluation> EvaluatePolicy(const DeadlinePlan& plan,
                                        const std::vector<double>& true_lambdas,
                                        const std::vector<double>& true_probs,
                                        const EvalOptions& options) {
  CP_RETURN_IF_ERROR(ValidateEvalInputs(plan, true_lambdas, true_probs));
  CP_ASSIGN_OR_RETURN(
      const kernel::LayerScanKernel* kern,
      kernel::KernelRegistry::Global().Resolve(options.kernel_backend));
  const int num_tasks = plan.num_tasks();
  const int nt = plan.num_intervals();
  const int num_actions = static_cast<int>(plan.actions().size());

  EvalTables tables;
  if (CanReusePlanArena(plan, true_lambdas, true_probs)) {
    tables.arena = plan.solve_arena().get();
    tables.grid = plan.arena_table_ids().data();
  } else {
    CP_ASSIGN_OR_RETURN(tables,
                        BuildEvalTables(plan, true_lambdas, true_probs,
                                        options.share_cache));
    tables.arena = &*tables.owned;
    tables.grid = tables.owned_grid.data();
  }
  std::vector<double> costs;
  std::vector<int> bundles;
  costs.reserve(plan.actions().size());
  bundles.reserve(plan.actions().size());
  for (const PricingAction& a : plan.actions().actions()) {
    costs.push_back(a.cost_per_task_cents);
    bundles.push_back(a.bundle);
  }

  std::vector<double> dist(static_cast<size_t>(num_tasks) + 1, 0.0);
  dist[static_cast<size_t>(num_tasks)] = 1.0;
  std::vector<double> next(static_cast<size_t>(num_tasks) + 1, 0.0);
  double expected_cost = 0.0;

  for (int t = 0; t < nt; ++t) {
    const int32_t* row = plan.ActionLayer(t);
    // Surface the historical "no action at a reachable state" error before
    // handing the layer to the kernel.
    for (int n = 1; n <= num_tasks; ++n) {
      if (dist[static_cast<size_t>(n)] > 0.0 && row[n] < 0) {
        return Status::FailedPrecondition(
            StringF("plan has no action at (n=%d, t=%d)", n, t));
      }
    }
    kernel::LayerTables layer;
    layer.arena = tables.arena;
    layer.tables = tables.grid + static_cast<size_t>(t) * num_actions;
    layer.costs = costs.data();
    layer.bundles = bundles.data();
    layer.num_actions = num_actions;
    std::fill(next.begin(), next.end(), 0.0);
    expected_cost = kern->EvaluateLayer(layer, row, dist.data(), num_tasks,
                                        next.data(), expected_cost);
    dist.swap(next);
  }

  PolicyEvaluation eval;
  eval.expected_cost_cents = expected_cost;
  eval.remaining_distribution = dist;
  double expected_remaining = 0.0;
  double expected_penalty = 0.0;
  for (int n = 0; n <= num_tasks; ++n) {
    expected_remaining += static_cast<double>(n) * dist[static_cast<size_t>(n)];
    expected_penalty +=
        plan.problem().TerminalPenalty(n) * dist[static_cast<size_t>(n)];
  }
  eval.expected_remaining = expected_remaining;
  eval.prob_unfinished = std::clamp(1.0 - dist[0], 0.0, 1.0);
  const double expected_completed =
      static_cast<double>(num_tasks) - expected_remaining;
  eval.average_reward_per_task =
      expected_completed > 0.0 ? expected_cost / expected_completed : 0.0;
  eval.expected_objective = expected_cost + expected_penalty;
  return eval;
}

Result<PolicyEvaluation> EvaluatePolicyUnderMarket(
    const DeadlinePlan& plan, const std::vector<double>& true_lambdas,
    const choice::AcceptanceFunction& true_acceptance,
    const EvalOptions& options) {
  std::vector<double> probs;
  probs.reserve(plan.actions().size());
  for (const PricingAction& a : plan.actions().actions()) {
    probs.push_back(true_acceptance.ProbabilityAt(a.cost_per_task_cents));
  }
  return EvaluatePolicy(plan, true_lambdas, probs, options);
}

Result<PolicyEvaluation> EvaluatePolicyNominal(const DeadlinePlan& plan,
                                               const EvalOptions& options) {
  std::vector<double> probs;
  probs.reserve(plan.actions().size());
  for (const PricingAction& a : plan.actions().actions()) {
    probs.push_back(a.acceptance);
  }
  return EvaluatePolicy(plan, plan.interval_lambdas(), probs, options);
}

Result<PolicyTrajectory> SimulatePolicyOnce(
    const DeadlinePlan& plan, const std::vector<double>& true_lambdas,
    const std::vector<double>& true_probs, Rng& rng) {
  CP_RETURN_IF_ERROR(ValidateEvalInputs(plan, true_lambdas, true_probs));
  PolicyTrajectory traj;
  int n = plan.num_tasks();
  for (int t = 0; t < plan.num_intervals() && n > 0; ++t) {
    const int a_idx = plan.ActionIndexUnchecked(n, t);
    if (a_idx < 0) {
      return Status::FailedPrecondition(
          StringF("plan has no action at (n=%d, t=%d)", n, t));
    }
    const PricingAction& action = plan.actions()[static_cast<size_t>(a_idx)];
    traj.prices.push_back(action.cost_per_task_cents);
    const double rate = true_lambdas[static_cast<size_t>(t)] *
                        true_probs[static_cast<size_t>(a_idx)];
    const int completions = stats::SamplePoisson(rng, rate);
    const int done = static_cast<int>(std::min<long long>(
        static_cast<long long>(completions) * action.bundle, n));
    traj.cost_cents += action.cost_per_task_cents * done;
    n -= done;
  }
  traj.remaining = n;
  return traj;
}

}  // namespace crowdprice::pricing
