#include "pricing/deadline_dp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>

#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "kernel/pmf_cache.h"
#include "util/macros.h"
#include "util/stringf.h"
#include "util/thread_pool.h"

namespace crowdprice::pricing {

namespace {

// Below this many states a layer scan is not worth fanning out.
constexpr int kParallelMinTasks = 256;
// Smallest monotone n-range handed to a worker as one task.
constexpr int kParallelMinRange = 32;

Status ValidateInputs(const DeadlineProblem& problem,
                      const std::vector<double>& interval_lambdas,
                      const ActionSet& actions) {
  CP_RETURN_IF_ERROR(problem.Validate());
  CP_RETURN_IF_ERROR(problem.CheckPlanStates("deadline"));
  if (interval_lambdas.size() != static_cast<size_t>(problem.num_intervals)) {
    return Status::InvalidArgument(
        StringF("interval_lambdas has %zu entries; problem has %d intervals",
                interval_lambdas.size(), problem.num_intervals));
  }
  for (size_t t = 0; t < interval_lambdas.size(); ++t) {
    if (!(interval_lambdas[t] >= 0.0) || !std::isfinite(interval_lambdas[t])) {
      return Status::InvalidArgument(
          StringF("interval_lambdas[%zu] = %g must be finite and >= 0", t,
                  interval_lambdas[t]));
    }
  }
  if (actions.size() == 0) {
    return Status::InvalidArgument("empty action set");
  }
  return Status::OK();
}

// The solve's kernel-facing tables: one PmfArena packing every (interval,
// action) truncated pmf -- deduplicated by quantized rate, so constant or
// periodic traces and adaptive re-solves share tables -- plus the
// action-parallel parameter arrays a LayerTables points into.
class SolveTables {
 public:
  static Result<SolveTables> Build(const DeadlineProblem& problem,
                                   const std::vector<double>& interval_lambdas,
                                   const ActionSet& actions,
                                   kernel::PmfShareCache* share_cache) {
    SolveTables out;
    const size_t num_actions = actions.size();
    std::vector<double> rates;
    rates.reserve(interval_lambdas.size() * num_actions);
    for (double lambda_t : interval_lambdas) {
      for (const PricingAction& a : actions.actions()) {
        rates.push_back(lambda_t * a.acceptance);
      }
    }
    CP_ASSIGN_OR_RETURN(
        kernel::PmfArena arena,
        kernel::PmfArena::Build(rates, problem.truncation_epsilon,
                                kernel::PmfArena::Dedup::kQuantizedRate,
                                share_cache));
    out.arena_ = std::make_shared<kernel::PmfArena>(std::move(arena));
    out.table_ids_.reserve(rates.size());
    for (size_t i = 0; i < rates.size(); ++i) {
      out.table_ids_.push_back(out.arena_->TableOf(i));
    }
    out.costs_.reserve(num_actions);
    out.bundles_.reserve(num_actions);
    for (const PricingAction& a : actions.actions()) {
      out.costs_.push_back(a.cost_per_task_cents);
      out.bundles_.push_back(a.bundle);
    }
    return out;
  }

  kernel::LayerTables Layer(int t) const {
    kernel::LayerTables layer;
    layer.arena = arena_.get();
    layer.tables =
        table_ids_.data() + static_cast<size_t>(t) * costs_.size();
    layer.costs = costs_.data();
    layer.bundles = bundles_.data();
    layer.num_actions = static_cast<int>(costs_.size());
    return layer;
  }

  const kernel::PmfArena& arena() const { return *arena_; }
  /// Shared handle + table grid for DeadlinePlan::SetSolveArena.
  std::shared_ptr<const kernel::PmfArena> shared_arena() const {
    return arena_;
  }
  const std::vector<int>& table_ids() const { return table_ids_; }

 private:
  // shared_ptr so SolveTables stays movable with stable LayerTables
  // pointers, and the plan can retain the arena past the solve.
  std::shared_ptr<kernel::PmfArena> arena_;
  std::vector<int> table_ids_;  ///< [interval][action], interval-major.
  std::vector<double> costs_;
  std::vector<int> bundles_;
};

// One state of Algorithm 2: search bracket [a_lo, a_hi], optionally capped
// from above by Price(n, t+1) (time monotonicity). Writes the layer rows.
kernel::BestAction SolveMonotoneState(const kernel::LayerScanKernel& kern,
                                      const kernel::LayerTables& layer, int n,
                                      int a_lo, int a_hi,
                                      const double* opt_next,
                                      const int32_t* cap_row, double* opt_row,
                                      int32_t* action_row, int64_t* evals) {
  int hi = a_hi;
  if (cap_row != nullptr && cap_row[n] >= 0) {
    hi = std::min(hi, static_cast<int>(cap_row[n]));
  }
  hi = std::max(hi, a_lo);  // Defensive: never let the cap empty the range.
  const kernel::BestAction best = kern.ScanState(layer, n, a_lo, hi, opt_next);
  *evals += hi - a_lo + 1;
  action_row[n] = best.index;
  opt_row[n] = best.cost;
  return best;
}

// Algorithm 2's FindOptimalPriceForTime: divide-and-conquer over n in
// [n_lo, n_hi] with the price bracket [a_lo, a_hi].
void SolveRangeMonotone(const kernel::LayerScanKernel& kern,
                        const kernel::LayerTables& layer, int n_lo, int n_hi,
                        int a_lo, int a_hi, const double* opt_next,
                        const int32_t* cap_row, double* opt_row,
                        int32_t* action_row, int64_t* evals) {
  if (n_lo > n_hi) return;
  const int m = n_lo + (n_hi - n_lo) / 2;
  const kernel::BestAction best =
      SolveMonotoneState(kern, layer, m, a_lo, a_hi, opt_next, cap_row,
                         opt_row, action_row, evals);
  SolveRangeMonotone(kern, layer, n_lo, m - 1, a_lo, best.index, opt_next,
                     cap_row, opt_row, action_row, evals);
  SolveRangeMonotone(kern, layer, m + 1, n_hi, best.index, a_hi, opt_next,
                     cap_row, opt_row, action_row, evals);
}

// An unsolved node of the Algorithm 2 recursion tree.
struct MonotoneRange {
  int n_lo, n_hi, a_lo, a_hi;
  int width() const { return n_hi - n_lo + 1; }
};

enum class Mode { kSimple, kImproved };

Result<DeadlinePlan> Solve(const DeadlineProblem& problem,
                           const std::vector<double>& interval_lambdas,
                           const ActionSet& actions, Mode mode,
                           const DpOptions& options) {
  CP_RETURN_IF_ERROR(ValidateInputs(problem, interval_lambdas, actions));
  if (mode == Mode::kImproved && !actions.uniform_unit_bundle()) {
    return Status::FailedPrecondition(
        "monotone price search (Algorithm 2) requires a unit-bundle action "
        "set; use SolveSimpleDp for bundled actions");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  CP_ASSIGN_OR_RETURN(
      const kernel::LayerScanKernel* kern,
      kernel::KernelRegistry::Global().Resolve(options.kernel_backend));
  const auto start = std::chrono::steady_clock::now();
  DeadlinePlan plan(problem, actions, interval_lambdas);
  const int num_actions = static_cast<int>(actions.size());
  const int nt = problem.num_intervals;
  const int num_tasks = problem.num_tasks;
  const bool monotone =
      mode == Mode::kImproved && options.monotone_price_search;

  const int requested_threads = options.num_threads > 0
                                    ? options.num_threads
                                    : ThreadPool::DefaultThreads();
  const bool parallel = requested_threads > 1 && num_tasks >= kParallelMinTasks;
  // The decomposition (chunk and range counts) follows the request so it is
  // machine-independent; actual participation is capped by the pool, and
  // threads_used reports that honest figure.
  const int effective_threads =
      std::min(requested_threads, ThreadPool::Shared().size() + 1);
  std::atomic<int64_t> evals{0};

  // All of the solve's pmf tables in one aligned arena, built before any
  // layer work so the scans (and their worker threads) only read.
  CP_ASSIGN_OR_RETURN(SolveTables tables,
                      SolveTables::Build(problem, interval_lambdas, actions,
                                         options.share_cache));

  for (int t = nt - 1; t >= 0; --t) {
    const kernel::LayerTables layer = tables.Layer(t);
    // With the layer-major arena, layer t+1 is read and layer t written in
    // place -- no per-layer copies.
    const double* opt_next = plan.OptLayer(t + 1);
    double* opt_row = plan.MutableOptLayer(t);
    int32_t* action_row = plan.MutableActionLayer(t);
    // Opt(0, t) stays 0 (initialized by the plan constructor).
    if (!monotone) {
      if (!parallel) {
        kern->ScanLayer(layer, 1, num_tasks, opt_next, opt_row, action_row);
        evals.fetch_add(static_cast<int64_t>(num_tasks) * num_actions,
                        std::memory_order_relaxed);
      } else {
        // States within a layer are independent; chunk [1, N] across the
        // pool. Costs grow with n, so chunks are kept small for balance.
        const int64_t chunks =
            std::min<int64_t>(num_tasks, requested_threads * 8L);
        const int64_t per_chunk = (num_tasks + chunks - 1) / chunks;
        ThreadPool::Shared().ParallelFor(chunks, [&](int64_t chunk) {
          const int lo = static_cast<int>(1 + chunk * per_chunk);
          const int hi = static_cast<int>(
              std::min<int64_t>(num_tasks, (chunk + 1) * per_chunk));
          if (lo > hi) return;
          kern->ScanLayer(layer, lo, hi, opt_next, opt_row, action_row);
          evals.fetch_add(static_cast<int64_t>(hi - lo + 1) * num_actions,
                          std::memory_order_relaxed);
        }, effective_threads);
      }
    } else {
      const int32_t* cap_row =
          options.time_monotonicity_pruning && t < nt - 1
              ? plan.ActionLayer(t + 1)
              : nullptr;
      if (!parallel) {
        int64_t local = 0;
        SolveRangeMonotone(*kern, layer, 1, num_tasks, 0, num_actions - 1,
                           opt_next, cap_row, opt_row, action_row, &local);
        evals.fetch_add(local, std::memory_order_relaxed);
      } else {
        // Expand the top of the recursion tree sequentially: solving a
        // range's midpoint splits it into two independent subranges (their
        // price brackets only depend on already-solved states), so once
        // enough disjoint subranges exist they fan out across the pool.
        // Each state sees exactly the bracket the sequential recursion
        // would give it, so the plan is bit-identical to a serial solve.
        int64_t local = 0;
        std::vector<MonotoneRange> ranges;
        ranges.push_back({1, num_tasks, 0, num_actions - 1});
        const size_t target = static_cast<size_t>(requested_threads) * 4;
        while (ranges.size() < target) {
          size_t widest = ranges.size();
          int widest_width = kParallelMinRange;
          for (size_t i = 0; i < ranges.size(); ++i) {
            if (ranges[i].width() > widest_width) {
              widest_width = ranges[i].width();
              widest = i;
            }
          }
          if (widest == ranges.size()) break;  // everything is fine-grained
          const MonotoneRange r = ranges[widest];
          const int m = r.n_lo + (r.n_hi - r.n_lo) / 2;
          const kernel::BestAction best =
              SolveMonotoneState(*kern, layer, m, r.a_lo, r.a_hi, opt_next,
                                 cap_row, opt_row, action_row, &local);
          ranges[widest] = {r.n_lo, m - 1, r.a_lo, best.index};
          ranges.push_back({m + 1, r.n_hi, best.index, r.a_hi});
        }
        evals.fetch_add(local, std::memory_order_relaxed);
        ThreadPool::Shared().ParallelFor(
            static_cast<int64_t>(ranges.size()), [&](int64_t i) {
              const MonotoneRange& r = ranges[static_cast<size_t>(i)];
              int64_t chunk_evals = 0;
              SolveRangeMonotone(*kern, layer, r.n_lo, r.n_hi, r.a_lo, r.a_hi,
                                 opt_next, cap_row, opt_row, action_row,
                                 &chunk_evals);
              evals.fetch_add(chunk_evals, std::memory_order_relaxed);
            },
            effective_threads);
      }
    }
  }

  plan.action_evaluations = evals.load();
  plan.threads_used = parallel ? effective_threads : 1;
  plan.poisson_tables_built = tables.arena().tables_built();
  plan.poisson_table_reuses = tables.arena().table_reuses();
  plan.kernel_backend = kern->name();
  plan.SetSolveArena(tables.shared_arena(), tables.table_ids());
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

}  // namespace

Result<DeadlinePlan> SolveSimpleDp(const DeadlineProblem& problem,
                                   const std::vector<double>& interval_lambdas,
                                   const ActionSet& actions,
                                   const DpOptions& options) {
  return Solve(problem, interval_lambdas, actions, Mode::kSimple, options);
}

Result<DeadlinePlan> SolveImprovedDp(
    const DeadlineProblem& problem,
    const std::vector<double>& interval_lambdas, const ActionSet& actions,
    const DpOptions& options) {
  return Solve(problem, interval_lambdas, actions, Mode::kImproved, options);
}

}  // namespace crowdprice::pricing
