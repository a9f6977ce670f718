// Ablation A1: Algorithm 1 (SimpleDP) vs Algorithm 2 (ImprovedDP) vs
// ImprovedDP + time-monotonicity pruning (§3.2).
//
// Checks: all three produce identical policies; the monotone search does
// asymptotically less work (O(N + C log N) vs O(N C) per layer), with the
// advantage growing in N.

#include <iostream>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "pricing/deadline_dp.h"
#include "util/table.h"

using namespace crowdprice;

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Ablation: DP solver speed-ups (§3.2) ===\n\n";
  auto acceptance = choice::LogitAcceptance::Paper2014();
  pricing::ActionSet actions = [&] {
    auto r = pricing::ActionSet::FromPriceGrid(50, acceptance);
    bench::DieOnError(r.status(), "actions");
    return std::move(r).value();
  }();

  Table table({"N", "simple evals", "improved evals", "pruned evals",
               "simple ms", "improved ms", "speedup", "policies equal"});
  const int sizes[] = {50, 100, 200, 400, 800};
  double speedup_first = 0.0, speedup_last = 0.0;
  bool all_equal = true;
  for (int n : sizes) {
    pricing::DeadlineProblem problem;
    problem.num_tasks = n;
    problem.num_intervals = 24;
    problem.penalty_cents = 200.0;
    const std::vector<double> lambdas(24, 610.0 * n / 200.0);
    const engine::PolicyArtifact simple_art = bench::SolveOrDie(
        bench::MakeDeadlineSpec(problem, lambdas, actions,
                                engine::DeadlineDpSpec::Algorithm::kSimple),
        "simple");
    const engine::PolicyArtifact improved_art = bench::SolveOrDie(
        bench::MakeDeadlineSpec(problem, lambdas, actions), "improved");
    engine::DeadlineDpSpec pruned_spec =
        bench::MakeDeadlineSpec(problem, lambdas, actions);
    pruned_spec.dp_options.time_monotonicity_pruning = true;
    const engine::PolicyArtifact pruned_art =
        bench::SolveOrDie(pruned_spec, "pruned");
    const pricing::DeadlinePlan& simple = **simple_art.deadline_plan();
    const pricing::DeadlinePlan& improved = **improved_art.deadline_plan();
    const pricing::DeadlinePlan& pruned = **pruned_art.deadline_plan();
    bool equal = true;
    for (int t = 0; t < problem.num_intervals && equal; ++t) {
      for (int i = 1; i <= n; ++i) {
        if (simple.ActionIndexUnchecked(i, t) != improved.ActionIndexUnchecked(i, t) ||
            simple.ActionIndexUnchecked(i, t) != pruned.ActionIndexUnchecked(i, t)) {
          equal = false;
          break;
        }
      }
    }
    all_equal = all_equal && equal;
    const double speedup =
        static_cast<double>(simple.action_evaluations) /
        static_cast<double>(improved.action_evaluations);
    if (n == sizes[0]) speedup_first = speedup;
    speedup_last = speedup;
    bench::DieOnError(
        table.AddRow(
            {StringF("%d", n),
             StringF("%lld", static_cast<long long>(simple.action_evaluations)),
             StringF("%lld", static_cast<long long>(improved.action_evaluations)),
             StringF("%lld", static_cast<long long>(pruned.action_evaluations)),
             StringF("%.1f", simple.solve_seconds * 1e3),
             StringF("%.1f", improved.solve_seconds * 1e3),
             StringF("%.1fx", speedup), equal ? "yes" : "NO"}),
        "row");
  }
  table.Print(std::cout);
  std::cout << "\n";
  bench::CheckExact(all_equal,
                    "all three solvers produce identical policies "
                    "(Conjecture 1 holds on these instances)");
  bench::Check(speedup_last > 2.0,
               "monotone search is > 2x cheaper in action evaluations at "
               "N = 800");
  bench::Check(speedup_last > speedup_first,
               "the advantage of Algorithm 2 grows with N");

  (void)bench::BenchRecord("ablate_dp_speedup")
      .Param("N_max", sizes[4])
      .Param("T", 24)
      .Param("max_price", 50)
      .Metric("alg2_eval_speedup_at_nmax", speedup_last)
      .Label("policy_source", "engine::Solve")
      .Write();
  return bench::Finish();
}
