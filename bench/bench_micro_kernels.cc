// Microbenchmarks (google-benchmark) of the computational kernels: Poisson
// machinery, the DP solvers (serial and thread-pooled), the budget hull LP,
// and the marketplace simulator's event loop. Policies come from
// engine::Solve like every other harness.
//
// Before the google-benchmark suite runs, main() times one N=2000, T=24
// deadline solve serial vs parallel, verifies the two plans are
// bit-identical, and persists BENCH_micro_dp2000.json for the perf
// trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "arrival/rate_function.h"
#include "bench_common.h"
#include "choice/acceptance.h"
#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "market/controller.h"
#include "market/simulator.h"
#include "pricing/policy_eval.h"
#include "stats/convex_hull.h"
#include "stats/poisson.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crowdprice {
namespace {

engine::DeadlineDpSpec DpSpec(int n, engine::DeadlineDpSpec::Algorithm algorithm,
                              int num_threads) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = pricing::ActionSet::FromPriceGrid(50, acceptance).value();
  pricing::DeadlineProblem problem;
  problem.num_tasks = n;
  problem.num_intervals = 24;
  problem.penalty_cents = 200.0;
  const std::vector<double> lambdas(24, 610.0 * n / 200.0);
  engine::DeadlineDpSpec spec =
      bench::MakeDeadlineSpec(problem, lambdas, std::move(actions), algorithm);
  spec.dp_options.num_threads = num_threads;
  return spec;
}

void BM_PoissonPmf(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::PoissonPmf(k++ % 100, lambda));
  }
}
BENCHMARK(BM_PoissonPmf)->Arg(5)->Arg(50)->Arg(500);

void BM_MakeTruncatedPoisson(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto tp = stats::MakeTruncatedPoisson(lambda, 1e-9);
    benchmark::DoNotOptimize(tp);
  }
}
BENCHMARK(BM_MakeTruncatedPoisson)->Arg(5)->Arg(50)->Arg(500);

void BM_SamplePoisson(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0)) / 10.0;
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::SamplePoisson(rng, lambda));
  }
}
BENCHMARK(BM_SamplePoisson)->Arg(5)->Arg(95)->Arg(105)->Arg(5000);

void BM_SimpleDp(benchmark::State& state) {
  const engine::DeadlineDpSpec spec =
      DpSpec(static_cast<int>(state.range(0)),
             engine::DeadlineDpSpec::Algorithm::kSimple,
             static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto artifact = engine::Solve(spec);
    benchmark::DoNotOptimize(artifact);
  }
}
BENCHMARK(BM_SimpleDp)
    ->Args({50, 1})
    ->Args({200, 1})
    ->Args({2000, 1})
    ->Args({2000, 0})  // 0 = hardware_concurrency
    ->Unit(benchmark::kMillisecond);

void BM_ImprovedDp(benchmark::State& state) {
  const engine::DeadlineDpSpec spec =
      DpSpec(static_cast<int>(state.range(0)),
             engine::DeadlineDpSpec::Algorithm::kImproved,
             static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto artifact = engine::Solve(spec);
    benchmark::DoNotOptimize(artifact);
  }
}
BENCHMARK(BM_ImprovedDp)
    ->Args({50, 1})
    ->Args({200, 1})
    ->Args({800, 1})
    ->Args({2000, 1})
    ->Args({2000, 0})
    ->Unit(benchmark::kMillisecond);

void BM_EvaluatePolicy(benchmark::State& state) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = pricing::ActionSet::FromPriceGrid(50, acceptance).value();
  pricing::DeadlineProblem problem;
  problem.num_tasks = 200;
  problem.num_intervals = 72;
  problem.penalty_cents = 500.0;
  const std::vector<double> lambdas(72, 122000.0 / 72.0);
  const engine::PolicyArtifact artifact = bench::SolveOrDie(
      bench::MakeDeadlineSpec(problem, lambdas, std::move(actions)), "solve");
  const pricing::DeadlinePlan& plan = **artifact.deadline_plan();
  for (auto _ : state) {
    auto eval = pricing::EvaluatePolicyNominal(plan);
    benchmark::DoNotOptimize(eval);
  }
}
BENCHMARK(BM_EvaluatePolicy)->Unit(benchmark::kMillisecond);

void BM_BudgetLp(benchmark::State& state) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  const engine::PolicySpec spec =
      bench::MakeBudgetSpec(200, 2500.0, &acceptance, 50);
  for (auto _ : state) {
    auto sol = engine::Solve(spec);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_BudgetLp);

void BM_BudgetExactDp(benchmark::State& state) {
  auto acceptance = choice::LogitAcceptance::Paper2014();
  const engine::PolicySpec spec = bench::MakeBudgetSpec(
      200, 2500.0, &acceptance, 50, engine::BudgetStaticSpec::Method::kExactDp);
  for (auto _ : state) {
    auto sol = engine::Solve(spec);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_BudgetExactDp)->Unit(benchmark::kMillisecond);

void BM_LowerConvexHull(benchmark::State& state) {
  Rng rng(7);
  std::vector<stats::Point2> points;
  for (int i = 0; i < state.range(0); ++i) {
    points.push_back({rng.NextDouble() * 100.0, rng.NextDouble() * 100.0});
  }
  for (auto _ : state) {
    auto hull = stats::LowerConvexHull(points);
    benchmark::DoNotOptimize(hull);
  }
}
BENCHMARK(BM_LowerConvexHull)->Arg(64)->Arg(1024);

void BM_MarketSimulation(benchmark::State& state) {
  auto rate = arrival::PiecewiseConstantRate::Constant(5000.0, 24.0).value();
  auto acceptance = choice::LogitAcceptance::Paper2014();
  market::SimulatorConfig config;
  config.total_tasks = 200;
  config.horizon_hours = 24.0;
  config.decision_interval_hours = 1.0;
  Rng rng(3);
  for (auto _ : state) {
    market::FixedOfferController controller(market::Offer{14.0, 1});
    Rng child = rng.Fork();
    auto result = market::RunSimulation(config, rate, acceptance, controller, child);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MarketSimulation)->Unit(benchmark::kMillisecond);

void BM_NhppSampling(benchmark::State& state) {
  auto rate = arrival::PiecewiseConstantRate::Constant(5000.0, 24.0).value();
  Rng rng(5);
  for (auto _ : state) {
    auto times = arrival::SampleArrivalTimes(rate, 0.0, 24.0, rng);
    benchmark::DoNotOptimize(times);
  }
}
BENCHMARK(BM_NhppSampling)->Unit(benchmark::kMillisecond);

// Per-backend layer-scan headline: one dense DP layer (the paper-scale
// N=2000, 51-action price grid) scanned by every registered
// LayerScanKernel backend, persisted as BENCH_kernel_backends.json with
// each backend's seconds-per-layer and speedup over scalar. The argmin
// rows must agree across backends (costs may differ at ~1e-12).
void RunKernelBackendsHeadline() {
  const int n = bench::SmokeN(2000, 300);
  const int repeats = bench::Smoke() ? 3 : 10;
  auto acceptance = choice::LogitAcceptance::Paper2014();
  auto actions = pricing::ActionSet::FromPriceGrid(50, acceptance).value();
  const double lambda = 610.0 * n / 200.0;

  std::vector<double> rates, costs;
  std::vector<int> bundles;
  for (const pricing::PricingAction& a : actions.actions()) {
    rates.push_back(lambda * a.acceptance);
    costs.push_back(a.cost_per_task_cents);
    bundles.push_back(a.bundle);
  }
  kernel::PmfArena arena = kernel::PmfArena::Build(rates, 1e-9).value();
  std::vector<int> table_ids;
  for (size_t i = 0; i < rates.size(); ++i) {
    table_ids.push_back(arena.TableOf(i));
  }
  kernel::LayerTables layer;
  layer.arena = &arena;
  layer.tables = table_ids.data();
  layer.costs = costs.data();
  layer.bundles = bundles.data();
  layer.num_actions = static_cast<int>(costs.size());

  // A plausible terminal-ish value row: linear-in-n cost-to-go plus ripple.
  std::vector<double> opt_next(static_cast<size_t>(n) + 1, 0.0);
  for (int i = 1; i <= n; ++i) {
    opt_next[static_cast<size_t>(i)] = 14.0 * i + (i % 7) * 0.3;
  }
  std::vector<double> opt_row(static_cast<size_t>(n) + 1, 0.0);
  std::vector<int32_t> action_row(static_cast<size_t>(n) + 1, -1);

  auto record = bench::BenchRecord("kernel_backends")
                    .Param("N", n)
                    .Param("actions", layer.num_actions)
                    .Param("repeats", repeats)
                    .Label("policy_source", "kernel::LayerScanKernel");
  double scalar_seconds = 0.0;
  std::vector<int32_t> scalar_actions;
  std::string backends_label;
  for (const std::string& name : kernel::KernelRegistry::Global().Available()) {
    const kernel::LayerScanKernel* kern =
        kernel::KernelRegistry::Global().Resolve(name).value();
    double best_seconds = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      kern->ScanLayer(layer, 1, n, opt_next.data(), opt_row.data(),
                      action_row.data());
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    if (name == "scalar") {
      scalar_seconds = best_seconds;
      scalar_actions.assign(action_row.begin(), action_row.end());
    } else if (!scalar_actions.empty() &&
               !std::equal(scalar_actions.begin(), scalar_actions.end(),
                           action_row.begin())) {
      std::printf("kernel backend %s DISAGREES with scalar argmin (BUG)\n",
                  name.c_str());
      std::exit(3);
    }
    const double speedup =
        best_seconds > 0.0 ? scalar_seconds / best_seconds : 0.0;
    std::printf("layer scan N=%d A=%d [%s]: %.3f ms (%.2fx vs scalar)\n", n,
                layer.num_actions, name.c_str(), best_seconds * 1e3, speedup);
    record.Metric(name + "_seconds", best_seconds)
        .Metric("speedup_" + name, speedup);
    if (!backends_label.empty()) backends_label += ",";
    backends_label += name;
  }
  record.Label("backends", backends_label)
      .Label("default_backend",
             kernel::KernelRegistry::Global().Resolve("").value()->name());
  (void)record.Write();
}

// One headline measurement outside the google-benchmark loop: the N=2000
// deadline solve, serial vs the shared thread pool, with a bit-identity
// check between the two plans.
void RunDp2000Headline() {
  // Smoke mode keeps the serial-vs-parallel bit-identity check but shrinks
  // the batch; the record still lands in BENCH_micro_dp2000.json.
  const int n = bench::SmokeN(2000, 300);
  const int hw = ThreadPool::DefaultThreads();
  const engine::PolicyArtifact serial = bench::SolveOrDie(
      DpSpec(n, engine::DeadlineDpSpec::Algorithm::kSimple, 1), "serial DP");
  const engine::PolicyArtifact parallel = bench::SolveOrDie(
      DpSpec(n, engine::DeadlineDpSpec::Algorithm::kSimple, 0), "parallel DP");
  const pricing::DeadlinePlan& a = **serial.deadline_plan();
  const pricing::DeadlinePlan& b = **parallel.deadline_plan();
  bool identical = true;
  for (int t = 0; t < a.num_intervals() && identical; ++t) {
    for (int n = 1; n <= a.num_tasks(); ++n) {
      if (a.ActionIndexUnchecked(n, t) != b.ActionIndexUnchecked(n, t) ||
          a.OptUnchecked(n, t) != b.OptUnchecked(n, t)) {
        identical = false;
        break;
      }
    }
  }
  std::printf(
      "DP N=%d T=24: serial %.3fs, %d-thread %.3fs (%.2fx), plans %s; "
      "poisson tables built %lld, reused %lld\n",
      n, a.solve_seconds, b.threads_used, b.solve_seconds,
      b.solve_seconds > 0 ? a.solve_seconds / b.solve_seconds : 0.0,
      identical ? "bit-identical" : "DIFFERENT (BUG)",
      static_cast<long long>(b.poisson_tables_built),
      static_cast<long long>(b.poisson_table_reuses));
  (void)bench::BenchRecord("micro_dp2000")
      .Param("N", n)
      .Param("T", 24)
      .Param("max_price", 50)
      .Param("hardware_threads", hw)
      .Metric("serial_seconds", a.solve_seconds)
      .Metric("parallel_seconds", b.solve_seconds)
      .Metric("parallel_threads", b.threads_used)
      .Metric("state_evaluations", static_cast<double>(a.action_evaluations))
      .Metric("plans_identical", identical ? 1.0 : 0.0)
      .Label("policy_source", "engine::Solve")
      .Write();
  if (!identical) std::exit(3);
}

}  // namespace
}  // namespace crowdprice

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark sees the args (it rejects
  // unknown flags); in smoke mode run only one cheap kernel per family.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      crowdprice::bench::g_smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  crowdprice::RunKernelBackendsHeadline();
  crowdprice::RunDp2000Headline();
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (crowdprice::bench::Smoke()) {
    benchmark::RunSpecifiedBenchmarks("BM_PoissonPmf|BM_LowerConvexHull");
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
