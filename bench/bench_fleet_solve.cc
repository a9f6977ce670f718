// Fleet solve farm: batched wave solving and kernel-backed batched
// evaluation.
//
// Part 1 -- wave solving: stamp a 10k-campaign wave from 16 rate profiles
// (N=36, NT=24, 20-action grid) and solve it through engine::SolveWave
// over a ThreadPool with a shared PmfShareCache, against the sequential
// Engine::Solve baseline. A sample of wave artifacts must serialize
// bit-identically to their sequential counterparts and hold bit-identical
// cost-to-go tables, which the policy-only text leaves out (the farm's
// determinism contract), and campaigns stamped from the same profile must
// share pmf blocks instead of rebuilding them. Reports waves/sec at pool
// sizes {1,2,4,8}.
//
// Part 2 -- batched evaluation: the kernel-backed nominal forward pass
// (EvaluatePolicyNominal on the plan's retained solve arena) against the
// pre-kernel per-campaign evaluator, reproduced verbatim here (it rebuilds
// every truncated pmf per campaign per interval). The batched path must be
// >= 3x faster on a full run -- the win is algorithmic (arena reuse +
// kernel layer), so it holds on any core count; smoke runs only gate
// against outright pathology.
//
// Emits BENCH_fleet_solve.json; check_bench_json re-derives the gates.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "engine/solve_wave.h"
#include "kernel/pmf_cache.h"
#include "pricing/policy_eval.h"
#include "stats/poisson.h"
#include "util/stringf.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace crowdprice;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

constexpr int kNumProfiles = 16;
constexpr int kNumTasks = 36;
constexpr int kNumIntervals = 24;
constexpr int kMaxPrice = 20;  // 20-action unit-bundle grid

// Campaign i of the wave: profile i % 16 fixes the arrival rates (so pmf
// blocks repeat exactly across the fleet); the task count varies per
// campaign so every spec is a distinct solve.
engine::DeadlineDpSpec WaveSpec(int i, const pricing::ActionSet& actions) {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = kNumTasks - i % 12;
  spec.problem.num_intervals = kNumIntervals;
  spec.problem.penalty_cents = 220.0;
  const double lambda = 400.0 + 150.0 * (i % kNumProfiles);
  spec.interval_lambdas.assign(kNumIntervals, lambda);
  spec.actions = actions;
  return spec;
}

// The nominal evaluator exactly as it existed before the kernel lowering:
// truncated-Poisson tables rebuilt per campaign per interval. This is the
// sequential baseline the batched (arena-reusing, kernel-backed) pass is
// gated against.
double LegacyNominalEvaluate(const pricing::DeadlinePlan& plan) {
  const int num_tasks = plan.num_tasks();
  const int nt = plan.num_intervals();
  const double epsilon = plan.problem().truncation_epsilon;
  std::vector<double> probs;
  for (const auto& a : plan.actions().actions()) probs.push_back(a.acceptance);

  std::vector<double> dist(static_cast<size_t>(num_tasks) + 1, 0.0);
  dist[static_cast<size_t>(num_tasks)] = 1.0;
  std::vector<double> next(static_cast<size_t>(num_tasks) + 1, 0.0);
  double expected_cost = 0.0;
  std::vector<int> table_of_action(plan.actions().size());
  for (int t = 0; t < nt; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    next[0] += dist[0];
    std::vector<stats::TruncatedPoisson> tables;
    std::fill(table_of_action.begin(), table_of_action.end(), -1);
    for (int n = 1; n <= num_tasks; ++n) {
      const double mass = dist[static_cast<size_t>(n)];
      if (mass <= 0.0) continue;
      const int a_idx = plan.ActionIndexUnchecked(n, t);
      if (a_idx < 0) return -1.0;
      if (table_of_action[static_cast<size_t>(a_idx)] < 0) {
        auto tp = stats::MakeTruncatedPoisson(
            plan.interval_lambdas()[static_cast<size_t>(t)] *
                probs[static_cast<size_t>(a_idx)],
            epsilon);
        bench::DieOnError(tp.status(), "legacy eval table");
        table_of_action[static_cast<size_t>(a_idx)] =
            static_cast<int>(tables.size());
        tables.push_back(std::move(tp).value());
      }
      const stats::TruncatedPoisson& tp = tables[static_cast<size_t>(
          table_of_action[static_cast<size_t>(a_idx)])];
      const pricing::PricingAction& action =
          plan.actions()[static_cast<size_t>(a_idx)];
      const double c = action.cost_per_task_cents;
      double cum = 0.0;
      for (int k = 0; k < static_cast<int>(tp.pmf.size()); ++k) {
        const long long d_ll = static_cast<long long>(k) * action.bundle;
        if (d_ll >= n) break;
        const int d = static_cast<int>(d_ll);
        const double p = tp.pmf[static_cast<size_t>(k)];
        next[static_cast<size_t>(n - d)] += mass * p;
        expected_cost += mass * p * c * d;
        cum += p;
      }
      const double finish_mass = std::max(0.0, 1.0 - cum);
      next[0] += mass * finish_mass;
      expected_cost += mass * finish_mass * c * n;
    }
    dist.swap(next);
  }
  return expected_cost;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Fleet solve farm ===\n\n";
  const choice::LogitAcceptance acceptance =
      choice::LogitAcceptance::Paper2014();
  auto actions_result =
      pricing::ActionSet::FromPriceGrid(kMaxPrice, acceptance);
  bench::DieOnError(actions_result.status(), "action grid");
  const pricing::ActionSet actions = std::move(actions_result).value();

  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const int kCampaigns = bench::SmokeN(10000, 192);

  bench::BenchRecord record("fleet_solve");
  record.Label("layer", "engine");
  record.Param("campaigns", kCampaigns);
  record.Param("profiles", kNumProfiles);
  record.Param("num_tasks", kNumTasks);
  record.Param("num_intervals", kNumIntervals);
  record.Param("hw_threads", static_cast<double>(hw_threads));
  record.Param("smoke", bench::Smoke() ? 1.0 : 0.0);

  std::vector<engine::PolicySpec> specs;
  specs.reserve(static_cast<size_t>(kCampaigns));
  for (int i = 0; i < kCampaigns; ++i) {
    specs.push_back(WaveSpec(i, actions));
  }

  // ------------------------------------------------------------------ 1.
  std::cout << StringF(
      "wave of %d campaigns from %d rate profiles (N=%d, NT=%d, %zu "
      "actions)\n\n",
      kCampaigns, kNumProfiles, kNumTasks, kNumIntervals, actions.size());

  const auto sequential_start = std::chrono::steady_clock::now();
  std::vector<std::string> sample_serialized;
  std::vector<engine::PolicyArtifact> sample_solved;
  const int kSampleStride = std::max(1, kCampaigns / 64);
  for (int i = 0; i < kCampaigns; ++i) {
    engine::PolicyArtifact artifact =
        bench::SolveOrDie(specs[static_cast<size_t>(i)], "sequential solve");
    if (i % kSampleStride == 0) {
      auto text = artifact.Serialize();
      bench::DieOnError(text.status(), "serialize");
      sample_serialized.push_back(std::move(text).value());
      sample_solved.push_back(std::move(artifact));
    }
  }
  const double sequential_seconds = Seconds(sequential_start);

  kernel::PmfShareCache wave_cache;
  ThreadPool wave_pool(static_cast<int>(hw_threads), /*background=*/false);
  engine::SolveWaveOptions wave_options;
  wave_options.pool = &wave_pool;
  wave_options.share_cache = &wave_cache;
  const auto wave_start = std::chrono::steady_clock::now();
  auto wave = engine::SolveWave(specs, wave_options);
  const double wave_seconds = Seconds(wave_start);

  bool wave_ok = wave.size() == specs.size();
  for (const auto& r : wave) wave_ok = wave_ok && r.ok();
  bench::CheckExact(wave_ok, "every wave slot solved");
  bool identical = true;
  for (int i = 0, s = 0; i < kCampaigns && wave_ok; i += kSampleStride, ++s) {
    auto text = wave[static_cast<size_t>(i)]->Serialize();
    bench::DieOnError(text.status(), "wave serialize");
    identical =
        identical && *text == sample_serialized[static_cast<size_t>(s)];
    auto got = wave[static_cast<size_t>(i)]->deadline_plan();
    auto want = sample_solved[static_cast<size_t>(s)].deadline_plan();
    bench::DieOnError(got.status(), "wave plan");
    bench::DieOnError(want.status(), "sequential plan");
    const pricing::DeadlinePlan& a = **got;
    const pricing::DeadlinePlan& b = **want;
    // WaveSpec varies num_tasks per slot, so size the table from the plans.
    const size_t cells = static_cast<size_t>(b.num_tasks() + 1) *
                         static_cast<size_t>(b.num_intervals() + 1);
    identical = identical && a.num_tasks() == b.num_tasks() &&
                a.num_intervals() == b.num_intervals() &&
                std::memcmp(a.OptLayer(0), b.OptLayer(0),
                            cells * sizeof(double)) == 0;
  }
  bench::CheckExact(
      identical, StringF("sampled wave artifacts (every %dth of %d) serialize "
                         "and hold opt tables bit-identical to sequential "
                         "Engine::Solve",
                         kSampleStride, kCampaigns));

  const kernel::PmfArena::Stats share = wave_cache.stats();
  std::cout << StringF(
      "sequential %.3f s, wave %.3f s (%.2fx), pmf blocks built %lld / "
      "shared %lld\n",
      sequential_seconds, wave_seconds,
      wave_seconds > 0.0 ? sequential_seconds / wave_seconds : 0.0,
      static_cast<long long>(share.blocks_built),
      static_cast<long long>(share.blocks_shared));
  bench::Check(share.blocks_shared > 0,
               "profile-stamped campaigns shared pmf blocks across the wave");
  record.Metric("sequential_solve_seconds", sequential_seconds);
  record.Metric("wave_seconds", wave_seconds);
  record.Metric("wave_speedup",
                wave_seconds > 0.0 ? sequential_seconds / wave_seconds : 0.0);
  record.Metric("share_blocks_built",
                static_cast<double>(share.blocks_built));
  record.Metric("share_blocks_shared",
                static_cast<double>(share.blocks_shared));

  // Pool-size curve on a smaller wave (retimed per size; on a narrow host
  // the curve is flat -- waves parallelize across campaigns, so extra
  // workers only help when cores exist to run them).
  const int kCurveCampaigns = bench::SmokeN(2000, 64);
  std::vector<engine::PolicySpec> curve_specs(
      specs.begin(), specs.begin() + kCurveCampaigns);
  Table curve_table({"pool threads", "wave s", "waves/sec"});
  for (int threads : {1, 2, 4, 8}) {
    kernel::PmfShareCache curve_cache;
    ThreadPool curve_pool(threads, /*background=*/false);
    engine::SolveWaveOptions curve_options;
    curve_options.pool = &curve_pool;
    curve_options.share_cache = &curve_cache;
    const auto start = std::chrono::steady_clock::now();
    auto curve_wave = engine::SolveWave(curve_specs, curve_options);
    const double elapsed = Seconds(start);
    for (const auto& r : curve_wave) {
      bench::DieOnError(r.status(), "curve wave solve");
    }
    const double waves_per_sec = elapsed > 0.0 ? 1.0 / elapsed : 0.0;
    record.Metric(StringF("waves_per_sec_threads_%d", threads),
                  waves_per_sec);
    bench::DieOnError(
        curve_table.AddRow({StringF("%d", threads), StringF("%.3f", elapsed),
                            StringF("%.3f", waves_per_sec)}),
        "row");
  }
  std::cout << "\n";
  curve_table.Print(std::cout);

  // ------------------------------------------------------------------ 2.
  std::cout << "\nbatched (kernel + arena reuse) vs pre-kernel evaluation\n";
  const auto legacy_start = std::chrono::steady_clock::now();
  double legacy_sum = 0.0;
  for (const auto& r : wave) {
    legacy_sum += LegacyNominalEvaluate(**r->deadline_plan());
  }
  const double eval_sequential_seconds = Seconds(legacy_start);

  kernel::PmfShareCache eval_cache;
  pricing::EvalOptions eval_options;
  eval_options.share_cache = &eval_cache;
  const auto batched_start = std::chrono::steady_clock::now();
  double batched_sum = 0.0;
  for (const auto& r : wave) {
    auto eval = pricing::EvaluatePolicyNominal(**r->deadline_plan(),
                                               eval_options);
    bench::DieOnError(eval.status(), "batched evaluation");
    batched_sum += eval->expected_cost_cents;
  }
  const double eval_batched_seconds = Seconds(batched_start);
  const double eval_speedup = eval_batched_seconds > 0.0
                                  ? eval_sequential_seconds /
                                        eval_batched_seconds
                                  : 0.0;
  std::cout << StringF(
      "  pre-kernel %.3f s, batched %.3f s  ->  %.2fx (cost sums agree to "
      "%.2e)\n",
      eval_sequential_seconds, eval_batched_seconds, eval_speedup,
      std::abs(legacy_sum - batched_sum));
  bench::Check(std::abs(legacy_sum - batched_sum) <=
                   1e-9 * std::max(1.0, std::abs(legacy_sum)),
               "batched evaluation totals match the pre-kernel evaluator");
  // The >= 3x is algorithmic (no per-campaign pmf rebuilds + kernel inner
  // loops), so the full-run gate holds on any core count. Smoke waves are
  // too small to amortize, so they only gate against being slower.
  const double eval_floor = bench::Smoke() ? 0.5 : 3.0;
  bench::Check(eval_speedup >= eval_floor,
               StringF("batched evaluation >= %.1fx pre-kernel (measured "
                       "%.2fx)",
                       eval_floor, eval_speedup));
  record.Metric("eval_sequential_seconds", eval_sequential_seconds);
  record.Metric("eval_batched_seconds", eval_batched_seconds);
  record.Metric("eval_batched_speedup", eval_speedup);

  bench::DieOnError(record.Write(), "bench record");
  return bench::Finish();
}
