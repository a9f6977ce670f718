// Shared helpers for the experiment harnesses.
//
// Every bench binary reproduces one table or figure of the paper. The
// harness prints (a) the same rows/series the paper reports and (b) a
// CHECK line per qualitative claim: the *shape* of the result (who wins,
// rough factors, crossovers) is asserted; absolute numbers depend on the
// synthetic marketplace and are reported for inspection only.
//
// Policies are obtained exclusively through engine::Solve (SolveOrDie plus
// the Make*Spec builders below); benches never call the pricing solvers
// directly. Performance-relevant benches additionally persist a
// machine-readable BENCH_<name>.json record (BenchRecord) so successive
// PRs can regress against a perf trajectory.

#ifndef CROWDPRICE_BENCH_BENCH_COMMON_H_
#define CROWDPRICE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "arrival/trace.h"
#include "engine/engine.h"
#include "util/macros.h"
#include "util/status.h"
#include "util/stringf.h"

namespace crowdprice::bench {

inline int g_checks_failed = 0;
inline int g_exact_checks_failed = 0;

// ---------------------------------------------------------------------------
// Smoke mode
// ---------------------------------------------------------------------------

/// True when the harness runs in reduced-size "smoke" mode: CI runs every
/// bench binary with --smoke (or BENCH_SMOKE=1) to exercise the full code
/// path and the BENCH_*.json emission in seconds instead of minutes.
/// Smoke-sized runs are statistically meaningless, so Finish() reports
/// Check failures without failing the process; CheckExact failures still
/// fail it.
inline bool g_smoke = [] {
  const char* env = std::getenv("BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}();

inline bool Smoke() { return g_smoke; }

/// Parses harness-wide flags (currently just --smoke). Call first thing in
/// main(); unknown flags are left alone for the bench's own parsing.
inline void Init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") g_smoke = true;
  }
}

/// `full` normally, `reduced` (capped by full) in smoke mode. Use for
/// replicate counts, trial counts and grid sizes.
inline int SmokeN(int full, int reduced) {
  return g_smoke ? std::min(full, reduced) : full;
}

/// Prints "CHECK PASS/FAIL: <claim>" and tracks failures for the exit code.
inline void Check(bool ok, const std::string& claim) {
  std::cout << (ok ? "CHECK PASS: " : "CHECK FAIL: ") << claim << "\n";
  if (!ok) ++g_checks_failed;
}

/// Check for a determinism or exactness claim (bit-identical plans, equal
/// answers): no run size can excuse it, so Finish() fails on it in smoke
/// mode too.
inline void CheckExact(bool ok, const std::string& claim) {
  Check(ok, claim);
  if (!ok) ++g_exact_checks_failed;
}

/// Exit code for main(): 0 when every Check passed (smoke mode tolerates
/// Check failures -- reduced sizes break the statistical claims by design
/// -- but never a CheckExact failure).
inline int Finish() {
  if (g_checks_failed > 0) {
    if (g_smoke && g_exact_checks_failed == 0) {
      std::cout << "\n" << g_checks_failed
                << " check(s) failed (tolerated in --smoke mode)\n";
      return 0;
    }
    std::cout << "\n" << g_checks_failed << " check(s) FAILED\n";
    return 1;
  }
  std::cout << "\nall checks passed\n";
  return 0;
}

/// Aborts the bench with a readable message on unexpected Status failures.
inline void DieOnError(const Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << "FATAL during " << what << ": " << status.ToString() << "\n";
    std::exit(2);
  }
}

#define BENCH_ASSIGN(lhs, rexpr)                                   \
  auto CP_CONCAT(bench_result_, __LINE__) = (rexpr);               \
  ::crowdprice::bench::DieOnError(                                 \
      CP_CONCAT(bench_result_, __LINE__).status(), #rexpr);        \
  lhs = std::move(CP_CONCAT(bench_result_, __LINE__)).value()

/// The synthetic marketplace used throughout the experiment suite: a 4-week
/// mturk-like trace calibrated so that a 24 h, 200-task campaign has a
/// theoretical minimum price c0 ~ 12 cents (matching §5.2.1).
inline arrival::SyntheticTraceConfig PaperMarketConfig() {
  arrival::SyntheticTraceConfig config;
  config.num_weeks = 4;
  config.bucket_minutes = 20;
  config.base_rate_per_hour = 5083.0;
  return config;
}

// ---------------------------------------------------------------------------
// Engine shortcuts
// ---------------------------------------------------------------------------

/// engine::Solve or abort with a readable message.
inline engine::PolicyArtifact SolveOrDie(const engine::PolicySpec& spec,
                                         const char* what) {
  auto artifact = engine::Engine::Solve(spec);
  DieOnError(artifact.status(), what);
  return std::move(artifact).value();
}

/// Fixed-penalty deadline spec (penalty lives in problem.penalty_cents).
inline engine::DeadlineDpSpec MakeDeadlineSpec(
    const pricing::DeadlineProblem& problem, std::vector<double> lambdas,
    pricing::ActionSet actions,
    engine::DeadlineDpSpec::Algorithm algorithm =
        engine::DeadlineDpSpec::Algorithm::kImproved) {
  engine::DeadlineDpSpec spec;
  spec.problem = problem;
  spec.interval_lambdas = std::move(lambdas);
  spec.actions = std::move(actions);
  spec.algorithm = algorithm;
  return spec;
}

/// Deadline spec solved through the Theorem 2 penalty bisection.
inline engine::DeadlineDpSpec MakeBoundedDeadlineSpec(
    const pricing::DeadlineProblem& problem, std::vector<double> lambdas,
    pricing::ActionSet actions, double expected_remaining_bound) {
  engine::DeadlineDpSpec spec =
      MakeDeadlineSpec(problem, std::move(lambdas), std::move(actions));
  spec.expected_remaining_bound = expected_remaining_bound;
  return spec;
}

/// Fixed-price baseline spec. `acceptance` is borrowed, not owned.
inline engine::FixedPriceSpec MakeFixedPriceSpec(
    int num_tasks, std::vector<double> lambdas,
    const choice::AcceptanceFunction* acceptance, int max_price_cents,
    engine::FixedPriceSpec::Criterion criterion, double threshold) {
  engine::FixedPriceSpec spec;
  spec.num_tasks = num_tasks;
  spec.interval_lambdas = std::move(lambdas);
  spec.acceptance = acceptance;
  spec.max_price_cents = max_price_cents;
  spec.criterion = criterion;
  spec.threshold = threshold;
  return spec;
}

/// Budget-static spec. `acceptance` is borrowed, not owned.
inline engine::BudgetStaticSpec MakeBudgetSpec(
    int64_t num_tasks, double budget_cents,
    const choice::AcceptanceFunction* acceptance, int max_price_cents,
    engine::BudgetStaticSpec::Method method =
        engine::BudgetStaticSpec::Method::kLp) {
  engine::BudgetStaticSpec spec;
  spec.num_tasks = num_tasks;
  spec.budget_cents = budget_cents;
  spec.acceptance = acceptance;
  spec.max_price_cents = max_price_cents;
  spec.method = method;
  return spec;
}

// ---------------------------------------------------------------------------
// Machine-readable bench records
// ---------------------------------------------------------------------------

/// One benchmark measurement, persisted as BENCH_<name>.json so future PRs
/// have a perf trajectory to regress against. Numbers only (params like
/// N/T/epsilon, metrics like wall seconds / state evaluations) plus string
/// labels (solver name, mode).
class BenchRecord {
 public:
  explicit BenchRecord(std::string name) : name_(std::move(name)) {}

  BenchRecord& Param(const std::string& key, double value) {
    params_.emplace_back(key, value);
    return *this;
  }
  BenchRecord& Metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
    return *this;
  }
  BenchRecord& Label(const std::string& key, std::string value) {
    labels_.emplace_back(key, std::move(value));
    return *this;
  }

  /// Serializes to one JSON object (stable key order: insertion order).
  std::string ToJson() const {
    std::string out = "{\n";
    out += StringF("  \"bench\": \"%s\",\n", Escaped(name_).c_str());
    out += "  \"params\": {" + Numbers(params_) + "},\n";
    out += "  \"metrics\": {" + Numbers(metrics_) + "},\n";
    out += "  \"labels\": {";
    for (size_t i = 0; i < labels_.size(); ++i) {
      if (i > 0) out += ", ";
      out += StringF("\"%s\": \"%s\"", Escaped(labels_[i].first).c_str(),
                     Escaped(labels_[i].second).c_str());
    }
    out += "}\n}\n";
    return out;
  }

  /// Writes BENCH_<name>.json into $BENCH_JSON_DIR (default: cwd).
  Status Write() const {
    const char* dir = std::getenv("BENCH_JSON_DIR");
    const std::string path =
        std::string(dir == nullptr || *dir == '\0' ? "." : dir) + "/BENCH_" +
        name_ + ".json";
    std::ofstream out(path);
    out << ToJson();
    if (!out.good()) {
      return Status::Internal(StringF("failed to write %s", path.c_str()));
    }
    std::cout << "bench record written to " << path << "\n";
    return Status::OK();
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  static std::string Numbers(
      const std::vector<std::pair<std::string, double>>& entries) {
    std::string out;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) out += ", ";
      out += StringF("\"%s\": %.17g", Escaped(entries[i].first).c_str(),
                     entries[i].second);
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, double>> params_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> labels_;
};

}  // namespace crowdprice::bench

#endif  // CROWDPRICE_BENCH_BENCH_COMMON_H_
