#include "engine/solve_wave.h"

#include <cstdint>
#include <utility>

#include "util/macros.h"

namespace crowdprice::engine {

namespace {

// One spec's slot of the wave: deadline solves get the wave's cache and
// kernel override and run single-threaded (plans are bit-identical either
// way); other kinds pass through untouched.
Result<PolicyArtifact> SolveOne(const PolicySpec& spec,
                                const SolveWaveOptions& options) {
  if (spec.kind() != PolicyKind::kDeadlineDp) {
    return Engine::Solve(spec);
  }
  DeadlineDpSpec s = spec.get<DeadlineDpSpec>();
  s.dp_options.share_cache = options.share_cache;
  s.dp_options.num_threads = 1;
  if (!options.kernel_backend.empty()) {
    s.dp_options.kernel_backend = options.kernel_backend;
  }
  Result<PolicyArtifact> solved = Engine::Solve(PolicySpec(std::move(s)));
  if (solved.ok() && options.evaluate) {
    pricing::EvalOptions eval_options;
    eval_options.kernel_backend = options.kernel_backend;
    eval_options.share_cache = options.share_cache;
    CP_RETURN_IF_ERROR(solved.value().PrecomputeEvaluation(eval_options));
  }
  return solved;
}

}  // namespace

std::vector<Result<PolicyArtifact>> SolveWave(std::span<const PolicySpec> specs,
                                              const SolveWaveOptions& options) {
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Shared();
  std::vector<Result<PolicyArtifact>> results(
      specs.size(), Status::Internal("wave slot never solved"));
  pool.ParallelFor(static_cast<int64_t>(specs.size()), [&](int64_t i) {
    const size_t slot = static_cast<size_t>(i);
    results[slot] = SolveOne(specs[slot], options);
  });
  return results;
}

}  // namespace crowdprice::engine
