#include "engine/solve_wave.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/macros.h"

namespace crowdprice::engine {

namespace {

// One spec's farm job: deadline solves get the wave's cache and kernel
// override and run single-threaded (the wave's parallelism is across
// campaigns, not within one solve -- plans are bit-identical either way);
// other kinds pass through untouched.
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
  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Background();
  std::vector<Result<PolicyArtifact>> results;
  results.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    results.push_back(Status::Internal("wave slot never solved"));
  }

  struct WaveState {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };
  WaveState state;
  state.remaining = specs.size();

  for (size_t i = 0; i < specs.size(); ++i) {
    const PolicySpec& spec = specs[i];
    pool.Submit([&results, &state, &spec, &options, i] {
      results[i] = SolveOne(spec, options);
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.remaining == 0) state.cv.notify_all();
    });
  }

  // Help drain the farm instead of sleeping; the brief timed wait covers
  // the window where every remaining job is already running elsewhere.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state.mu);
      if (state.remaining == 0) break;
    }
    if (pool.TryRunOne()) continue;
    std::unique_lock<std::mutex> lock(state.mu);
    state.cv.wait_for(lock, std::chrono::milliseconds(1),
                      [&state] { return state.remaining == 0; });
  }
  return results;
}

}  // namespace crowdprice::engine
