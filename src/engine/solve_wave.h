// engine::SolveWave -- batched policy production over the solve farm.
//
// A fleet re-prices campaigns in waves: thousands of PolicySpecs at once,
// most of them small deadline solves stamped from a handful of rate
// profiles. SolveWave runs the specs as one ThreadPool::ParallelFor region
// (the calling thread solves too; a one-spec wave runs inline) and routes
// every deadline solve through a shared PmfShareCache, so campaigns whose
// rates coincide adopt each other's truncated-Poisson blocks instead of
// rebuilding them. Each deadline solve runs single-threaded: the wave's
// parallelism is across campaigns, not within one solve.
//
// Determinism: each artifact is bit-identical to what sequential
// Engine::Solve(spec) produces for the same spec -- the cache keys are
// exact rate bits (kernel/pmf_cache.h) and deadline plans are
// thread-count-independent, so scheduling changes nothing. Results arrive
// in spec order, errors per slot (one bad spec never poisons the wave).
//
// Non-deadline kinds (including adaptive, whose DP solve runs when a
// controller is built from the artifact) pass through to Engine::Solve
// untouched: their artifacts may outlive the wave, so no wave-scoped cache
// pointer is ever planted in them.

#ifndef CROWDPRICE_ENGINE_SOLVE_WAVE_H_
#define CROWDPRICE_ENGINE_SOLVE_WAVE_H_

#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "kernel/pmf_cache.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace crowdprice::engine {

/// The former name of the solve farm's pool, for code that still spells it.
using SolverPool = ThreadPool;

struct SolveWaveOptions {
  /// Farm to run on; null uses ThreadPool::Shared(). Artifacts are
  /// bit-identical whatever the pool.
  ThreadPool* pool = nullptr;
  /// Cross-campaign pmf sharing for the wave's deadline solves (and, with
  /// `evaluate`, their forward passes). Null disables sharing; the default
  /// is the process-wide cache.
  kernel::PmfShareCache* share_cache = &kernel::PmfShareCache::Global();
  /// Also run the kernel-backed nominal evaluation of every deadline
  /// artifact (PolicyArtifact::PrecomputeEvaluation), still inside the
  /// farm jobs -- the batched replacement for a sequential per-campaign
  /// Evaluate() loop.
  bool evaluate = false;
  /// LayerScanKernel backend override for the wave's deadline solves and
  /// evaluations; empty keeps each spec's own setting / the automatic
  /// choice.
  std::string kernel_backend;
};

/// Solves every spec, fanned out over the farm; results in spec order.
/// Blocks until the whole wave is done (the calling thread participates in
/// the work). Safe to call concurrently from several threads against the
/// same pool, and from inside a job running on that pool: waves interleave
/// without blocking each other.
std::vector<Result<PolicyArtifact>> SolveWave(
    std::span<const PolicySpec> specs, const SolveWaveOptions& options = {});

}  // namespace crowdprice::engine

#endif  // CROWDPRICE_ENGINE_SOLVE_WAVE_H_
