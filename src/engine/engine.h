// Engine::Solve -- the single entry point for producing pricing policies.
//
// Callers build a PolicySpec naming the solver family and its options; the
// engine switches on the spec's kind to that family's solver and returns a
// PolicyArtifact that can be played (market::PricingController), persisted
// (Serialize / Deserialize) and scored (policy_eval). Everything outside
// src/ -- the CLI, the examples, the experiment benches -- obtains policies
// through this interface only, so a solver implementation can change
// without touching call sites.
//
//   engine::DeadlineDpSpec spec;
//   spec.problem = {...};
//   spec.interval_lambdas = lambdas;
//   spec.actions = actions;
//   spec.expected_remaining_bound = 0.5;
//   CP_ASSIGN_OR_RETURN(engine::PolicyArtifact artifact,
//                       engine::Engine::Solve(spec));
//   auto controller = artifact.MakeController(/*horizon_hours=*/24.0);

#ifndef CROWDPRICE_ENGINE_ENGINE_H_
#define CROWDPRICE_ENGINE_ENGINE_H_

#include "engine/policy_artifact.h"
#include "engine/policy_spec.h"
#include "util/result.h"

namespace crowdprice::engine {

class Engine {
 public:
  /// Solves `spec` with the built-in solver for its kind.
  static Result<PolicyArtifact> Solve(const PolicySpec& spec);
};

/// Free-function convenience for Engine::Solve(spec).
inline Result<PolicyArtifact> Solve(const PolicySpec& spec) {
  return Engine::Solve(spec);
}

}  // namespace crowdprice::engine

#endif  // CROWDPRICE_ENGINE_ENGINE_H_
