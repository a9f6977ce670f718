// PolicyArtifact: the result of Engine::Solve, whatever the solver family.
//
// An artifact is the solved policy in a uniform wrapper that can be
//   (a) played against the marketplace as a market::PricingController,
//   (b) persisted and reloaded (table-backed kinds) via the same
//       line-oriented hex-float format as pricing/serialization -- a
//       deadline or multitype text carries the policy table, not the
//       solver's cost-to-go table, so a reloaded plan answers every decide
//       but has no Opt(n, t) (OptAt fails, TotalObjective is NaN) -- and
//   (c) scored by the pricing/policy_eval machinery (deadline kind).
//
// Controllers returned by MakeController may reference tables owned by the
// artifact; the artifact must outlive them.

#ifndef CROWDPRICE_ENGINE_POLICY_ARTIFACT_H_
#define CROWDPRICE_ENGINE_POLICY_ARTIFACT_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "engine/policy_spec.h"
#include "market/controller.h"
#include "pricing/budget.h"
#include "pricing/fixed_price.h"
#include "pricing/multitype.h"
#include "pricing/plan.h"
#include "pricing/policy_eval.h"
#include "pricing/tradeoff.h"
#include "util/result.h"

namespace crowdprice::engine {

/// Payload of a solved deadline spec.
struct DeadlinePolicy {
  pricing::DeadlinePlan plan;
  /// The penalty the plan was solved at (bisection result in bound mode,
  /// problem.penalty_cents otherwise).
  double penalty_used = 0.0;
  /// DP solves spent (> 1 when the Theorem 2 bisection ran).
  int dp_solves = 1;
  /// Nominal evaluation; filled by bound-mode solves (where it comes free)
  /// and by Evaluate().
  std::optional<pricing::PolicyEvaluation> evaluation;
};

/// Payload of a solved adaptive spec: everything needed to instantiate
/// re-planning controllers.
struct AdaptivePolicy {
  pricing::DeadlineProblem problem;
  std::vector<double> believed_lambdas;
  pricing::ActionSet actions;
  double horizon_hours = 0.0;
  pricing::AdaptiveOptions options;
};

class PolicyArtifact {
 public:
  explicit PolicyArtifact(DeadlinePolicy payload)
      : payload_(std::move(payload)) {}
  explicit PolicyArtifact(pricing::StaticPriceAssignment payload)
      : payload_(std::move(payload)) {}
  explicit PolicyArtifact(pricing::FixedPriceSolution payload)
      : payload_(std::move(payload)) {}
  explicit PolicyArtifact(AdaptivePolicy payload)
      : payload_(std::move(payload)) {}
  explicit PolicyArtifact(pricing::MultiTypePlan payload)
      : payload_(std::move(payload)) {}
  explicit PolicyArtifact(pricing::TradeoffSolution payload)
      : payload_(std::move(payload)) {}

  PolicyKind kind() const { return static_cast<PolicyKind>(payload_.index()); }

  // --- Checked payload accessors (error unless the kind matches) --------
  Result<const pricing::DeadlinePlan*> deadline_plan() const;
  /// The cached nominal evaluation; present after bound-mode solves.
  Result<const pricing::PolicyEvaluation*> deadline_evaluation() const;
  /// Penalty/bisection diagnostics; 0/1 for non-deadline kinds.
  double penalty_used() const;
  int dp_solves() const;
  /// Provenance metadata: the LayerScanKernel backend that solved the
  /// tables ("scalar", "avx2", "neon", ...). Empty for kinds without a
  /// kernel-backed solve and for plans loaded from serialized artifacts
  /// (runtime provenance is not persisted).
  std::string kernel_backend() const;
  Result<const pricing::StaticPriceAssignment*> budget_assignment() const;
  Result<const pricing::FixedPriceSolution*> fixed_price() const;
  Result<const pricing::MultiTypePlan*> multitype_plan() const;
  Result<const pricing::TradeoffSolution*> tradeoff() const;

  // --- (a) play -----------------------------------------------------------
  /// A marketplace controller playing this policy over a campaign of
  /// `horizon_hours`. Deadline and multitype plans map campaign time to
  /// intervals with horizon / num_intervals; adaptive artifacts use the
  /// horizon they were specified with (the argument is ignored); static
  /// kinds post time-independent offers. Every PolicyKind is playable:
  /// single-type kinds answer 1-offer sheets, the multitype kind a 2-offer
  /// sheet per decision. The controller may point into this artifact.
  Result<std::unique_ptr<market::PricingController>> MakeController(
      double horizon_hours) const;

  /// Adaptive kind only: a concrete re-planning controller (exposes
  /// current_factor() / resolves() diagnostics the interface hides).
  Result<pricing::AdaptiveRateController> MakeAdaptiveController() const;

  // --- (b) persist --------------------------------------------------------
  /// Self-contained text serialization for every kind, ending in '\n'.
  /// Bit-exact round trip via hex-float encoding; the deadline payload
  /// embeds the pricing/serialization plan format, the multitype payload
  /// its joint policy table, and the adaptive payload its belief state
  /// (believed lambdas, action set, options) -- a checkpoint of the
  /// re-planner's priors, not of any in-flight campaign state.
  Result<std::string> Serialize() const;
  /// Reads Serialize()'s text. A legacy deadline or multitype text with an
  /// `opt` section still decodes (the section is checked and discarded).
  /// Rejects a text whose last line has no '\n' and any bytes after the
  /// kind's last section.
  static Result<PolicyArtifact> Deserialize(std::string_view text);

  // --- (c) score ----------------------------------------------------------
  /// Nominal policy evaluation (deadline kind): the cached one when
  /// present, otherwise computed via EvaluatePolicyNominal.
  Result<pricing::PolicyEvaluation> Evaluate() const;

  /// Computes and caches the nominal evaluation in the artifact (deadline
  /// kind; WrongKind otherwise). No-op when one is already cached; later
  /// Evaluate() calls return the cached result. SolveWave's evaluate mode
  /// uses this so scoring rides the farm's kernel-backed forward pass.
  Status PrecomputeEvaluation(const pricing::EvalOptions& options = {});

 private:
  using Payload =
      std::variant<DeadlinePolicy, pricing::StaticPriceAssignment,
                   pricing::FixedPriceSolution, AdaptivePolicy,
                   pricing::MultiTypePlan, pricing::TradeoffSolution>;

  Status WrongKind(const char* wanted) const;

  Payload payload_;
};

}  // namespace crowdprice::engine

#endif  // CROWDPRICE_ENGINE_POLICY_ARTIFACT_H_
