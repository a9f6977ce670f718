// Exact and Monte-Carlo evaluation of a solved pricing policy.
//
// The DP's own Opt(N, 0) already gives the expected objective *under the
// planning model*. These evaluators answer two further questions:
//   1. What are the expected cost, expected remaining tasks, completion
//      probability and the full remaining-task distribution of a policy —
//      possibly under a marketplace whose true p(c) or lambda(t) differs
//      from the one the policy was trained on (Figs. 9-10)?
//   2. What does one random campaign trajectory look like (for Monte-Carlo
//      validation of the exact pass and for simulation-backed experiments)?
//
// The exact evaluator propagates the full distribution over remaining tasks
// forward through the chain, O(NT * N * s0). The per-interval body runs on
// LayerScanKernel::EvaluateLayer over a PmfArena -- the scalar backend
// reproduces the historical hand-rolled loop bit-exactly, SIMD backends
// agree to ~1e-12, and a future GPU backend plugs in at the same seam.

#ifndef CROWDPRICE_PRICING_POLICY_EVAL_H_
#define CROWDPRICE_PRICING_POLICY_EVAL_H_

#include <functional>
#include <string>
#include <vector>

#include "choice/acceptance.h"
#include "pricing/plan.h"
#include "util/result.h"
#include "util/rng.h"

namespace crowdprice::kernel {
class PmfShareCache;
}  // namespace crowdprice::kernel

namespace crowdprice::pricing {

/// Knobs for the exact evaluators. Defaults reproduce the historical
/// numbers (fastest backend; under a SIMD backend within ~1e-12 of the
/// scalar anchor, which is itself bit-identical to the pre-kernel code).
struct EvalOptions {
  /// LayerScanKernel backend for the forward pass; empty selects the
  /// $CROWDPRICE_KERNEL override when set, else the fastest registered.
  std::string kernel_backend;
  /// Cross-solve cache for freshly built evaluation tables (exact-bit
  /// keys; see kernel/pmf_cache.h). Not owned; may be null.
  kernel::PmfShareCache* share_cache = nullptr;
};

struct PolicyEvaluation {
  /// Expected transition cost (rewards paid), cents.
  double expected_cost_cents = 0.0;
  /// E[# tasks unsolved at the deadline].
  double expected_remaining = 0.0;
  /// Pr[at least one task unsolved at the deadline].
  double prob_unfinished = 0.0;
  /// Full distribution of remaining tasks at the deadline (index = n).
  std::vector<double> remaining_distribution;
  /// expected_cost / E[# completed]: the paper's "average task reward".
  double average_reward_per_task = 0.0;
  /// expected_cost + expected terminal penalty: the MDP objective.
  double expected_objective = 0.0;
};

/// Evaluates `plan` exactly, with the true acceptance probability of each
/// action given by true_probs[action index] and true per-interval worker
/// means `true_lambdas` (same length as the plan's intervals). Pass the
/// plan's own action acceptances / lambdas to evaluate under the planning
/// model.
///
/// When the trace is the planning model and the plan still carries its
/// solve arena, the forward pass replays over that arena instead of
/// rebuilding every truncated pmf (the nominal-evaluation fast path). The
/// solver deduplicates by quantized rate, so if distinct exact rates shared
/// a bucket during the solve, the replayed tables can differ from a fresh
/// build in the last ulp. A plan without a solve arena -- a deserialized
/// one -- always gets fresh exact-rate tables.
Result<PolicyEvaluation> EvaluatePolicy(const DeadlinePlan& plan,
                                        const std::vector<double>& true_lambdas,
                                        const std::vector<double>& true_probs,
                                        const EvalOptions& options = {});

/// Convenience: true probabilities from an acceptance function applied to
/// each action's per-task cost (unit-bundle action sets).
Result<PolicyEvaluation> EvaluatePolicyUnderMarket(
    const DeadlinePlan& plan, const std::vector<double>& true_lambdas,
    const choice::AcceptanceFunction& true_acceptance,
    const EvalOptions& options = {});

/// Evaluates under the planning model itself (sanity: expected_objective
/// matches plan.TotalObjective() up to truncation error). Replays the
/// plan's solve arena when present (see EvaluatePolicy).
Result<PolicyEvaluation> EvaluatePolicyNominal(const DeadlinePlan& plan,
                                               const EvalOptions& options = {});

/// One Monte-Carlo trajectory of the interval process.
struct PolicyTrajectory {
  double cost_cents = 0.0;
  int remaining = 0;
  /// Price posted in each interval (diagnostic; Fig. 9 right column).
  std::vector<double> prices;
};
Result<PolicyTrajectory> SimulatePolicyOnce(
    const DeadlinePlan& plan, const std::vector<double>& true_lambdas,
    const std::vector<double>& true_probs, Rng& rng);

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_POLICY_EVAL_H_
