// Multiple task types (paper §6, "Multiple Task Types").
//
// The state generalizes to a vector (n_1, ..., n_k, t). We implement the
// two-type case with a joint conditional-logit acceptance: both of our task
// types compete for the same arriving worker, so
//
//   p_i(c_1, c_2) = exp(z_i) / (exp(z_1) + exp(z_2) + M),  z_i = c_i/s_i - b_i.
//
// By Poisson splitting, per interval the completion counts of the two types
// are independent Poissons with means lambda_t * p_i. The DP optimizes the
// pair (c_1, c_2) per state; complexity O(NT * N1 * N2 * C^2 * s0^2), so a
// price-grid stride knob is provided for coarse solves.

#ifndef CROWDPRICE_PRICING_MULTITYPE_H_
#define CROWDPRICE_PRICING_MULTITYPE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace crowdprice::pricing {

/// Joint two-type conditional-logit acceptance.
class JointLogitAcceptance {
 public:
  /// Requires s1, s2 > 0, m > 0.
  static Result<JointLogitAcceptance> Create(double s1, double b1, double s2,
                                             double b2, double m);

  /// (p_1, p_2) at the given price pair.
  std::pair<double, double> ProbabilitiesAt(double c1_cents,
                                            double c2_cents) const;

 private:
  JointLogitAcceptance(double s1, double b1, double s2, double b2, double m)
      : s1_(s1), b1_(b1), s2_(s2), b2_(b2), m_(m) {}
  double s1_, b1_, s2_, b2_, m_;
};

struct MultiTypeProblem {
  int num_tasks_1 = 0;
  int num_tasks_2 = 0;
  int num_intervals = 0;
  double penalty_1_cents = 0.0;
  double penalty_2_cents = 0.0;
  int max_price_cents = 0;
  /// Consider prices {0, stride, 2*stride, ...} only.
  int price_stride = 1;
  double truncation_epsilon = 1e-9;

  Status Validate() const;
};

/// Solved joint policy: optimal price pair and cost-to-go per state. As for
/// DeadlinePlan, a plan decoded from an artifact holds the policy only.
class MultiTypePlan {
 public:
  /// A plan with both tables: every policy entry unsolved (-1), the
  /// cost-to-go zero except the terminal layer's penalties.
  MultiTypePlan(MultiTypeProblem problem, std::vector<double> interval_lambdas);

  /// A plan with the policy table only, for decoders: OptAt fails,
  /// TotalObjective is NaN, and opt() is empty.
  static MultiTypePlan PolicyOnly(MultiTypeProblem problem,
                                  std::vector<double> interval_lambdas);

  const MultiTypeProblem& problem() const { return problem_; }

  /// Optimal (price_1, price_2) at state (n1, n2, t); requires n1 + n2 > 0.
  Result<std::pair<int, int>> PricesAt(int n1, int n2, int t) const;
  /// Cost-to-go at (n1, n2, t), t up to num_intervals (terminal).
  /// FailedPrecondition on a decoded (policy-only) plan.
  Result<double> OptAt(int n1, int n2, int t) const;
  /// Opt(N1, N2, 0); NaN on a decoded (policy-only) plan.
  double TotalObjective() const;

  const std::vector<double>& interval_lambdas() const {
    return interval_lambdas_;
  }

  // --- Solver-facing access ------------------------------------------
  // Both tables live in one contiguous arena with the time layer
  // outermost: a layer is an (N1+1) x (N2+1) row-major matrix contiguous
  // in n2. Backward induction reads layer t+1 and writes layer t as two
  // dense blocks, and the kernel inner loops stream n2 rows.
  size_t StateIndex(int n1, int n2, int t) const;
  size_t PolicyIndex(int n1, int n2, int t) const;
  size_t states_per_layer() const {
    return static_cast<size_t>(problem_.num_tasks_1 + 1) *
           static_cast<size_t>(problem_.num_tasks_2 + 1);
  }
  /// Layer of Opt(., ., t); t in [0, NT].
  const double* OptLayer(int t) const {
    return opt_.data() + static_cast<size_t>(t) * states_per_layer();
  }
  double* MutableOptLayer(int t) {
    return opt_.data() + static_cast<size_t>(t) * states_per_layer();
  }
  /// Layer of packed price pairs at t; t in [0, NT).
  const int32_t* PolicyLayer(int t) const {
    return policy_.data() + static_cast<size_t>(t) * states_per_layer();
  }
  int32_t* MutablePolicyLayer(int t) {
    return policy_.data() + static_cast<size_t>(t) * states_per_layer();
  }
  std::vector<double>& opt() { return opt_; }
  std::vector<int32_t>& policy() { return policy_; }  ///< packed c1 * 4096 + c2
  const std::vector<double>& opt() const { return opt_; }
  const std::vector<int32_t>& policy() const { return policy_; }

  // --- Diagnostics ---
  double solve_seconds = 0.0;
  /// LayerScanKernel backend that ran the joint scans; empty for plans
  /// that predate the kernel layer (e.g. deserialized).
  std::string kernel_backend;

 private:
  MultiTypePlan(MultiTypeProblem problem, std::vector<double> interval_lambdas,
                bool with_opt);

  MultiTypeProblem problem_;
  std::vector<double> interval_lambdas_;
  std::vector<double> opt_;
  std::vector<int32_t> policy_;
};

struct MultiTypeOptions {
  /// LayerScanKernel backend for the joint DP's inner loops; empty selects
  /// $CROWDPRICE_KERNEL or the fastest available (see pricing::DpOptions).
  std::string kernel_backend;
};

/// Backward-induction solve (the §6 DP over the vector state space). The
/// per-interval transition is factored through the kernel layer: one
/// collapsed correlation per (pair, type-1 row) instead of the historical
/// O(s0^2) per-state double sum, dropping a factor of ~s0 of work.
Result<MultiTypePlan> SolveMultiType(
    const MultiTypeProblem& problem,
    const std::vector<double>& interval_lambdas,
    const JointLogitAcceptance& acceptance,
    const MultiTypeOptions& options = {});

/// Nominal forecast of playing a MultiTypePlan against the marketplace it
/// was solved for (the multi-type analogue of EvaluatePolicyNominal).
struct MultiTypeEvaluation {
  /// Expected reward outlay, cents (no penalties).
  double expected_cost_cents = 0.0;
  double expected_penalty_cents = 0.0;
  std::vector<double> expected_completed;  ///< Per type.
  std::vector<double> expected_remaining;  ///< Per type, at the deadline.
};

/// Forward-propagates the joint state distribution under the plan's policy
/// with the same truncated-Poisson transition model the solver used.
Result<MultiTypeEvaluation> EvaluateMultiTypeNominal(
    const MultiTypePlan& plan, const JointLogitAcceptance& acceptance);

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_MULTITYPE_H_
