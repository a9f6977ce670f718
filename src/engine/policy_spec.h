// PolicySpec: one tagged configuration for every pricing policy the paper
// develops, consumed by Engine::Solve.
//
// The library exposes five solver families (deadline MDP §3, budget-static
// §4, the fixed-price baseline of §5.2, the adaptive re-planner of §5.2.5,
// and the §6 extensions). Before the engine existed each caller wired the
// family it wanted by hand; a PolicySpec names the family (PolicyKind) plus
// its options, so callers describe *what* policy they want and
// Engine::Solve picks *how* to produce it.
//
// Acceptance functions are held by const pointer and are NOT owned: the
// caller keeps the AcceptanceFunction alive until Solve returns (specs are
// transient descriptions, not persisted objects).

#ifndef CROWDPRICE_ENGINE_POLICY_SPEC_H_
#define CROWDPRICE_ENGINE_POLICY_SPEC_H_

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "choice/acceptance.h"
#include "pricing/action.h"
#include "pricing/adaptive.h"
#include "pricing/deadline_dp.h"
#include "pricing/multitype.h"
#include "pricing/penalty_search.h"
#include "pricing/problem.h"

namespace crowdprice::engine {

/// The solver family a spec selects. Values index the PolicySpec variant.
enum class PolicyKind {
  kDeadlineDp = 0,
  kBudgetStatic = 1,
  kFixedPrice = 2,
  kAdaptive = 3,
  kMultiType = 4,
  kTradeoff = 5,
};

/// Human-readable kind name ("deadline-dp", "budget-static", ...); stable,
/// used by the artifact serialization format.
const char* KindName(PolicyKind kind);

/// Deadline MDP (§3): Algorithm 1 or 2, either at a fixed penalty or --
/// when `expected_remaining_bound` is set -- through the Theorem 2 penalty
/// bisection to hit an E[remaining] target.
struct DeadlineDpSpec {
  enum class Algorithm {
    kSimple,   ///< Algorithm 1; required for bundled (multi-task HIT) actions.
    kImproved  ///< Algorithm 2 monotone search; unit-bundle action sets only.
  };

  pricing::DeadlineProblem problem;
  std::vector<double> interval_lambdas;
  /// Required. Optional only so the struct stays aggregate-constructible;
  /// Solve rejects a spec without it.
  std::optional<pricing::ActionSet> actions;
  Algorithm algorithm = Algorithm::kImproved;
  pricing::DpOptions dp_options;
  /// When set, problem.penalty_cents is ignored and the penalty is found by
  /// bisection so the optimal policy satisfies E[remaining] <= bound; the
  /// artifact then also carries the nominal PolicyEvaluation. The bisection's
  /// inner solves use `algorithm` too.
  std::optional<double> expected_remaining_bound;
  /// dp_options and use_simple_dp are overwritten from the fields above.
  pricing::BoundSolveOptions bound_options;
};

/// Budget-constrained static pricing (§4): the Algorithm 3 rounded LP or
/// the Theorem 6 pseudo-polynomial exact DP.
struct BudgetStaticSpec {
  enum class Method { kLp, kExactDp };

  int64_t num_tasks = 0;
  double budget_cents = 0.0;
  /// Not owned; must outlive the Solve call.
  const choice::AcceptanceFunction* acceptance = nullptr;
  int max_price_cents = 0;
  Method method = Method::kLp;
};

/// Single fixed price chosen up-front by binary search (§5.2 baselines).
struct FixedPriceSpec {
  enum class Criterion {
    kExpectedCompletion,  ///< smallest c with E[completions] >= N
    kQuantile,            ///< smallest c with Pr[finish] >= threshold
    kExpectedRemaining    ///< smallest c with E[remaining] <= threshold
  };

  int num_tasks = 0;
  std::vector<double> interval_lambdas;
  /// Not owned; must outlive the Solve call.
  const choice::AcceptanceFunction* acceptance = nullptr;
  int max_price_cents = 0;
  Criterion criterion = Criterion::kQuantile;
  /// Confidence for kQuantile, bound for kExpectedRemaining; ignored by
  /// kExpectedCompletion.
  double threshold = 0.999;
};

/// The §5.2.5 adaptive re-planner. Solving an adaptive spec validates it
/// and packages the belief; building a controller solves the initial plan,
/// and the controller re-plans inside Decide as the campaign runs.
struct AdaptiveSpec {
  pricing::DeadlineProblem problem;
  std::vector<double> believed_lambdas;
  /// Required (see DeadlineDpSpec::actions).
  std::optional<pricing::ActionSet> actions;
  double horizon_hours = 0.0;
  pricing::AdaptiveOptions options;
};

/// Two task types competing for the same workers (§6).
struct MultiTypeSpec {
  pricing::MultiTypeProblem problem;
  std::vector<double> interval_lambdas;
  /// Joint conditional-logit parameters (JointLogitAcceptance::Create).
  double s1 = 0.0, b1 = 0.0, s2 = 0.0, b2 = 0.0, m = 0.0;
  /// Kernel backend for the joint DP (see pricing::DpOptions; the
  /// deadline/adaptive kinds carry theirs inside dp_options). Empty =
  /// automatic selection.
  std::string kernel_backend;
};

/// Cost/latency tradeoff with neither deadline nor budget (§6).
struct TradeoffSpec {
  enum class Model {
    kWorkerArrival,  ///< E[T] = E[W] / lambda-bar; rate = workers per hour
    kFixedRate       ///< per-interval MDP; rate = expected arrivals/interval
  };

  Model model = Model::kWorkerArrival;
  double rate = 0.0;
  /// Not owned; must outlive the Solve call.
  const choice::AcceptanceFunction* acceptance = nullptr;
  /// Cents per task-hour (kWorkerArrival) or per task-interval (kFixedRate).
  double alpha = 0.0;
  int max_price_cents = 0;
  /// kFixedRate only: tolerated Pr[>= 2 completions per interval].
  double two_completion_tolerance = 0.25;
};

/// The tagged union handed to Engine::Solve.
class PolicySpec {
 public:
  using Config = std::variant<DeadlineDpSpec, BudgetStaticSpec, FixedPriceSpec,
                              AdaptiveSpec, MultiTypeSpec, TradeoffSpec>;

  PolicySpec(DeadlineDpSpec spec) : config_(std::move(spec)) {}     // NOLINT
  PolicySpec(BudgetStaticSpec spec) : config_(std::move(spec)) {}   // NOLINT
  PolicySpec(FixedPriceSpec spec) : config_(std::move(spec)) {}     // NOLINT
  PolicySpec(AdaptiveSpec spec) : config_(std::move(spec)) {}       // NOLINT
  PolicySpec(MultiTypeSpec spec) : config_(std::move(spec)) {}      // NOLINT
  PolicySpec(TradeoffSpec spec) : config_(std::move(spec)) {}       // NOLINT

  PolicyKind kind() const { return static_cast<PolicyKind>(config_.index()); }

  template <typename T>
  const T& get() const { return std::get<T>(config_); }

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace crowdprice::engine

#endif  // CROWDPRICE_ENGINE_POLICY_SPEC_H_
