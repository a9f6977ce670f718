#include "pricing/multitype.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "pricing/problem.h"
#include "stats/poisson.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::pricing {

Result<JointLogitAcceptance> JointLogitAcceptance::Create(double s1, double b1,
                                                          double s2, double b2,
                                                          double m) {
  if (!(s1 > 0.0) || !(s2 > 0.0)) {
    return Status::InvalidArgument("joint logit scales must be > 0");
  }
  if (!(m > 0.0)) {
    return Status::InvalidArgument("joint logit m must be > 0");
  }
  if (!std::isfinite(b1) || !std::isfinite(b2)) {
    return Status::InvalidArgument("joint logit biases must be finite");
  }
  return JointLogitAcceptance(s1, b1, s2, b2, m);
}

std::pair<double, double> JointLogitAcceptance::ProbabilitiesAt(
    double c1_cents, double c2_cents) const {
  const double z1 = c1_cents / s1_ - b1_;
  const double z2 = c2_cents / s2_ - b2_;
  // Shift by the max exponent for stability; ln(m) joins the competition.
  const double zm = std::log(m_);
  const double shift = std::max({z1, z2, zm});
  const double e1 = std::exp(z1 - shift);
  const double e2 = std::exp(z2 - shift);
  const double em = std::exp(zm - shift);
  const double denom = e1 + e2 + em;
  return {e1 / denom, e2 / denom};
}

Status MultiTypeProblem::Validate() const {
  if (num_tasks_1 < 0 || num_tasks_2 < 0 ||
      (num_tasks_1 == 0 && num_tasks_2 == 0)) {
    return Status::InvalidArgument("need n1, n2 >= 0 with n1 + n2 >= 1");
  }
  if (num_intervals < 1) {
    return Status::InvalidArgument("num_intervals must be >= 1");
  }
  if (!(penalty_1_cents >= 0.0) || !(penalty_2_cents >= 0.0)) {
    return Status::InvalidArgument("penalties must be >= 0");
  }
  if (max_price_cents < 0 || max_price_cents >= 4096) {
    return Status::InvalidArgument("max_price_cents must be in [0, 4095]");
  }
  if (price_stride < 1) {
    return Status::InvalidArgument("price_stride must be >= 1");
  }
  if (!(truncation_epsilon > 0.0 && truncation_epsilon < 1.0)) {
    return Status::InvalidArgument("truncation_epsilon must be in (0, 1)");
  }
  // A layer of at most 2^31 x 2^31 states fits int64_t; the product with
  // NT+1 might not, so the cap is divided instead.
  const int64_t layer = (int64_t{num_tasks_1} + 1) * (int64_t{num_tasks_2} + 1);
  if (layer > kMaxPlanStates / (int64_t{num_intervals} + 1)) {
    return Status::InvalidArgument(
        StringF("implausible multitype dimensions: %d x %d x %d states",
                num_tasks_1, num_tasks_2, num_intervals));
  }
  return Status::OK();
}

MultiTypePlan::MultiTypePlan(MultiTypeProblem problem,
                             std::vector<double> interval_lambdas)
    : MultiTypePlan(problem, std::move(interval_lambdas), /*with_opt=*/true) {}

MultiTypePlan MultiTypePlan::PolicyOnly(MultiTypeProblem problem,
                                        std::vector<double> interval_lambdas) {
  return MultiTypePlan(problem, std::move(interval_lambdas),
                       /*with_opt=*/false);
}

MultiTypePlan::MultiTypePlan(MultiTypeProblem problem,
                             std::vector<double> interval_lambdas,
                             bool with_opt)
    : problem_(problem), interval_lambdas_(std::move(interval_lambdas)) {
  const size_t states = states_per_layer();
  policy_.assign(states * static_cast<size_t>(problem_.num_intervals), -1);
  if (!with_opt) return;
  opt_.assign(states * static_cast<size_t>(problem_.num_intervals + 1), 0.0);
  for (int n1 = 0; n1 <= problem_.num_tasks_1; ++n1) {
    for (int n2 = 0; n2 <= problem_.num_tasks_2; ++n2) {
      opt_[StateIndex(n1, n2, problem_.num_intervals)] =
          n1 * problem_.penalty_1_cents + n2 * problem_.penalty_2_cents;
    }
  }
}

size_t MultiTypePlan::StateIndex(int n1, int n2, int t) const {
  const size_t n2_span = static_cast<size_t>(problem_.num_tasks_2) + 1;
  return static_cast<size_t>(t) * states_per_layer() +
         static_cast<size_t>(n1) * n2_span + static_cast<size_t>(n2);
}

size_t MultiTypePlan::PolicyIndex(int n1, int n2, int t) const {
  return StateIndex(n1, n2, t);
}

Result<std::pair<int, int>> MultiTypePlan::PricesAt(int n1, int n2,
                                                    int t) const {
  if (n1 < 0 || n1 > problem_.num_tasks_1 || n2 < 0 ||
      n2 > problem_.num_tasks_2) {
    return Status::OutOfRange("state out of range");
  }
  if (t < 0 || t >= problem_.num_intervals) {
    return Status::OutOfRange("t out of range");
  }
  if (n1 + n2 == 0) {
    return Status::InvalidArgument("no action at the completed state");
  }
  const int32_t packed = policy_[PolicyIndex(n1, n2, t)];
  if (packed < 0) {
    return Status::FailedPrecondition("state was never solved");
  }
  return std::pair<int, int>(packed / 4096, packed % 4096);
}

Result<double> MultiTypePlan::OptAt(int n1, int n2, int t) const {
  if (n1 < 0 || n1 > problem_.num_tasks_1 || n2 < 0 ||
      n2 > problem_.num_tasks_2) {
    return Status::OutOfRange("state out of range");
  }
  if (t < 0 || t > problem_.num_intervals) {
    return Status::OutOfRange("t out of range");
  }
  if (opt_.empty()) {
    return Status::FailedPrecondition("decoded plans carry the policy only");
  }
  return opt_[StateIndex(n1, n2, t)];
}

double MultiTypePlan::TotalObjective() const {
  if (opt_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return opt_[StateIndex(problem_.num_tasks_1, problem_.num_tasks_2, 0)];
}

namespace {

// Distribution over completed-task counts d in {0..n} for one type, with the
// Poisson tail (and counts beyond n) lumped into d = n.
void CollapseTail(const stats::TruncatedPoisson& tp, int n,
                  std::vector<double>* out) {
  out->assign(static_cast<size_t>(n) + 1, 0.0);
  double cum = 0.0;
  for (int k = 0; k < static_cast<int>(tp.pmf.size()) && k < n; ++k) {
    (*out)[static_cast<size_t>(k)] = tp.pmf[static_cast<size_t>(k)];
    cum += tp.pmf[static_cast<size_t>(k)];
  }
  (*out)[static_cast<size_t>(n)] = std::max(0.0, 1.0 - cum);
}

}  // namespace

Result<MultiTypePlan> SolveMultiType(
    const MultiTypeProblem& problem,
    const std::vector<double>& interval_lambdas,
    const JointLogitAcceptance& acceptance,
    const MultiTypeOptions& options) {
  CP_RETURN_IF_ERROR(problem.Validate());
  if (interval_lambdas.size() != static_cast<size_t>(problem.num_intervals)) {
    return Status::InvalidArgument(
        StringF("interval_lambdas has %zu entries; problem has %d intervals",
                interval_lambdas.size(), problem.num_intervals));
  }
  for (size_t t = 0; t < interval_lambdas.size(); ++t) {
    if (!(interval_lambdas[t] >= 0.0) || !std::isfinite(interval_lambdas[t])) {
      return Status::InvalidArgument(
          StringF("interval_lambdas[%zu] = %g invalid", t,
                  interval_lambdas[t]));
    }
  }
  CP_ASSIGN_OR_RETURN(
      const kernel::LayerScanKernel* kern,
      kernel::KernelRegistry::Global().Resolve(options.kernel_backend));
  const auto start = std::chrono::steady_clock::now();
  MultiTypePlan plan(problem, interval_lambdas);

  // Strided price grid and the joint pick probabilities per price pair.
  std::vector<int> grid;
  for (int c = 0; c <= problem.max_price_cents; c += problem.price_stride) {
    grid.push_back(c);
  }
  const size_t g = grid.size();
  std::vector<std::pair<double, double>> probs(g * g);
  for (size_t i = 0; i < g; ++i) {
    for (size_t j = 0; j < g; ++j) {
      probs[i * g + j] = acceptance.ProbabilitiesAt(
          static_cast<double>(grid[i]), static_cast<double>(grid[j]));
    }
  }

  const int num_tasks_1 = problem.num_tasks_1;
  const int num_tasks_2 = problem.num_tasks_2;
  const size_t row = static_cast<size_t>(num_tasks_2) + 1;  // one n2 row
  const size_t states = plan.states_per_layer();
  const int m = num_tasks_2;  // last n2 index

  // Scratch reused across (t, pair): w2[r][n2] is the expected next-layer
  // value after the type-2 transition when type-1 has r tasks left, and
  // tmp completes the type-1 transition for one n1 row.
  std::vector<double> w2(states);
  std::vector<double> tmp(row);
  std::vector<double> e2(row);  // expected type-2 payout per n2
  std::vector<double> rates;
  rates.reserve(g * g * 2);

  for (int t = problem.num_intervals - 1; t >= 0; --t) {
    // One aligned arena per interval -- the same table lifetime the
    // per-layer tables had before the kernel refactor, so peak memory
    // does not scale with num_intervals on time-varying traces. Within
    // the layer, coincident split rates still share tables via the
    // quantized-rate dedup.
    const double lambda_t = interval_lambdas[static_cast<size_t>(t)];
    rates.clear();
    for (const auto& [p1, p2] : probs) {
      rates.push_back(lambda_t * p1);
      rates.push_back(lambda_t * p2);
    }
    CP_ASSIGN_OR_RETURN(
        kernel::PmfArena arena,
        kernel::PmfArena::Build(rates, problem.truncation_epsilon));
    const double* opt_next = plan.OptLayer(t + 1);
    double* opt_row = plan.MutableOptLayer(t);
    int32_t* pol_row = plan.MutablePolicyLayer(t);
    // Argmin accumulators: every solvable state starts at +inf / -1 and
    // the pair scans MinCombine into them.
    std::fill(opt_row, opt_row + states,
              std::numeric_limits<double>::infinity());
    std::fill(pol_row, pol_row + states, -1);

    for (size_t i = 0; i < g; ++i) {
      for (size_t j = 0; j < g; ++j) {
        const size_t pair = i * g + j;
        const kernel::PmfView v1 = arena.View(arena.TableOf(pair * 2));
        const kernel::PmfView v2 = arena.View(arena.TableOf(pair * 2 + 1));
        const double c1 = static_cast<double>(grid[i]);
        const double c2 = static_cast<double>(grid[j]);
        const int32_t packed = static_cast<int32_t>(grid[i] * 4096 + grid[j]);

        // Expected type-2 payout at each n2: completions beyond n2 pay for
        // exactly n2 tasks (the collapsed lump).
        for (int n2 = 0; n2 <= m; ++n2) {
          const int kn2 = std::min(n2, v2.len);
          const double lump2 = std::max(0.0, 1.0 - v2.prefix_mass[kn2]);
          e2[static_cast<size_t>(n2)] =
              c2 * (v2.prefix_weighted[kn2] + lump2 * n2);
        }
        // Type-2 transition applied to every next-layer row.
        for (int r = 0; r <= num_tasks_1; ++r) {
          kern->CollapseCorrelate(v2, opt_next + static_cast<size_t>(r) * row,
                                  m, w2.data() + static_cast<size_t>(r) * row);
        }
        // Type-1 transition: mix the w2 rows reachable from n1, add the
        // payout terms, and fold into the per-state argmin.
        for (int n1 = 0; n1 <= num_tasks_1; ++n1) {
          const int kn1 = std::min(n1, v1.len);
          const double lump1 = std::max(0.0, 1.0 - v1.prefix_mass[kn1]);
          std::fill(tmp.begin(), tmp.end(), 0.0);
          for (int d1 = 0; d1 < kn1; ++d1) {
            kern->Axpy(v1.pmf[d1],
                       w2.data() + static_cast<size_t>(n1 - d1) * row,
                       tmp.data(), static_cast<int>(row));
          }
          kern->Axpy(lump1, w2.data(), tmp.data(), static_cast<int>(row));
          const double e1 = c1 * (v1.prefix_weighted[kn1] + lump1 * n1);
          double* best = opt_row + static_cast<size_t>(n1) * row;
          int32_t* best_arg = pol_row + static_cast<size_t>(n1) * row;
          if (n1 == 0) {
            // (0, 0) has no decision; start the scan at n2 = 1.
            if (m >= 1) {
              kern->MinCombine(tmp.data() + 1, e2.data() + 1, e1, packed, m,
                               best + 1, best_arg + 1);
            }
          } else {
            kern->MinCombine(tmp.data(), e2.data(), e1, packed,
                             static_cast<int>(row), best, best_arg);
          }
        }
      }
    }
    // The completed state is absorbing: zero cost-to-go, no action.
    opt_row[0] = 0.0;
    pol_row[0] = -1;
  }
  plan.kernel_backend = kern->name();
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return plan;
}

Result<MultiTypeEvaluation> EvaluateMultiTypeNominal(
    const MultiTypePlan& plan, const JointLogitAcceptance& acceptance) {
  const MultiTypeProblem& p = plan.problem();
  const size_t n2_span = static_cast<size_t>(p.num_tasks_2) + 1;
  auto at = [n2_span](int n1, int n2) {
    return static_cast<size_t>(n1) * n2_span + static_cast<size_t>(n2);
  };

  std::vector<double> dist(
      (static_cast<size_t>(p.num_tasks_1) + 1) * n2_span, 0.0);
  std::vector<double> next(dist.size(), 0.0);
  dist[at(p.num_tasks_1, p.num_tasks_2)] = 1.0;

  MultiTypeEvaluation eval;
  eval.expected_completed.assign(2, 0.0);
  eval.expected_remaining.assign(2, 0.0);

  struct PairTables {
    stats::TruncatedPoisson tp1, tp2;
  };
  std::vector<double> d1_dist, d2_dist;
  for (int t = 0; t < p.num_intervals; ++t) {
    const double lambda_t =
        plan.interval_lambdas()[static_cast<size_t>(t)];
    // The per-interval transition tables depend only on the price pair;
    // memoize them across states.
    std::unordered_map<int32_t, PairTables> tables;
    std::fill(next.begin(), next.end(), 0.0);
    for (int n1 = 0; n1 <= p.num_tasks_1; ++n1) {
      for (int n2 = 0; n2 <= p.num_tasks_2; ++n2) {
        const double q = dist[at(n1, n2)];
        if (q <= 0.0) continue;
        if (n1 + n2 == 0) {
          next[at(0, 0)] += q;  // absorbing: the batch is done
          continue;
        }
        CP_ASSIGN_OR_RETURN(auto prices, plan.PricesAt(n1, n2, t));
        const int32_t packed =
            static_cast<int32_t>(prices.first * 4096 + prices.second);
        auto it = tables.find(packed);
        if (it == tables.end()) {
          auto [p1, p2] = acceptance.ProbabilitiesAt(
              static_cast<double>(prices.first),
              static_cast<double>(prices.second));
          PairTables pt;
          CP_ASSIGN_OR_RETURN(
              pt.tp1, stats::MakeTruncatedPoisson(lambda_t * p1,
                                                  p.truncation_epsilon));
          CP_ASSIGN_OR_RETURN(
              pt.tp2, stats::MakeTruncatedPoisson(lambda_t * p2,
                                                  p.truncation_epsilon));
          it = tables.emplace(packed, std::move(pt)).first;
        }
        CollapseTail(it->second.tp1, n1, &d1_dist);
        CollapseTail(it->second.tp2, n2, &d2_dist);
        for (int d1 = 0; d1 <= n1; ++d1) {
          const double q1 = d1_dist[static_cast<size_t>(d1)];
          if (q1 <= 0.0) continue;
          for (int d2 = 0; d2 <= n2; ++d2) {
            const double q2 = d2_dist[static_cast<size_t>(d2)];
            if (q2 <= 0.0) continue;
            const double w = q * q1 * q2;
            next[at(n1 - d1, n2 - d2)] += w;
            eval.expected_cost_cents +=
                w * (static_cast<double>(prices.first) * d1 +
                     static_cast<double>(prices.second) * d2);
            eval.expected_completed[0] += w * d1;
            eval.expected_completed[1] += w * d2;
          }
        }
      }
    }
    dist.swap(next);
  }

  for (int n1 = 0; n1 <= p.num_tasks_1; ++n1) {
    for (int n2 = 0; n2 <= p.num_tasks_2; ++n2) {
      const double q = dist[at(n1, n2)];
      if (q <= 0.0) continue;
      eval.expected_remaining[0] += q * n1;
      eval.expected_remaining[1] += q * n2;
      eval.expected_penalty_cents +=
          q * (n1 * p.penalty_1_cents + n2 * p.penalty_2_cents);
    }
  }
  return eval;
}

}  // namespace crowdprice::pricing
