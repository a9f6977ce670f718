// crowdprice_cli: solve pricing problems from the command line.
//
//   crowdprice_cli deadline --tasks 200 --hours 24 --intervals 72
//       --rate 5083 --max-price 50 --bound 0.5 [--out plan.txt]
//   crowdprice_cli budget   --tasks 200 --budget 2500 --rate 5083
//       --max-price 50
//   crowdprice_cli tradeoff --alpha 32 --rate 5083 --max-price 60
//   crowdprice_cli fleet    --campaigns 500 --shards 8 --tasks 40
//       --hours 8 --rate 400 --max-price 50 [--bound 0.5] [--seed 7]
//       [--arrive-over 12] [--retire-frac 0.1] [--shards-sweep]
//   crowdprice_cli multitype --tasks1 15 --tasks2 15 --hours 8
//       --rate 80 --max-price 30 [--replicates 50] [--out plan.txt]
//   crowdprice_cli solve --wave campaigns.txt [--threads K] [--evaluate]
//   crowdprice_cli solvers
//
// Every policy is produced through engine::Solve; the CLI only builds the
// PolicySpec and formats the artifact. `fleet` additionally runs the
// sharded serving layer: it admits N copies of the solved campaign into a
// market::FleetSimulator and plays them all against one shared arrival
// stream, reporting aggregate outcomes and per-shard serving stats. With
// --arrive-over H the marketplace is open: admissions spread over the
// first H hours (streaming admission at bucket edges while earlier
// campaigns are in flight), and --retire-frac F pulls that fraction of
// the fleet mid-run one hour after each victim's admission.
// `solve` is the batch entry to the solve farm: each non-comment line of
// the --wave file is one deadline campaign "tasks hours rate [penalty]"
// (penalty omitted = bound mode at E[remaining] <= 0.5), and the whole
// file is solved as one engine::SolveWave over a ThreadPool, sharing
// truncated-Poisson blocks across campaigns via the process-wide
// PmfShareCache.
// `multitype` solves the §6 joint two-type policy, plays it through the
// OfferSheet decision surface (MakeController + RunMultiTypeSimulation)
// and compares simulated per-type completions to the plan's nominal
// prediction. The acceptance model defaults to the paper's Eq. 13 logit
// (s=15, b=-0.39, M=2000); override with --accept-s/--accept-b/--accept-m
// (single-type) or --s1/--b1/--s2/--b2/--m (joint).
// Numeric flags are read whole, as their type: a value that does not parse
// (--rate soon) or does not fit (--tasks 1e12) prints "bad flag value".
// Exit code 0 on success, 1 on user error, 2 on solver failure.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crowdprice.h"
#include "util/hexfloat.h"

using namespace crowdprice;

namespace {

// A numeric flag whose value does not parse, or does not fit the type it
// is read into, is a user error: it ends the run before anything is solved.
[[noreturn]] void BadFlagValue(const std::string& key,
                               const std::string& value) {
  std::cerr << "crowdprice_cli: bad flag value --" << key << " '" << value
            << "'\n";
  std::exit(1);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }

  /// The flag as a finite double, or `fallback` when it is absent.
  double Num(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const Result<double> value = ParseDouble(it->second, key.c_str());
    if (!value.ok() || !std::isfinite(*value)) BadFlagValue(key, it->second);
    return *value;
  }

  /// The flag as a base-10 T, or `fallback` when it is absent.
  template <typename T>
  T Int(const std::string& key, T fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const Result<T> value = ParseInt<T>(it->second, key.c_str());
    if (!value.ok()) BadFlagValue(key, it->second);
    return *value;
  }

  std::string Str(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

int Usage() {
  std::cerr <<
      "usage:\n"
      "  crowdprice_cli deadline --tasks N --hours T [--intervals NT]\n"
      "      [--rate workers_per_hour] [--max-price C] [--bound E]\n"
      "      [--penalty P] [--out plan.txt]\n"
      "  crowdprice_cli budget --tasks N --budget CENTS\n"
      "      [--rate workers_per_hour] [--max-price C]\n"
      "  crowdprice_cli tradeoff --alpha CENTS_PER_HOUR\n"
      "      [--rate workers_per_hour] [--max-price C]\n"
      "  crowdprice_cli fleet --campaigns M [--shards S] [--tasks N]\n"
      "      [--hours T] [--rate workers_per_hour] [--max-price C]\n"
      "      [--bound E] [--seed K] [--arrive-over H] [--retire-frac F]\n"
      "      [--shards-sweep]  (replay the same schedule at shard counts\n"
      "      1,2,4,8,16,32 and print the decides/sec scaling curve)\n"
      "  crowdprice_cli multitype --tasks1 N1 --tasks2 N2 --hours T\n"
      "      [--rate workers_per_hour] [--max-price C] [--stride S]\n"
      "      [--penalty1 P] [--penalty2 P] [--replicates R] [--seed K]\n"
      "      [--out plan.txt]\n"
      "  crowdprice_cli solve --wave FILE [--threads K] [--max-price C]\n"
      "      [--intervals-per-hour R] [--evaluate]  (batch-solve one\n"
      "      deadline campaign per line \"tasks hours rate [penalty]\"\n"
      "      through the solve farm; --evaluate also scores each policy)\n"
      "  crowdprice_cli solvers\n"
      "  crowdprice_cli kernels\n"
      "common acceptance overrides: --accept-s --accept-b --accept-m\n"
      "joint (multitype) overrides: --s1 --b1 --s2 --b2 --m\n"
      "kernel backend override (deadline/fleet/multitype): --kernel NAME\n"
      "  (also via CROWDPRICE_KERNEL; `kernels` lists what is available)\n";
  return 1;
}

// Flags that take no value; their presence alone sets them.
bool IsBooleanFlag(const std::string& flag) {
  return flag == "shards-sweep" || flag == "evaluate";
}

Result<Args> Parse(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return Status::InvalidArgument(StringF("unexpected token '%s'", flag.c_str()));
    }
    flag = flag.substr(2);
    if (IsBooleanFlag(flag)) {
      args.flags[flag] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(StringF("flag --%s needs a value", flag.c_str()));
    }
    args.flags[flag] = argv[++i];
  }
  return args;
}

// `hours * per_hour` decision intervals, at least one, and clamped so the
// conversion to int is defined however long the horizon.
int IntervalsFor(double hours, double per_hour) {
  return static_cast<int>(
      std::clamp(hours * per_hour, 1.0,
                 static_cast<double>(std::numeric_limits<int>::max())));
}

Result<choice::LogitAcceptance> Acceptance(const Args& args) {
  return choice::LogitAcceptance::Create(args.Num("accept-s", 15.0),
                                         args.Num("accept-b", -0.39),
                                         args.Num("accept-m", 2000.0));
}

int RunDeadline(const Args& args) {
  const int tasks = args.Int("tasks", 0);
  const double hours = args.Num("hours", 0.0);
  const int intervals = args.Int("intervals", IntervalsFor(hours, 3.0));
  const double rate = args.Num("rate", 5083.0);
  const int max_price = args.Int("max-price", 50);
  const double penalty = args.Num("penalty", 0.0);
  const double bound = args.Num("bound", 0.5);
  if (tasks < 1 || hours <= 0.0) {
    std::cerr << "deadline requires --tasks >= 1 and --hours > 0\n";
    return 1;
  }
  auto acceptance = Acceptance(args);
  if (!acceptance.ok()) {
    std::cerr << acceptance.status() << "\n";
    return 1;
  }
  auto actions = pricing::ActionSet::FromPriceGrid(max_price, *acceptance);
  if (!actions.ok()) {
    std::cerr << actions.status() << "\n";
    return 2;
  }

  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = tasks;
  spec.problem.num_intervals = intervals;
  spec.interval_lambdas.assign(static_cast<size_t>(intervals),
                               rate * hours / intervals);
  spec.actions = std::move(actions).value();
  spec.dp_options.kernel_backend = args.Str("kernel", "");
  if (args.Has("penalty")) {
    spec.problem.penalty_cents = penalty;
  } else {
    spec.expected_remaining_bound = bound;
  }

  auto artifact = engine::Solve(spec);
  if (!artifact.ok()) {
    std::cerr << artifact.status() << "\n";
    return 2;
  }
  auto eval = artifact->Evaluate();
  if (!eval.ok()) {
    std::cerr << eval.status() << "\n";
    return 2;
  }
  auto plan_ptr = artifact->deadline_plan();
  if (!plan_ptr.ok()) {
    std::cerr << plan_ptr.status() << "\n";
    return 2;
  }
  const pricing::DeadlinePlan& plan = **plan_ptr;

  std::cout << StringF("opening price:        %.0f cents\n",
                       plan.PriceAt(tasks, 0).value_or(-1));
  std::cout << StringF("expected total cost:  %.0f cents\n",
                       eval->expected_cost_cents);
  std::cout << StringF("avg reward per task:  %.2f cents\n",
                       eval->average_reward_per_task);
  std::cout << StringF("E[unfinished]:        %.3f of %d\n",
                       eval->expected_remaining, tasks);
  std::cout << StringF("Pr[all done]:         %.4f\n", 1.0 - eval->prob_unfinished);
  std::cout << StringF("penalty used:         %.1f cents/task\n",
                       artifact->penalty_used());

  Table schedule({"interval", "price @ full backlog", "price @ half",
                  "price @ 10% left"});
  for (int t = 0; t < intervals; t += std::max(1, intervals / 8)) {
    (void)schedule.AddRow(
        {StringF("%d", t),
         StringF("%.0f", plan.PriceAt(tasks, t).value_or(-1)),
         StringF("%.0f", plan.PriceAt(std::max(1, tasks / 2), t).value_or(-1)),
         StringF("%.0f", plan.PriceAt(std::max(1, tasks / 10), t).value_or(-1))});
  }
  std::cout << "\n";
  schedule.Print(std::cout);

  if (args.Has("out")) {
    auto serialized = artifact->Serialize();
    if (!serialized.ok()) {
      std::cerr << serialized.status() << "\n";
      return 2;
    }
    std::ofstream out(args.Str("out", ""));
    out << *serialized;
    if (!out.good()) {
      std::cerr << "failed to write " << args.Str("out", "") << "\n";
      return 2;
    }
    std::cout << "\nartifact written to " << args.Str("out", "") << "\n";
  }
  return 0;
}

int RunBudget(const Args& args) {
  const int64_t tasks = args.Int<int64_t>("tasks", 0);
  const double budget = args.Num("budget", -1.0);
  const double rate = args.Num("rate", 5083.0);
  const int max_price = args.Int("max-price", 50);
  if (tasks < 1 || budget < 0.0) {
    std::cerr << "budget requires --tasks >= 1 and --budget >= 0 (cents)\n";
    return 1;
  }
  auto acceptance = Acceptance(args);
  if (!acceptance.ok()) {
    std::cerr << acceptance.status() << "\n";
    return 1;
  }

  engine::BudgetStaticSpec spec;
  spec.num_tasks = tasks;
  spec.budget_cents = budget;
  spec.acceptance = &*acceptance;
  spec.max_price_cents = max_price;
  auto artifact = engine::Solve(spec);
  if (!artifact.ok()) {
    std::cerr << artifact.status() << "\n";
    return 2;
  }
  auto assignment = artifact->budget_assignment();
  if (!assignment.ok()) {
    std::cerr << assignment.status() << "\n";
    return 2;
  }
  std::cout << "static price assignment (Algorithm 3):\n";
  for (const auto& alloc : (*assignment)->allocations) {
    std::cout << StringF("  %lld tasks at %d cents\n",
                         static_cast<long long>(alloc.count), alloc.price_cents);
  }
  std::cout << StringF("committed budget:     %.0f of %.0f cents\n",
                       (*assignment)->total_cost_cents, budget);
  std::cout << StringF("E[worker arrivals]:   %.0f\n",
                       (*assignment)->expected_worker_arrivals);
  auto latency = (*assignment)->ExpectedLatencyHours(rate);
  if (latency.ok()) {
    std::cout << StringF("E[completion time]:   %.1f hours at %.0f workers/hour\n",
                         *latency, rate);
  }
  return 0;
}

int RunTradeoff(const Args& args) {
  const double alpha = args.Num("alpha", -1.0);
  const double rate = args.Num("rate", 5083.0);
  const int max_price = args.Int("max-price", 60);
  if (alpha < 0.0) {
    std::cerr << "tradeoff requires --alpha >= 0 (cents per task-hour)\n";
    return 1;
  }
  auto acceptance = Acceptance(args);
  if (!acceptance.ok()) {
    std::cerr << acceptance.status() << "\n";
    return 1;
  }

  engine::TradeoffSpec spec;
  spec.rate = rate;
  spec.acceptance = &*acceptance;
  spec.alpha = alpha;
  spec.max_price_cents = max_price;
  auto artifact = engine::Solve(spec);
  if (!artifact.ok()) {
    std::cerr << artifact.status() << "\n";
    return 2;
  }
  auto sol = artifact->tradeoff();
  if (!sol.ok()) {
    std::cerr << sol.status() << "\n";
    return 2;
  }
  std::cout << StringF("optimal price:        %d cents\n", (*sol)->price_cents);
  std::cout << StringF("E[latency per task]:  %.3f hours\n",
                       (*sol)->expected_latency_per_task);
  std::cout << StringF("cost + alpha*latency: %.2f cents/task\n",
                       (*sol)->objective_per_task);
  return 0;
}

int RunFleet(const Args& args) {
  const int campaigns = args.Int("campaigns", 0);
  const int shards = args.Int("shards", 8);
  const int tasks = args.Int("tasks", 40);
  const double hours = args.Num("hours", 8.0);
  const double rate_per_hour = args.Num("rate", 400.0);
  const int max_price = args.Int("max-price", 50);
  const auto seed = args.Int<uint64_t>("seed", 7);
  const double arrive_over = args.Num("arrive-over", 0.0);
  const double retire_frac = args.Num("retire-frac", 0.0);
  const double bound = args.Num("bound", 0.5);
  if (campaigns < 1 || tasks < 1 || hours <= 0.0 || shards < 1) {
    std::cerr << "fleet requires --campaigns >= 1, --tasks >= 1, "
                 "--hours > 0, --shards >= 1\n";
    return 1;
  }
  if (arrive_over < 0.0 || retire_frac < 0.0 || retire_frac > 1.0) {
    std::cerr << "fleet requires --arrive-over >= 0 and --retire-frac in "
                 "[0, 1]\n";
    return 1;
  }
  auto acceptance = Acceptance(args);
  if (!acceptance.ok()) {
    std::cerr << acceptance.status() << "\n";
    return 1;
  }
  auto actions = pricing::ActionSet::FromPriceGrid(max_price, *acceptance);
  if (!actions.ok()) {
    std::cerr << actions.status() << "\n";
    return 2;
  }

  // One deadline policy, played by every campaign in the fleet.
  const int intervals = IntervalsFor(hours, 3.0);
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = tasks;
  spec.problem.num_intervals = intervals;
  spec.interval_lambdas.assign(static_cast<size_t>(intervals),
                               rate_per_hour * hours / intervals);
  spec.actions = std::move(actions).value();
  spec.dp_options.kernel_backend = args.Str("kernel", "");
  spec.expected_remaining_bound = bound;
  auto artifact = engine::Solve(spec);
  if (!artifact.ok()) {
    std::cerr << artifact.status() << "\n";
    return 2;
  }

  auto rate = arrival::PiecewiseConstantRate::Constant(rate_per_hour, 1.0);
  if (!rate.ok()) {
    std::cerr << rate.status() << "\n";
    return 2;
  }
  market::SimulatorConfig sim;
  sim.total_tasks = tasks;
  sim.horizon_hours = hours;
  sim.decision_interval_hours = hours / intervals;
  sim.service_minutes_per_task = 2.0;

  // Every campaign plays the same immutable policy: share one copy of the
  // solved tables across the whole fleet. With --arrive-over the fleet is
  // an open marketplace: admissions land at random bucket edges across the
  // window while earlier campaigns are mid-flight.
  auto shared = std::make_shared<const engine::PolicyArtifact>(
      std::move(*artifact));
  auto build_schedule = [&]() -> Result<market::ArrivalSchedule> {
    Rng master(seed);
    market::ArrivalSchedule schedule;
    for (int i = 0; i < campaigns; ++i) {
      const double admit_at = market::RandomBucketEdge(
          master, arrive_over, rate->bucket_width_hours());
      auto admitted = schedule.AdmitShared(admit_at, shared, sim, *acceptance,
                                           master.Fork());
      if (!admitted.ok()) return admitted.status();
      // Proportional victim pick: pull campaign i iff the running count
      // floor((i+1)*F) advances, so every fleet size retires ~F of its
      // campaigns.
      if (retire_frac > 0.0 &&
          static_cast<int64_t>(static_cast<double>(i + 1) * retire_frac) >
              static_cast<int64_t>(static_cast<double>(i) * retire_frac)) {
        const Status scheduled = schedule.RetireAt(*admitted, admit_at + 1.0);
        if (!scheduled.ok()) return scheduled;
      }
    }
    return schedule;
  };

  if (args.Has("shards-sweep")) {
    // Rebuild the schedule from the same seed at every shard count:
    // identical admission edges and per-campaign RNG streams, so every
    // row must reproduce the same outcomes (the serving layer's
    // serial-equivalence contract) -- only the wall clock may differ.
    std::cout << StringF(
        "shard sweep: %d campaigns, same schedule per shard count\n\n",
        campaigns);
    Table curve({"shards", "decides/sec", "wall s", "finished", "paid cents"});
    for (int sweep_shards : {1, 2, 4, 8, 16, 32}) {
      auto sweep_fleet = market::FleetSimulator::Create(sweep_shards);
      if (!sweep_fleet.ok()) {
        std::cerr << sweep_fleet.status() << "\n";
        return 2;
      }
      auto schedule = build_schedule();
      if (!schedule.ok()) {
        std::cerr << schedule.status() << "\n";
        return 2;
      }
      const auto start = std::chrono::steady_clock::now();
      auto sweep_outcomes =
          sweep_fleet->RunStreaming(*rate, std::move(*schedule));
      if (!sweep_outcomes.ok()) {
        std::cerr << sweep_outcomes.status() << "\n";
        return 2;
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      int64_t finished = 0;
      double total_cost = 0.0;
      for (const auto& outcome : *sweep_outcomes) {
        if (outcome.result.finished) ++finished;
        total_cost += outcome.result.total_cost_cents;
      }
      const auto decides = sweep_fleet->shard_map().TotalStats().decides;
      (void)curve.AddRow(
          {StringF("%d", sweep_shards),
           StringF("%.0f",
                   wall > 0.0 ? static_cast<double>(decides) / wall : 0.0),
           StringF("%.3f", wall), StringF("%lld", (long long)finished),
           StringF("%.0f", total_cost)});
    }
    curve.Print(std::cout);
    std::cout << "\n(identical finished/paid columns across rows are the "
                 "determinism contract at work)\n";
    return 0;
  }

  auto fleet = market::FleetSimulator::Create(shards);
  if (!fleet.ok()) {
    std::cerr << fleet.status() << "\n";
    return 2;
  }
  auto schedule = build_schedule();
  if (!schedule.ok()) {
    std::cerr << schedule.status() << "\n";
    return 2;
  }
  auto outcomes = fleet->RunStreaming(*rate, std::move(*schedule));
  if (!outcomes.ok()) {
    std::cerr << outcomes.status() << "\n";
    return 2;
  }

  int64_t finished = 0;
  int64_t pulled = 0;
  double total_cost = 0.0;
  int64_t total_assigned = 0;
  for (const auto& outcome : *outcomes) {
    if (outcome.result.finished) ++finished;
    if (outcome.final_state == serving::CampaignState::kRetiredExplicit) {
      ++pulled;
    }
    total_cost += outcome.result.total_cost_cents;
    total_assigned += outcome.result.tasks_assigned;
  }
  std::cout << StringF("fleet of %d campaigns on %d shard(s):\n", campaigns,
                       fleet->shard_map().num_shards());
  std::cout << StringF("  finished by deadline: %lld / %d\n",
                       static_cast<long long>(finished), campaigns);
  if (pulled > 0) {
    std::cout << StringF("  pulled mid-run:       %lld\n",
                         static_cast<long long>(pulled));
  }
  std::cout << StringF("  tasks assigned:       %lld of %lld\n",
                       static_cast<long long>(total_assigned),
                       static_cast<long long>(campaigns) * tasks);
  std::cout << StringF("  total paid:           %.0f cents (%.2f / task)\n",
                       total_cost,
                       total_assigned > 0 ? total_cost / total_assigned : 0.0);
  if (arrive_over > 0.0) {
    const market::StreamingStats& stream = fleet->streaming_stats();
    std::cout << StringF(
        "  streaming admission:  %llu campaigns over %.1f h, admit "
        "latency %.4f ms mean / %.4f ms max\n",
        (unsigned long long)stream.admitted, arrive_over,
        stream.admit_mean_ms, stream.admit_max_ms);
  }

  Table stats({"shard", "admitted", "decides", "completed", "deadline",
               "pulled", "peak live"});
  for (int s = 0; s < fleet->shard_map().num_shards(); ++s) {
    const serving::ShardStats shard = fleet->shard_map().shard_stats(s);
    (void)stats.AddRow(
        {StringF("%d", s), StringF("%llu", (unsigned long long)shard.admitted),
         StringF("%llu", (unsigned long long)shard.decides),
         StringF("%llu", (unsigned long long)shard.retired_completed),
         StringF("%llu", (unsigned long long)shard.retired_deadline),
         StringF("%llu", (unsigned long long)shard.retired_explicit),
         StringF("%lld", (long long)shard.peak_live)});
  }
  std::cout << "\n";
  stats.Print(std::cout);
  return 0;
}

int RunMultiType(const Args& args) {
  const int tasks1 = args.Int("tasks1", 0);
  const int tasks2 = args.Int("tasks2", 0);
  const double hours = args.Num("hours", 0.0);
  const int intervals = args.Int("intervals", IntervalsFor(hours, 1.0));
  const double rate_per_hour = args.Num("rate", 80.0);
  const int replicates = args.Int("replicates", 50);
  const auto seed = args.Int<uint64_t>("seed", 7);
  if (tasks1 < 0 || tasks2 < 0 || (tasks1 == 0 && tasks2 == 0) ||
      hours <= 0.0) {
    std::cerr << "multitype requires --tasks1/--tasks2 (>= 1 total) and "
                 "--hours > 0\n";
    return 1;
  }

  engine::MultiTypeSpec spec;
  spec.s1 = args.Num("s1", 10.0);
  spec.b1 = args.Num("b1", 1.4);
  spec.s2 = args.Num("s2", 10.0);
  spec.b2 = args.Num("b2", 1.0);
  spec.m = args.Num("m", 200.0);
  spec.problem.num_tasks_1 = tasks1;
  spec.problem.num_tasks_2 = tasks2;
  spec.problem.num_intervals = intervals;
  spec.problem.penalty_1_cents = args.Num("penalty1", 200.0);
  spec.problem.penalty_2_cents = args.Num("penalty2", 150.0);
  spec.problem.max_price_cents = args.Int("max-price", 30);
  spec.problem.price_stride = args.Int("stride", 2);
  spec.kernel_backend = args.Str("kernel", "");
  spec.interval_lambdas.assign(static_cast<size_t>(intervals),
                               rate_per_hour * hours / intervals);

  auto artifact = engine::Solve(spec);
  if (!artifact.ok()) {
    std::cerr << artifact.status() << "\n";
    return 2;
  }
  auto plan_ptr = artifact->multitype_plan();
  if (!plan_ptr.ok()) {
    std::cerr << plan_ptr.status() << "\n";
    return 2;
  }
  const pricing::MultiTypePlan& plan = **plan_ptr;
  auto joint = pricing::JointLogitAcceptance::Create(spec.s1, spec.b1,
                                                     spec.s2, spec.b2,
                                                     spec.m);
  if (!joint.ok()) {
    std::cerr << joint.status() << "\n";
    return 2;
  }
  auto nominal = pricing::EvaluateMultiTypeNominal(plan, *joint);
  if (!nominal.ok()) {
    std::cerr << nominal.status() << "\n";
    return 2;
  }
  std::cout << StringF("joint objective:      %.0f cents\n",
                       plan.TotalObjective());
  std::cout << StringF("E[done] type 1:       %.2f of %d\n",
                       nominal->expected_completed[0], tasks1);
  std::cout << StringF("E[done] type 2:       %.2f of %d\n",
                       nominal->expected_completed[1], tasks2);
  std::cout << StringF("E[reward outlay]:     %.0f cents\n",
                       nominal->expected_cost_cents);

  // Play the artifact through the OfferSheet surface.
  auto controller = artifact->MakeController(hours);
  if (!controller.ok()) {
    std::cerr << controller.status() << "\n";
    return 2;
  }
  auto rate = arrival::PiecewiseConstantRate::Constant(rate_per_hour, 1.0);
  if (!rate.ok()) {
    std::cerr << rate.status() << "\n";
    return 2;
  }
  pricing::JointLogitSheetAcceptance acceptance(*joint);
  market::MultiTypeSimConfig sim;
  sim.tasks_per_type = {tasks1, tasks2};
  sim.horizon_hours = hours;
  sim.decision_interval_hours = hours / intervals;
  double done1 = 0.0, done2 = 0.0, paid = 0.0;
  Rng master(seed);
  for (int rep = 0; rep < std::max(1, replicates); ++rep) {
    Rng child = master.Fork();
    auto played = market::RunMultiTypeSimulation(sim, *rate, acceptance,
                                                 **controller, child);
    if (!played.ok()) {
      std::cerr << played.status() << "\n";
      return 2;
    }
    done1 += static_cast<double>(played->types[0].tasks_assigned);
    done2 += static_cast<double>(played->types[1].tasks_assigned);
    paid += played->total_cost_cents;
  }
  const double n = static_cast<double>(std::max(1, replicates));
  std::cout << StringF(
      "simulated (%d reps):  type 1 %.2f done, type 2 %.2f done, "
      "%.0f cents avg\n",
      std::max(1, replicates), done1 / n, done2 / n, paid / n);

  if (args.Has("out")) {
    auto serialized = artifact->Serialize();
    if (!serialized.ok()) {
      std::cerr << serialized.status() << "\n";
      return 2;
    }
    std::ofstream out(args.Str("out", ""));
    out << *serialized;
    if (!out.good()) {
      std::cerr << "failed to write " << args.Str("out", "") << "\n";
      return 2;
    }
    std::cout << "artifact written to " << args.Str("out", "") << "\n";
  }
  return 0;
}

// Batch entry to the solve farm: one deadline campaign per wave-file line,
// all solved in a single SolveWave over the process-wide pmf share cache.
int RunSolveWave(const Args& args) {
  if (!args.Has("wave")) {
    std::cerr << "solve requires --wave FILE (one campaign per line: "
                 "\"tasks hours rate [penalty]\")\n";
    return 1;
  }
  const int threads = args.Int("threads", 0);
  const int max_price = args.Int("max-price", 50);
  const double intervals_per_hour = args.Num("intervals-per-hour", 3.0);
  if (intervals_per_hour <= 0.0) {
    std::cerr << "solve requires --intervals-per-hour > 0\n";
    return 1;
  }
  auto acceptance = Acceptance(args);
  if (!acceptance.ok()) {
    std::cerr << acceptance.status() << "\n";
    return 1;
  }
  auto actions = pricing::ActionSet::FromPriceGrid(max_price, *acceptance);
  if (!actions.ok()) {
    std::cerr << actions.status() << "\n";
    return 2;
  }

  std::ifstream in(args.Str("wave", ""));
  if (!in.good()) {
    std::cerr << "cannot open " << args.Str("wave", "") << "\n";
    return 1;
  }
  std::vector<engine::PolicySpec> specs;
  std::vector<double> spec_hours;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream cells(line);
    int tasks = 0;
    double hours = 0.0, rate = 0.0;
    if (!(cells >> tasks >> hours >> rate) || tasks < 1 || hours <= 0.0) {
      std::cerr << StringF(
          "%s:%d: expected \"tasks hours rate [penalty]\" with tasks >= 1 "
          "and hours > 0\n",
          args.Str("wave", "").c_str(), line_no);
      return 1;
    }
    engine::DeadlineDpSpec spec;
    const int intervals = IntervalsFor(hours, intervals_per_hour);
    spec.problem.num_tasks = tasks;
    spec.problem.num_intervals = intervals;
    spec.interval_lambdas.assign(static_cast<size_t>(intervals),
                                 rate * hours / intervals);
    spec.actions = *actions;
    double penalty = 0.0;
    if (cells >> penalty) {
      spec.problem.penalty_cents = penalty;
    } else {
      spec.expected_remaining_bound = 0.5;
    }
    specs.push_back(std::move(spec));
    spec_hours.push_back(hours);
  }
  if (specs.empty()) {
    std::cerr << args.Str("wave", "") << ": no campaigns\n";
    return 1;
  }

  ThreadPool pool(threads, /*background=*/false);
  engine::SolveWaveOptions options;
  options.pool = &pool;
  options.evaluate = args.Has("evaluate");
  options.kernel_backend = args.Str("kernel", "");
  const auto start = std::chrono::steady_clock::now();
  auto wave = engine::SolveWave(specs, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<std::string> columns = {"campaign", "tasks", "hours",
                                      "opening price", "penalty used"};
  if (options.evaluate) {
    columns.push_back("E[cost] cents");
    columns.push_back("E[left]");
  }
  Table table(columns);
  int failed = 0;
  for (size_t i = 0; i < wave.size(); ++i) {
    if (!wave[i].ok()) {
      ++failed;
      std::cerr << StringF("campaign %zu: ", i) << wave[i].status() << "\n";
      continue;
    }
    auto plan = wave[i]->deadline_plan();
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 2;
    }
    std::vector<std::string> row = {
        StringF("%zu", i), StringF("%d", (*plan)->num_tasks()),
        StringF("%.1f", spec_hours[i]),
        StringF("%.0f",
                (*plan)->PriceAt((*plan)->num_tasks(), 0).value_or(-1)),
        StringF("%.1f", wave[i]->penalty_used())};
    if (options.evaluate) {
      auto eval = wave[i]->deadline_evaluation();
      if (!eval.ok()) {
        std::cerr << eval.status() << "\n";
        return 2;
      }
      row.push_back(StringF("%.0f", (*eval)->expected_cost_cents));
      row.push_back(StringF("%.3f", (*eval)->expected_remaining));
    }
    (void)table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  const kernel::PmfArena::Stats share = kernel::PmfShareCache::Global().stats();
  std::cout << StringF(
      "\nsolved %zu of %zu campaign(s) in %.3f s on %d farm thread(s)\n",
      wave.size() - static_cast<size_t>(failed), wave.size(), wall,
      pool.size());
  std::cout << StringF(
      "pmf share cache: %lld block(s) built, %lld shared, %.1f KiB "
      "resident\n",
      static_cast<long long>(share.blocks_built),
      static_cast<long long>(share.blocks_shared),
      static_cast<double>(kernel::PmfShareCache::Global().resident_bytes()) /
          1024.0);
  return failed == 0 ? 0 : 2;
}

int RunSolvers() {
  std::cout << "policy kinds engine::Solve accepts:\n";
  for (engine::PolicyKind kind :
       {engine::PolicyKind::kDeadlineDp, engine::PolicyKind::kBudgetStatic,
        engine::PolicyKind::kFixedPrice, engine::PolicyKind::kAdaptive,
        engine::PolicyKind::kMultiType, engine::PolicyKind::kTradeoff}) {
    std::cout << "  " << engine::KindName(kind) << "\n";
  }
  return 0;
}

int RunKernels() {
  const auto& registry = kernel::KernelRegistry::Global();
  auto selected = registry.Resolve("");
  std::cout << "kernel backends (ascending preference):\n";
  for (const std::string& name : registry.Available()) {
    const bool is_default =
        selected.ok() && name == (*selected)->name();
    std::cout << "  " << name << (is_default ? "  [default]" : "") << "\n";
  }
  std::cout << "force per solve with --kernel NAME or the CROWDPRICE_KERNEL "
               "environment variable.\n";
  const kernel::PmfArena::Stats share = kernel::PmfShareCache::Global().stats();
  std::cout << StringF(
      "pmf share cache: %lld block(s) built, %lld shared, %.1f KiB "
      "resident, %lld evicted\n",
      static_cast<long long>(share.blocks_built),
      static_cast<long long>(share.blocks_shared),
      static_cast<double>(kernel::PmfShareCache::Global().resident_bytes()) /
          1024.0,
      static_cast<long long>(kernel::PmfShareCache::Global().evicted()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return Usage();
  }
  if (args->command == "deadline") return RunDeadline(*args);
  if (args->command == "budget") return RunBudget(*args);
  if (args->command == "tradeoff") return RunTradeoff(*args);
  if (args->command == "fleet") return RunFleet(*args);
  if (args->command == "multitype") return RunMultiType(*args);
  if (args->command == "solve") return RunSolveWave(*args);
  if (args->command == "solvers") return RunSolvers();
  if (args->command == "kernels") return RunKernels();
  std::cerr << "unknown command '" << args->command << "'\n";
  return Usage();
}
