// perfbench_loadgen: the one load-generator process of the end-to-end
// benchmark (perfbench/run.py builds and runs it).
//
//   perfbench_loadgen --workload decide-direct|decide-routed|reprice
//                     --seed N --seconds S --trace 0|1
//                     --bin-dir DIR --out-dir DIR
//
// It launches the shipped crowdprice_serve / crowdprice_router binaries
// as child processes, sets up a campaign fleet solved from the seed, and
// drives the servers with open-loop traffic: every request has a
// scheduled send time, and its latency runs from that time to the full
// response, less the generator's own lateness (which is reported as
// loadgen.lag_p99_ms; a run whose generator fell behind by more than the
// workload's latency limit is invalid, never billed to the server; a
// server that falls so far behind that scheduled requests are never sent
// fails them). Latencies are summarized per window, over the windows in
// which the hypervisor stole the least CPU (see Windowed in harness.h).
// Every answer is checked bit for bit against an in-process
// CampaignShardMap holding the same artifacts.
//
// Workloads:
//   decide-direct  2 connections send 16-request decide batches at a fixed
//                  rate to one crowdprice_serve holding a 256-campaign
//                  fleet. Codec, server loop and the RCU read path do all
//                  the work.
//   decide-routed  the same traffic and fleet through crowdprice_router in
//                  front of two crowdprice_serve backends: the difference
//                  from decide-direct is the router hop.
//   reprice        one crowdprice_serve and three connections: campaigns
//                  arrive at a fixed rate (Engine::Solve + admit),
//                  periodic re-price waves (SolveWave at rescaled rates,
//                  swaps plus retirements that keep the fleet size steady)
//                  and a fleet-wide 512-request decide poll at a fixed
//                  rate.
//
// --trace 0 measures the end-to-end metrics at the fixed rates. --trace 1
// runs the same traffic untraced and then traced (spans around every
// client call), then a ladder of offered rates that finds the highest one
// meeting the latency limit (max_sheets_per_s), replays the captured
// inputs through each layer's public functions in-process (replay.h),
// writes every span to one JSON file, and reports the per-layer metrics.
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; a fuller record with the
// host fingerprint and sample counts goes to the output directory.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/solve_wave.h"
#include "fleet.h"
#include "harness.h"
#include "net/client.h"
#include "replay.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace perfbench {
namespace {

using crowdprice::Result;
using crowdprice::Status;
using crowdprice::StringF;
namespace kernel = crowdprice::kernel;
namespace net = crowdprice::net;

// --------------------------------------------------------------- settings

struct WorkloadConfig {
  const char* name;
  bool routed = false;
  bool reprice = false;
  int fleet = 256;         ///< Campaigns admitted at setup.
  int deadline_per_4 = 2;  ///< Deadline plans in every four campaigns.
  int conns = 2;           ///< Decide connections.
  int batch = 16;          ///< Requests per decide batch.
  /// Decide batches per second, all connections: 8000 sheets/s, under
  /// half the routed stack's closed-loop capacity even when the
  /// hypervisor steals a fifth of a 4-vCPU host, so the fixed rate
  /// measures the path, not a backlog.
  double rate = 500.0;
  /// Decide p99 limit (ladder and validity): well above the few-ms stalls
  /// a descheduled vCPU causes, so only a growing backlog crosses it.
  double limit_ms = 20.0;
  double window_s = 1.0;   ///< Latency window (see Windowed).
  int serve_workers = 2;
  int router_workers = 2;
  double admit_rate = 0.0;      ///< reprice: campaign arrivals per second.
  double admit_limit_ms = 0.0;  ///< reprice: validity limit on admit lag.
  double wave_period_s = 0.0;   ///< reprice: seconds between waves.
};

WorkloadConfig DecideDirect() {
  WorkloadConfig c{"decide-direct"};
  return c;
}

WorkloadConfig DecideRouted() {
  WorkloadConfig c{"decide-routed"};
  c.routed = true;
  c.serve_workers = 1;
  return c;
}

WorkloadConfig Reprice() {
  WorkloadConfig c{"reprice"};
  c.reprice = true;
  c.fleet = 64;
  c.deadline_per_4 = 3;
  c.conns = 1;
  c.batch = 512;
  c.rate = 120.0;
  c.limit_ms = 25.0;
  // Two waves per window, so every window sees the same write load.
  c.window_s = 4.0;
  c.serve_workers = 3;
  c.admit_rate = 32.0;
  c.admit_limit_ms = 200.0;
  c.wave_period_s = 2.0;
  return c;
}

/// Set-ups per untraced run; set-up time is their median.
constexpr int kSetups = 5;
/// An untraced decide-* run runs its fixed rate in this many segments,
/// interleaved with the extra set-ups, so a host stall of a few seconds
/// lands in a minority of every measurement's windows.
constexpr int kSegments = 6;
/// Share of a traced run spent on the ladder; the rest is split between
/// the untraced and the traced half.
constexpr double kLadderShare = 0.3;
constexpr size_t kDecidePool = 1024;
constexpr size_t kCaptureBatches = 512;
constexpr size_t kCapturePolls = 48;
constexpr size_t kCaptureControl = 48;
/// Byte budget of the generator's pmf share caches. Plans keep the blocks
/// they adopted alive, so a cache only needs to hold the recent ones.
constexpr size_t kCacheBytes = size_t{32} << 20;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir = ".";
  std::string out_dir = ".";
};

Result<Options> ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--bin-dir") {
      o.bin_dir = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!(o.seconds >= 1.0 && o.seconds <= 120.0)) {
    return Status::InvalidArgument("--seconds must be in [1, 120]");
  }
  return o;
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Sample count and percentile, when a distribution.
};

/// Everything one run measured and checked.
struct Run {
  Options options;
  WorkloadConfig config;
  std::unique_ptr<Market> market;
  Tracer tracer;
  StealMonitor steal;
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  bool self_test_ok = true;
  bool self_check_ok = true;
  bool valid = true;
  std::vector<std::string> notes;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// End-to-end figures that CPU steal on a virtual host swings too far to
  /// gate (see README.md): printed and recorded, not in the result line.
  std::vector<Metric> ungated;

  void Fail(int64_t count, const std::string& what) {
    failed.fetch_add(count, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 16) failures.push_back(what);
  }
  Tracer* trace_or_null() { return options.trace ? &tracer : nullptr; }
};

std::string Described(const Summary& s, bool tail) {
  return StringF("n=%zu, %s", s.count,
                 tail ? StringF("p%.2f", s.tail_pct).c_str() : "p50");
}

// ---------------------------------------------------------- deployments

/// The processes of one setup.
struct Deployment {
  std::vector<std::unique_ptr<ChildProcess>> backends;
  std::unique_ptr<ChildProcess> router;
  std::vector<std::string> endpoints;  ///< Backend "127.0.0.1:port"s.
  uint16_t front = 0;                  ///< The port clients dial.
};

struct Teardown {
  double rss_mb = 0.0;
  long protocol_errors = 0;
  long unavailable = 0;
  bool clean = true;
};

Result<Deployment> Launch(const Run& run) {
  const WorkloadConfig& cfg = run.config;
  Deployment d;
  const int backends = cfg.routed ? 2 : 1;
  for (int i = 0; i < backends; ++i) {
    CP_ASSIGN_OR_RETURN(
        std::unique_ptr<ChildProcess> serve,
        ChildProcess::Launch(run.options.bin_dir + "/crowdprice_serve",
                             {"--port", "0", "--workers",
                              std::to_string(cfg.serve_workers),
                              "--stats-every", "0"}));
    d.endpoints.push_back(StringF("127.0.0.1:%u", serve->port()));
    d.backends.push_back(std::move(serve));
  }
  d.front = d.backends[0]->port();
  if (cfg.routed) {
    std::string list;
    for (const std::string& e : d.endpoints) list += (list.empty() ? "" : ",") + e;
    CP_ASSIGN_OR_RETURN(
        d.router,
        ChildProcess::Launch(run.options.bin_dir + "/crowdprice_router",
                             {"--port", "0", "--workers",
                              std::to_string(cfg.router_workers),
                              "--stats-every", "0", "--backends", list}));
    d.front = d.router->port();
  }
  return d;
}

Teardown Stop(Deployment* d) {
  Teardown t;
  const auto reap = [&t](ChildProcess* child, const char* counter,
                         long* total) {
    auto exit = child->Stop();
    if (!exit.ok()) {
      t.clean = false;
      return;
    }
    t.rss_mb += static_cast<double>(exit->max_rss_kb) / 1024.0;
    const long value = StatsField(exit->output, counter);
    t.clean = t.clean && exit->clean && value >= 0;
    *total += std::max(value, 0L);
  };
  // The router first: it holds connections to the backends.
  if (d->router) reap(d->router.get(), "unavailable", &t.unavailable);
  for (auto& backend : d->backends) {
    reap(backend.get(), "protocol_errors", &t.protocol_errors);
  }
  return t;
}

Result<net::PricingClient> Dial(uint16_t port) {
  return net::PricingClient::Connect("127.0.0.1", port);
}

// ------------------------------------------------------------------ oracle

bool SameSheet(const market::OfferSheet& a, const market::OfferSheet& b) {
  if (a.offers.size() != b.offers.size()) return false;
  for (size_t i = 0; i < a.offers.size(); ++i) {
    const double x = a.offers[i].per_task_reward_cents;
    const double y = b.offers[i].per_task_reward_cents;
    if (std::memcmp(&x, &y, sizeof(double)) != 0 ||
        a.offers[i].group_size != b.offers[i].group_size) {
      return false;
    }
  }
  return true;
}

/// The decide traffic of one workload: what each batch asks, and whether
/// the answers are right. Checking returns the number of requests that
/// failed, were refused, or answered a sheet the oracle disagrees with.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual const std::vector<serving::DecideRequest>& Prepare(int conn,
                                                             uint64_t seq) = 0;
  virtual int64_t Check(
      int conn, uint64_t seq,
      const Result<std::vector<serving::DecideResponse>>& answer) = 0;
};

int64_t CheckAnswer(const std::vector<serving::DecideRequest>& requests,
                    const Result<std::vector<serving::DecideResponse>>& answer,
                    const std::function<bool(size_t, const serving::DecideResponse&)>& right) {
  if (!answer.ok() || answer->size() != requests.size()) {
    return static_cast<int64_t>(requests.size());
  }
  int64_t bad = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const serving::DecideResponse& r = (*answer)[i];
    if (r.campaign_id != requests[i].campaign_id || !right(i, r)) ++bad;
  }
  return bad;
}

/// decide-*: a pool of batches over a fixed fleet, with every expected
/// sheet computed in-process before the run.
class PoolTraffic final : public Traffic {
 public:
  struct Batch {
    std::vector<serving::DecideRequest> requests;
    std::vector<market::OfferSheet> expected;
  };
  explicit PoolTraffic(std::vector<Batch> pool) : pool_(std::move(pool)) {}

  const std::vector<serving::DecideRequest>& Prepare(int, uint64_t seq) override {
    return pool_[seq % pool_.size()].requests;
  }
  int64_t Check(int, uint64_t seq,
                const Result<std::vector<serving::DecideResponse>>& answer) override {
    const Batch& b = pool_[seq % pool_.size()];
    return CheckAnswer(b.requests, answer,
                       [&b](size_t i, const serving::DecideResponse& r) {
                         return r.status.ok() && SameSheet(r.sheet, b.expected[i]);
                       });
  }

 private:
  std::vector<Batch> pool_;
};

/// Flags a deliberately corrupted copy of a correct answer four ways; the
/// oracle must catch every one.
bool OracleCatchesCorruption(Traffic& traffic, uint64_t seq,
                             const std::vector<serving::DecideResponse>& good,
                             std::string* why) {
  using Answer = Result<std::vector<serving::DecideResponse>>;
  if (traffic.Check(0, seq, Answer(good)) != 0) {
    *why = "the oracle rejected a correct answer";
    return false;
  }
  std::vector<std::vector<serving::DecideResponse>> corrupt(4, good);
  double& price = corrupt[0][0].sheet.offers[0].per_task_reward_cents;
  price = std::nextafter(price, 1e300);
  corrupt[1][0].sheet.offers[0].group_size += 1;
  corrupt[2][0].status = Status::NotFound("corrupted");
  corrupt[3][0].campaign_id += 1;
  for (const auto& c : corrupt) {
    if (traffic.Check(0, seq, Answer(c)) == 0) {
      *why = "the oracle accepted a corrupted sheet";
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- open loop

struct LoopStats {
  LoopStats(double window_s, Clock::time_point origin)
      : latency_ms(window_s, origin) {}
  Windowed latency_ms;  ///< By scheduled send time.
  Recorder lag_ms;
  int64_t requests = 0;
  int64_t bad = 0;
  bool cut = false;  ///< The backlog outran the grace period.
  int64_t unsent = 0;  ///< Scheduled batches the cut kept from being sent.
  double seconds = 0.0;

  void Merge(const LoopStats& o) {
    latency_ms.Merge(o.latency_ms);
    lag_ms.Merge(o.lag_ms);
    requests += o.requests;
    bad += o.bad;
    cut = cut || o.cut;
    unsent += o.unsent;
    seconds = std::max(seconds, o.seconds);
  }
};

/// Batches the loop captured for the replay.
struct DecideCapture {
  std::mutex mu;
  size_t max = 0;
  std::vector<std::vector<serving::DecideRequest>> batches;
  std::vector<std::vector<serving::DecideResponse>> responses;
};

/// Drives `clients` (one thread each) on an open-loop schedule of `rate`
/// batches/s for `duration` seconds, or back to back when rate <= 0.
/// Request seq k*C + i goes to connection i at start + (k*C + i) / rate.
/// Latencies are kept in windows of `window_s` seconds of schedule. A
/// connection still busy 250 ms after the schedule ends stops, and counts
/// the rest of its schedule as unsent.
LoopStats RunLoop(Run& run, std::vector<net::PricingClient>& clients,
                  Traffic& traffic, double rate, double duration,
                  double window_s, Tracer* tracer, DecideCapture* capture) {
  const int conns = static_cast<int>(clients.size());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration));
  const Clock::time_point cutoff = end + std::chrono::milliseconds(250);
  std::vector<LoopStats> stats(static_cast<size_t>(conns),
                               LoopStats(window_s, start));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    Tracer::Buffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    threads.emplace_back([&, c, buf] {
      LoopStats& s = stats[static_cast<size_t>(c)];
      net::PricingClient& client = clients[static_cast<size_t>(c)];
      Clock::time_point free_at = start;
      for (uint64_t k = 0;; ++k) {
        const uint64_t seq = k * static_cast<uint64_t>(conns) + static_cast<uint64_t>(c);
        Clock::time_point sched =
            rate > 0.0
                ? start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(seq) / rate))
                : std::max(Clock::now(), start);
        if (sched >= end) break;
        if (Clock::now() >= cutoff) {
          s.cut = true;
          ++s.unsent;
          continue;
        }
        std::this_thread::sleep_until(sched);
        const Clock::time_point ready = std::max(sched, free_at);
        const auto& requests = traffic.Prepare(c, seq);
        const Clock::time_point sent = Clock::now();
        Result<std::vector<serving::DecideResponse>> answer =
            Status::Internal("unset");
        {
          ScopedSpan span(tracer, buf, "client.DecideBatch", seq);
          answer = client.DecideBatch(requests);
        }
        const Clock::time_point received = Clock::now();
        const int64_t bad = traffic.Check(c, seq, answer);
        if (!answer.ok()) {
          run.Fail(0, "decide batch: " + answer.status().ToString());
          static_cast<void>(client.Reconnect());
        }
        const double lag = Seconds(sent - ready);
        s.lag_ms.Add(lag * 1e3);
        s.latency_ms.Add(Seconds(sched - start),
                         (Seconds(received - sched) - lag) * 1e3);
        s.requests += static_cast<int64_t>(requests.size());
        s.bad += bad;
        if (capture != nullptr && answer.ok()) {
          std::lock_guard<std::mutex> lock(capture->mu);
          if (capture->batches.size() < capture->max) {
            capture->batches.push_back(requests);
            capture->responses.push_back(*answer);
          }
        }
        free_at = Clock::now();
      }
      s.seconds = Seconds(Clock::now() - start);
    });
  }
  for (auto& t : threads) t.join();
  LoopStats total(window_s, start);
  for (const LoopStats& s : stats) total.Merge(s);
  run.attempted.fetch_add(total.requests, std::memory_order_relaxed);
  if (total.bad > 0) {
    run.Fail(total.bad, StringF("%lld decide answers failed, were refused or "
                                "disagreed with the oracle",
                                static_cast<long long>(total.bad)));
  }
  return total;
}

/// RunLoop at the workload's fixed rate. The batches a backlog kept from
/// being sent count as attempted and failed: a server that cannot keep up
/// with the fixed rate fails the run instead of losing the windows it fell
/// behind in.
LoopStats RunFixed(Run& run, std::vector<net::PricingClient>& clients,
                   Traffic& traffic, double duration, Tracer* tracer = nullptr,
                   DecideCapture* capture = nullptr) {
  const WorkloadConfig& cfg = run.config;
  LoopStats s = RunLoop(run, clients, traffic, cfg.rate, duration,
                        cfg.window_s, tracer, capture);
  if (s.unsent > 0) {
    const int64_t requests = s.unsent * cfg.batch;
    run.attempted.fetch_add(requests, std::memory_order_relaxed);
    run.Fail(requests, StringF("the server fell behind the fixed rate: %lld "
                               "scheduled batches were never sent",
                               static_cast<long long>(s.unsent)));
  }
  return s;
}

/// The search for max_sheets_per_s: the highest offered rate whose p99
/// meets the workload's limit with no growing backlog, as sheets answered
/// per second. Rates are fractions of the closed-loop capacity a first
/// probe measures (the 75th percentile over ten windows, so a stall in the
/// probe does not drag the whole ladder down): a coarse ascending ladder,
/// then two bisection steps between the last pass and the first failure.
/// A failed coarse step is tried once more, since a host stall can fail a
/// step a real overload would not. A step passes when the median of its
/// windows' p99 meets the limit and so does its last window's p50 (a
/// backlog that grows through the step does not). The traced run climbs
/// it after its two halves; the untraced runs, whose figures are gated,
/// spend all their time at the fixed rate.
double MaxSheetsPerS(Run& run, std::vector<net::PricingClient>& clients,
                     Traffic& traffic, double budget_s) {
  constexpr int kMaxSteps = 7;  // 4 coarse, 1 retry, 2 bisections
  constexpr std::array<double, 4> kCoarse = {0.5, 0.7, 0.85, 1.0};
  const double probe_s = std::min(1.0, budget_s / 8.0);
  const LoopStats probe = RunLoop(run, clients, traffic, 0.0, probe_s,
                                  probe_s / 10.0, nullptr, nullptr);
  std::vector<double> rates;
  for (size_t n : probe.latency_ms.Counts(&run.steal)) {
    rates.push_back(static_cast<double>(n) / (probe_s / 10.0));
  }
  std::sort(rates.begin(), rates.end());
  const double capacity = rates.empty() ? 1.0 : rates[rates.size() * 3 / 4];
  const double step_s = (budget_s - probe_s) / kMaxSteps;
  run.notes.push_back(StringF("closed-loop capacity %.0f sheets/s",
                              capacity * run.config.batch));

  double best = 0.0;
  const auto attempt = [&](double fraction) {
    const double limit = run.config.limit_ms;
    const double offered = fraction * capacity;
    // Three windows when each holds enough samples for a p99, else one.
    const int windows = offered * step_s >= 900.0 ? 3 : 1;
    const LoopStats s = RunLoop(run, clients, traffic, offered, step_s,
                                step_s / windows, nullptr, nullptr);
    const Summary median = s.latency_ms.MedianOfWindows(&run.steal);
    const Summary last =
        s.latency_ms.Window(static_cast<size_t>(windows - 1)).Summarize();
    const bool pass =
        !s.cut && s.bad == 0 && median.tail <= limit && last.p50 <= limit;
    const double sheets =
        static_cast<double>(s.requests - s.bad) / std::max(s.seconds, 1e-9);
    run.notes.push_back(StringF(
        "ladder %.3f x capacity: %.0f sheets/s offered, p50 %.3f ms, "
        "p%.1f %.3f ms (%s) -> %s",
        fraction, offered * run.config.batch, median.p50, median.tail_pct,
        median.tail, s.latency_ms.Describe(&run.steal, true).c_str(),
        pass ? "meets the limit" : "misses the limit"));
    if (pass) best = std::max(best, sheets);
    return pass;
  };

  double lo = 0.0;
  double hi = 0.0;
  bool retried = false;
  for (size_t i = 0; i < kCoarse.size() && hi <= 0.0;) {
    if (attempt(kCoarse[i])) {
      lo = kCoarse[i++];
    } else if (!retried) {
      retried = true;
    } else {
      hi = kCoarse[i];
    }
  }
  for (int i = 0; i < 2 && hi > 0.0; ++i) {
    const double mid = 0.5 * (lo + hi);
    (attempt(mid) ? lo : hi) = mid;
  }
  return best;
}

// --------------------------------------------------------------- fleets

/// Solves every campaign with Engine::Solve, one span per solve. Campaigns
/// on one start edge share pmf blocks, as a fleet's solves would.
Result<std::vector<Placed>> SolveFleet(Run& run,
                                       const std::vector<Campaign>& fleet) {
  std::vector<Placed> out;
  Tracer::Buffer* buf = run.options.trace ? run.tracer.NewBuffer() : nullptr;
  kernel::PmfShareCache cache(kCacheBytes);
  uint64_t seq = 0;
  for (const Campaign& c : fleet) {
    CP_ASSIGN_OR_RETURN(engine::PolicySpec spec, run.market->Spec(c, &cache));
    Result<engine::PolicyArtifact> artifact = Status::Internal("unset");
    {
      ScopedSpan span(run.trace_or_null(), buf,
                      c.kind == Kind::kDeadline ? "engine.Solve/deadline"
                                                : "engine.Solve/static",
                      seq++);
      artifact = engine::Engine::Solve(spec);
    }
    if (!artifact.ok()) return artifact.status();
    out.push_back(Placed{std::make_shared<const engine::PolicyArtifact>(
                             std::move(artifact).value()),
                         c.limits});
  }
  return out;
}

/// A deployment with the fleet admitted and answering.
struct Ready {
  Deployment deployment;
  std::vector<serving::CampaignId> ids;  ///< Server id per fleet index.
  Clock::time_point began;
  Clock::time_point ended;
  std::vector<double> plan_admit_ms;  ///< Deadline-plan admits only.
  double setup_s = 0.0;
  double admit_s = 0.0;
};

/// Launch plus fleet admission until a ping answers: one set-up. Admit
/// latencies are kept for deadline plans only (the static policies'
/// artifacts are a few hundred bytes).
Result<Ready> SetUp(Run& run, const std::vector<Placed>& fleet,
                    Tracer* tracer) {
  Ready ready;
  const Clock::time_point start = Clock::now();
  ready.began = start;
  CP_ASSIGN_OR_RETURN(ready.deployment, Launch(run));
  CP_ASSIGN_OR_RETURN(net::PricingClient client, Dial(ready.deployment.front));
  Tracer::Buffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
  const Clock::time_point admit_start = Clock::now();
  uint64_t seq = 0;
  for (const Placed& p : fleet) {
    const Clock::time_point t0 = Clock::now();
    Result<serving::CampaignId> id = Status::Internal("unset");
    {
      ScopedSpan span(tracer, buf, "client.Apply", seq++);
      id = client.AdmitShared(p.artifact, p.limits);
    }
    run.attempted.fetch_add(1, std::memory_order_relaxed);
    if (!id.ok()) {
      run.Fail(1, "set-up admit: " + id.status().ToString());
      return id.status();
    }
    if (p.artifact->kind() == engine::PolicyKind::kDeadlineDp) {
      ready.plan_admit_ms.push_back(Seconds(Clock::now() - t0) * 1e3);
    }
    ready.ids.push_back(*id);
  }
  ready.admit_s = Seconds(Clock::now() - admit_start);
  CP_RETURN_IF_ERROR(client.Ping());
  ready.ended = Clock::now();
  ready.setup_s = Seconds(ready.ended - start);
  return ready;
}

/// Set-up measurements: set-up time and admission throughput per set-up,
/// and deadline-plan admit latencies with one window per set-up.
struct SetUpStats {
  Windowed admit_ms;
  Windowed setup_s;
  Windowed admit_rate;
};

/// One set-up, measured into `stats`.
Result<Ready> MeasuredSetUp(Run& run, const std::vector<Placed>& fleet,
                            SetUpStats* stats, Tracer* tracer) {
  CP_ASSIGN_OR_RETURN(Ready ready, SetUp(run, fleet, tracer));
  const size_t i = stats->setup_s.count();
  for (double ms : ready.plan_admit_ms) {
    stats->admit_ms.AddTo(i, ms, ready.began, ready.ended);
  }
  stats->setup_s.AddTo(i, ready.setup_s, ready.began, ready.ended);
  stats->admit_rate.AddTo(i, static_cast<double>(fleet.size()) / ready.admit_s,
                          ready.began, ready.ended);
  return ready;
}

/// One more set-up, measured and torn down straight away.
Status ExtraSetUp(Run& run, const std::vector<Placed>& fleet,
                  SetUpStats* stats) {
  CP_ASSIGN_OR_RETURN(Ready ready, MeasuredSetUp(run, fleet, stats, nullptr));
  const Teardown t = Stop(&ready.deployment);
  if (!t.clean) run.Fail(1, "a set-up's servers did not shut down cleanly");
  return Status::OK();
}

Status AdmitToOracle(serving::CampaignShardMap& oracle, const Placed& p,
                     serving::CampaignId* id) {
  CP_ASSIGN_OR_RETURN(serving::ControlOutcome outcome,
                      oracle.Apply(serving::ControlOp::AdmitShared(
                          p.artifact, p.limits)));
  *id = outcome.id;
  return Status::OK();
}

// --------------------------------------------------------------- metrics

void AddLatency(std::vector<Metric>* out, const std::string& p50_name,
                const std::string& tail_name, const Summary& s,
                const char* unit) {
  out->push_back({p50_name, s.p50, unit, Described(s, false)});
  out->push_back({tail_name, s.tail, unit, Described(s, true)});
}

/// End-to-end latencies: medians over the least stolen windows (see
/// Windowed).
void AddLatency(const Run& run, std::vector<Metric>* out,
                const std::string& p50_name, const std::string& tail_name,
                const Windowed& w) {
  const Summary s = w.MedianOfWindows(&run.steal);
  out->push_back({p50_name, s.p50, "ms", w.Describe(&run.steal, false)});
  out->push_back({tail_name, s.tail, "ms", w.Describe(&run.steal, true)});
}

/// A per-window quantity (one value per set-up or wave) as the median over
/// the least stolen windows.
Metric WindowMedian(const Run& run, const std::string& name, const Windowed& w,
                    const char* unit) {
  return {name, w.MedianOfWindows(&run.steal).p50, unit,
          w.Describe(&run.steal, false)};
}

/// decide_p99_ms: the median over the least stolen windows of each
/// window's tail. It is reported with the per-layer metrics, not gated: on
/// a host whose hypervisor steals a few per cent of the CPU it swings
/// several-fold between runs (see README.md).
Metric DecideTail(const Run& run, const Windowed& w) {
  return {"decide_p99_ms", w.MedianOfWindows(&run.steal).tail, "ms",
          w.Describe(&run.steal, true)};
}

struct Layer {
  Summary rtt_us;
  /// Pooled decide p50s of the traced and untraced halves: every traced
  /// sample bounds its own rtt span, so the pooled p50s compare exactly.
  double traced_p50_ms = 0.0;
  double untraced_p50_ms = 0.0;
  double lag_p99_ms = 0.0;
  /// The untraced half's tail, as the end-to-end runs would measure it.
  Metric decide_p99;
  double max_sheets_per_s = 0.0;  ///< From the traced run's ladder.
  long protocol_errors = 0;
  long router_unavailable = 0;
  /// Deadline-plan admit latency (reprice), whose parts the self-check
  /// bounds; 0 = none.
  double admit_p50_ms = 0.0;
  /// Engine figures measured by the run itself (reprice); else replayed.
  double wave_s = 0.0;
  int64_t pmf_built = -1;
  int64_t pmf_shared = 0;
};

double SpanP50(const Run& run, const char* name) {
  return run.tracer.DurationsUs(name).Summarize().p50;
}

/// The per-layer table, from the run's spans and the replay, plus the
/// self-check that the breakdown adds up.
void PerLayer(Run& run, const Layer& l, const ReplayCounts& replay) {
  std::vector<Metric>& out = run.per_layer;
  const double enc_req = SpanP50(run, "wire.SerializeDecideBatchRequest");
  const double dec_req = SpanP50(run, "wire.DeserializeDecideBatchRequest");
  const double enc_resp = SpanP50(run, "wire.SerializeDecideBatchResponse");
  const double dec_resp = SpanP50(run, "wire.DeserializeDecideBatchResponse");
  const double decide_ns = SpanP50(run, "serving.Decide") * 1e3;
  const double decide_batch_us = SpanP50(run, "serving.DecideBatch");
  // Below 256 requests the server answers inline, one Decide per request;
  // the 512-request poll takes the map's DecideBatch pool path.
  const double serving_us = run.config.batch < 256
                                ? run.config.batch * decide_ns / 1e3
                                : decide_batch_us;
  const double residual =
      l.rtt_us.p50 - (enc_req + dec_req + enc_resp + dec_resp + serving_us);
  const Summary apply = run.tracer.DurationsUs("client.Apply").Summarize();
  const Summary solve =
      run.tracer.DurationsUs("engine.Solve/deadline").Summarize();
  const double wave_s = l.wave_s > 0.0 ? l.wave_s : replay.wave_seconds;
  const int64_t built = l.pmf_built >= 0 ? l.pmf_built : replay.pmf_blocks_built;
  const int64_t shared = l.pmf_built >= 0 ? l.pmf_shared : replay.pmf_blocks_shared;
  const double attempted = static_cast<double>(run.attempted.load());

  AddLatency(&out, "client.decide_rtt_us_p50", "client.decide_rtt_us_p99",
             l.rtt_us, "us");
  out.push_back({"client.apply_ms_p50", apply.p50 / 1e3, "ms", Described(apply, false)});
  out.push_back({"net.server_residual_us", residual, "us", ""});
  out.push_back({"net.protocol_errors", static_cast<double>(l.protocol_errors), "count", ""});
  out.push_back({"wire.encode_request_us", enc_req, "us", ""});
  out.push_back({"wire.decode_request_us", dec_req, "us", ""});
  out.push_back({"wire.encode_response_us", enc_resp, "us", ""});
  out.push_back({"wire.decode_response_us", dec_resp, "us", ""});
  out.push_back({"wire.batch_bytes", replay.batch_bytes_p50, "bytes", ""});
  out.push_back({"wire.control_encode_ms", SpanP50(run, "wire.SerializeControlOp") / 1e3, "ms", ""});
  out.push_back({"wire.control_decode_ms", SpanP50(run, "wire.DeserializeControlOp") / 1e3, "ms", ""});
  out.push_back({"wire.control_kb", replay.control_kb_p50, "kB", ""});
  out.push_back({"serving.decide_ns", decide_ns, "ns", ""});
  out.push_back({"serving.decide_batch_us", decide_batch_us, "us", ""});
  out.push_back({"serving.apply_admit_us", SpanP50(run, "serving.Apply/admit"), "us", ""});
  out.push_back({"serving.apply_swap_us", SpanP50(run, "serving.Apply/swap"), "us", ""});
  out.push_back({"serving.apply_retire_us", SpanP50(run, "serving.Apply/retire"), "us", ""});
  out.push_back({"serving.unreclaimed_snapshots", replay.unreclaimed_snapshots, "count", ""});
  AddLatency(&out, "engine.solve_ms_p50", "engine.solve_ms_p99",
             Summary{solve.count, solve.p50 / 1e3, solve.tail / 1e3, solve.tail_pct},
             "ms");
  out.push_back({"engine.wave_s", wave_s, "s", ""});
  out.push_back({"engine.wave_efficiency",
                 replay.sequential_solve_seconds /
                     (replay.wave_seconds * std::max(replay.wave_threads, 1)),
                 "ratio", StringF("%d threads", replay.wave_threads)});
  out.push_back({"engine.make_controller_us", SpanP50(run, "engine.MakeController"), "us", ""});
  out.push_back({"kernel.pmf_blocks_built", static_cast<double>(built), "count", ""});
  out.push_back({"kernel.pmf_share_ratio",
                 static_cast<double>(shared) /
                     static_cast<double>(std::max<int64_t>(built + shared, 1)),
                 "ratio", ""});
  out.push_back({"kernel.scan_ns_per_cell", SpanP50(run, "kernel.ScanLayer") * 1e3, "ns", ""});
  out.push_back({"router.forward_us_p50", SpanP50(run, "router.DecideBatchLines"), "us", ""});
  out.push_back({"router.split_join_us", SpanP50(run, "router.SplitJoin"), "us", ""});
  out.push_back({"router.unavailable",
                 static_cast<double>(l.router_unavailable) + replay.router_unavailable,
                 "count", ""});
  out.push_back({"loadgen.lag_p99_ms", l.lag_p99_ms, "ms", ""});
  out.push_back(l.decide_p99);
  out.push_back({"max_sheets_per_s", l.max_sheets_per_s, "1/s", ""});
  out.push_back({"trace.overhead_frac",
                 (l.traced_p50_ms - l.untraced_p50_ms) / l.untraced_p50_ms, "ratio", ""});
  out.push_back({"failed_frac",
                 static_cast<double>(run.failed.load()) / std::max(attempted, 1.0),
                 "ratio", ""});

  // Self-check: the breakdown adds up, and no part outgrows its whole.
  const auto require = [&run](bool ok, const std::string& what) {
    if (!ok) {
      run.self_check_ok = false;
      run.notes.push_back("SELF-CHECK FAILED: " + what);
    }
  };
  const double whole_us = l.traced_p50_ms * 1e3;
  require(residual >= 0.0, StringF("net.server_residual_us = %.2f < 0", residual));
  require(l.rtt_us.p50 <= whole_us, "client rtt p50 exceeds decide p50");
  for (double part : {enc_req, dec_req, enc_resp, dec_resp, serving_us}) {
    require(part <= l.rtt_us.p50, "a wire or serving part exceeds the rtt p50");
  }
  if (run.config.routed) {
    require(SpanP50(run, "router.DecideBatchLines") <= whole_us,
            "router forward p50 exceeds decide p50");
  }
  if (l.admit_p50_ms > 0.0) {
    require(solve.p50 / 1e3 <= l.admit_p50_ms, "solve p50 exceeds admit p50");
    require(SpanP50(run, "serving.Apply/admit") / 1e3 <= apply.p50 / 1e3,
            "in-process admit exceeds the client's Apply p50");
    require((SpanP50(run, "wire.SerializeControlOp") +
             SpanP50(run, "wire.DeserializeControlOp")) / 1e3 <= l.admit_p50_ms,
            "control codec exceeds admit p50");
  }
}

void ReportReplay(Run& run, const ReplayCounts& replay) {
  run.attempted.fetch_add(replay.attempted, std::memory_order_relaxed);
  if (replay.failed > 0) {
    run.Fail(replay.failed, "replay: " + (replay.failures.empty()
                                              ? std::string("failures")
                                              : replay.failures.front()));
  }
}

void CheckValidity(Run& run, const char* what, const Summary& lag,
                   double limit_ms) {
  if (lag.tail > limit_ms) {
    run.valid = false;
    run.notes.push_back(StringF(
        "INVALID: the generator fell behind its %s schedule by %.3f ms at "
        "p%.2f, beyond the %.1f ms limit",
        what, lag.tail, lag.tail_pct, limit_ms));
  }
}

// ------------------------------------------------------------ decide-*

Status RunDecide(Run& run) {
  const WorkloadConfig& cfg = run.config;
  SeedRng rng(run.options.seed);
  const std::vector<Campaign> fleet =
      run.market->MakeFleet(cfg.fleet, cfg.deadline_per_4, rng);
  CP_ASSIGN_OR_RETURN(std::vector<Placed> placed, SolveFleet(run, fleet));
  CP_ASSIGN_OR_RETURN(serving::CampaignShardMap oracle,
                      serving::CampaignShardMap::Create(1));
  std::vector<serving::CampaignId> local(placed.size());
  for (size_t i = 0; i < placed.size(); ++i) {
    CP_RETURN_IF_ERROR(AdmitToOracle(oracle, placed[i], &local[i]));
  }

  SetUpStats setups;
  CP_ASSIGN_OR_RETURN(Ready ready, MeasuredSetUp(run, placed, &setups,
                                                 run.trace_or_null()));

  std::vector<PoolTraffic::Batch> pool(kDecidePool);
  for (PoolTraffic::Batch& b : pool) {
    for (int r = 0; r < cfg.batch; ++r) {
      const size_t idx = rng.Below(fleet.size());
      serving::DecideRequest request;
      request.campaign_id = ready.ids[idx];
      request.request = Market::MakeRequest(fleet[idx], rng);
      CP_ASSIGN_OR_RETURN(market::OfferSheet sheet,
                          oracle.Decide(local[idx], request.request));
      b.requests.push_back(std::move(request));
      b.expected.push_back(std::move(sheet));
    }
  }
  PoolTraffic traffic(std::move(pool));

  std::vector<net::PricingClient> clients;
  for (int c = 0; c < cfg.conns; ++c) {
    CP_ASSIGN_OR_RETURN(net::PricingClient client, Dial(ready.deployment.front));
    clients.push_back(std::move(client));
  }
  {
    auto first = clients[0].DecideBatch(traffic.Prepare(0, 0));
    CP_RETURN_IF_ERROR(first.status());
    std::string why;
    run.self_test_ok = OracleCatchesCorruption(traffic, 0, *first, &why);
    if (!run.self_test_ok) run.notes.push_back("ORACLE SELF-TEST FAILED: " + why);
  }

  const double s = run.options.seconds;
  if (!run.options.trace) {
    Windowed fixed(cfg.window_s);
    Recorder lag_ms;
    for (int k = 0; k < kSegments; ++k) {
      const LoopStats segment = RunFixed(run, clients, traffic, s / kSegments);
      fixed.Append(segment.latency_ms);
      lag_ms.Merge(segment.lag_ms);
      if (setups.setup_s.count() < kSetups) {
        CP_RETURN_IF_ERROR(ExtraSetUp(run, placed, &setups));
      }
    }
    const Teardown t = Stop(&ready.deployment);
    if (t.protocol_errors > 0 || !t.clean) {
      run.Fail(std::max(t.protocol_errors, 1L),
               StringF("servers: %ld protocol errors, clean exit %d",
                       t.protocol_errors, t.clean));
    }
    CheckValidity(run, "decide", lag_ms.Summarize(), cfg.limit_ms);
    run.end_to_end.push_back(WindowMedian(run, "decide_p50_ms", fixed, "ms"));
    run.ungated.push_back(DecideTail(run, fixed));
    AddLatency(run, &run.end_to_end, "admit_p50_ms", "admit_p99_ms",
               setups.admit_ms);
    run.end_to_end.push_back(WindowMedian(run, "reprice_campaigns_per_s",
                                          setups.admit_rate, "1/s"));
    run.end_to_end.push_back(WindowMedian(run, "setup_s", setups.setup_s, "s"));
    run.end_to_end.push_back({"server_peak_rss_mb", t.rss_mb, "MB", ""});
    return Status::OK();
  }

  const double half_s = 0.5 * (1.0 - kLadderShare) * s;
  const LoopStats untraced = RunFixed(run, clients, traffic, half_s);
  DecideCapture decide_capture;
  decide_capture.max = kCaptureBatches;
  const LoopStats traced =
      RunFixed(run, clients, traffic, half_s, &run.tracer, &decide_capture);
  const double max_sheets =
      MaxSheetsPerS(run, clients, traffic, kLadderShare * s);
  Capture capture;
  capture.batches = std::move(decide_capture.batches);
  capture.responses = std::move(decide_capture.responses);
  for (size_t i = 0; i < placed.size(); ++i) {
    capture.campaigns[ready.ids[i]] = placed[i];
    if (fleet[i].kind == Kind::kDeadline && capture.control.size() < kCaptureControl) {
      capture.control.push_back({false, 0, placed[i]});
    }
  }
  const double factor = 0.8 + 0.4 * rng.Unit();
  for (Campaign c : fleet) {
    c.rate_scale = factor;
    capture.wave.push_back(c);
  }
  capture.backends = ready.deployment.endpoints;
  capture.fleet_frozen = true;
  CP_ASSIGN_OR_RETURN(ReplayCounts replay,
                      Replay(capture, *run.market, &run.tracer));
  ReportReplay(run, replay);
  const Teardown t = Stop(&ready.deployment);
  if (t.protocol_errors > 0 || !t.clean) {
    run.Fail(std::max(t.protocol_errors, 1L), "servers reported protocol errors");
  }
  LoopStats both = untraced;
  both.Merge(traced);
  const Summary lag = both.lag_ms.Summarize();
  CheckValidity(run, "decide", lag, cfg.limit_ms);
  Layer l;
  l.rtt_us = run.tracer.DurationsUs("client.DecideBatch").Summarize();
  l.traced_p50_ms = traced.latency_ms.Pooled().Summarize().p50;
  l.untraced_p50_ms = untraced.latency_ms.Pooled().Summarize().p50;
  l.lag_p99_ms = lag.tail;
  l.decide_p99 = DecideTail(run, untraced.latency_ms);
  l.max_sheets_per_s = max_sheets;
  l.protocol_errors = t.protocol_errors;
  l.router_unavailable = t.unavailable;
  PerLayer(run, l, replay);
  return Status::OK();
}

// ----------------------------------------------------------------- reprice

/// One live campaign as the generator tracks it. The oracle holds every
/// version the server may be playing: `current` once a swap is acked,
/// `pending` while one is in flight.
struct Slot {
  Campaign campaign;
  serving::CampaignId remote = 0;
  serving::CampaignId current = 0;
  serving::CampaignId pending = 0;
  bool retiring = false;
  bool retired = false;
};

/// The live fleet, shared by the admit, wave and poll connections.
struct LiveFleet {
  std::mutex mu;
  std::vector<std::shared_ptr<Slot>> live;  ///< Oldest first.
  /// Superseded oracle versions, reaped a grace period later.
  std::vector<std::pair<serving::CampaignId, Clock::time_point>> graveyard;
  /// Latest artifact per server id, for the replay.
  std::map<serving::CampaignId, Placed> latest;
};

/// reprice's fleet-wide poll. A response must match some version the
/// campaign played while the poll was in flight; NotFound is right only
/// for a campaign retired meanwhile.
class PollTraffic final : public Traffic {
 public:
  PollTraffic(LiveFleet* fleet, serving::CampaignShardMap* oracle, int batch,
              uint64_t seed)
      : fleet_(fleet), oracle_(oracle), batch_(batch), rng_(seed) {}

  const std::vector<serving::DecideRequest>& Prepare(int, uint64_t) override {
    requests_.clear();
    seen_.clear();
    std::lock_guard<std::mutex> lock(fleet_->mu);
    std::vector<const std::shared_ptr<Slot>*> open;
    for (const auto& slot : fleet_->live) {
      if (!slot->retiring) open.push_back(&slot);
    }
    for (int i = 0; i < batch_ && !open.empty(); ++i) {
      const std::shared_ptr<Slot>& slot = *open[rng_.Below(open.size())];
      serving::DecideRequest r;
      r.campaign_id = slot->remote;
      r.request = Market::MakeRequest(slot->campaign, rng_);
      requests_.push_back(std::move(r));
      seen_.push_back({slot, slot->current, slot->pending});
    }
    return requests_;
  }

  int64_t Check(int, uint64_t,
                const Result<std::vector<serving::DecideResponse>>& answer) override {
    return CheckAnswer(requests_, answer,
                       [this](size_t i, const serving::DecideResponse& r) {
                         return Right(i, r);
                       });
  }

 private:
  struct Seen {
    std::shared_ptr<Slot> slot;
    serving::CampaignId current = 0;
    serving::CampaignId pending = 0;
  };

  bool Right(size_t i, const serving::DecideResponse& r) {
    const Seen& seen = seen_[i];
    serving::CampaignId now_current = 0, now_pending = 0;
    bool gone = false;
    {
      std::lock_guard<std::mutex> lock(fleet_->mu);
      now_current = seen.slot->current;
      now_pending = seen.slot->pending;
      gone = seen.slot->retiring || seen.slot->retired;
    }
    if (!r.status.ok()) return gone && r.status.IsNotFound();
    for (serving::CampaignId v : {seen.current, seen.pending, now_current, now_pending}) {
      if (v == 0) continue;
      auto expected = oracle_->Decide(v, requests_[i].request);
      if (expected.ok() && SameSheet(*expected, r.sheet)) return true;
    }
    return false;
  }

  LiveFleet* fleet_;
  serving::CampaignShardMap* oracle_;
  int batch_;
  SeedRng rng_;
  std::vector<serving::DecideRequest> requests_;
  std::vector<Seen> seen_;
};

struct RepriceSamples {
  RepriceSamples(double window_s, Clock::time_point origin)
      : admit_ms(window_s, origin) {}
  std::mutex mu;
  /// Admits scheduled in the measured window.
  Windowed admit_ms;
  Recorder admit_lag_ms;
  /// Campaigns/s of waves started in the window, one window per wave.
  Windowed wave_rate;
  std::vector<std::pair<Campaign, std::shared_ptr<const engine::PolicyArtifact>>>
      determinism;         ///< Sampled wave artifacts with their campaigns.
  std::vector<CapturedControl> control;
  std::vector<Campaign> last_wave;
};

Status RunReprice(Run& run) {
  const WorkloadConfig& cfg = run.config;
  SeedRng rng(run.options.seed);
  const std::vector<Campaign> initial =
      run.market->MakeFleet(cfg.fleet, cfg.deadline_per_4, rng);
  const std::vector<Campaign> arrivals =
      run.market->MakeFleet(cfg.fleet, cfg.deadline_per_4, rng);
  CP_ASSIGN_OR_RETURN(std::vector<Placed> placed, SolveFleet(run, initial));
  CP_ASSIGN_OR_RETURN(serving::CampaignShardMap oracle,
                      serving::CampaignShardMap::Create(1));

  SetUpStats setups;
  for (int i = 1; i < (run.options.trace ? 1 : kSetups); ++i) {
    CP_RETURN_IF_ERROR(ExtraSetUp(run, placed, &setups));
  }
  CP_ASSIGN_OR_RETURN(Ready ready, MeasuredSetUp(run, placed, &setups, nullptr));
  LiveFleet live;
  for (size_t i = 0; i < placed.size(); ++i) {
    auto slot = std::make_shared<Slot>();
    slot->campaign = initial[i];
    slot->remote = ready.ids[i];
    CP_RETURN_IF_ERROR(AdmitToOracle(oracle, placed[i], &slot->current));
    live.live.push_back(slot);
    live.latest[slot->remote] = placed[i];
  }

  std::vector<net::PricingClient> control;  // [0] admits, [1] waves
  for (int i = 0; i < 2; ++i) {
    CP_ASSIGN_OR_RETURN(net::PricingClient c, Dial(ready.deployment.front));
    control.push_back(std::move(c));
  }
  net::PricingClient* admit_client = &control[0];
  std::vector<net::PricingClient> poll_clients;
  {
    CP_ASSIGN_OR_RETURN(net::PricingClient c, Dial(ready.deployment.front));
    poll_clients.push_back(std::move(c));
  }
  PollTraffic traffic(&live, &oracle, cfg.batch, run.options.seed ^ 0x5eedULL);
  {
    auto first = poll_clients[0].DecideBatch(traffic.Prepare(0, 0));
    CP_RETURN_IF_ERROR(first.status());
    std::string why;
    run.self_test_ok = OracleCatchesCorruption(traffic, 0, *first, &why);
    if (!run.self_test_ok) run.notes.push_back("ORACLE SELF-TEST FAILED: " + why);
  }

  const double s = run.options.seconds;
  // The writers run through the fixed-rate polls; a traced run's ladder
  // follows once they stop.
  const double half_s = 0.5 * (1.0 - kLadderShare) * s;
  const double measured_s = run.options.trace ? 2.0 * half_s : s;
  const Clock::time_point start = Clock::now();
  const Clock::time_point window_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(measured_s));
  std::atomic<bool> stop{false};
  // Control-path spans are recorded only in the traced half.
  std::atomic<bool> tracing{false};
  RepriceSamples samples(cfg.window_s, start);
  kernel::PmfShareCache admit_cache(kCacheBytes);
  kernel::PmfShareCache wave_cache(kCacheBytes);

  const auto sleep_until = [&stop](Clock::time_point t) {
    while (!stop.load() && Clock::now() < t) {
      std::this_thread::sleep_until(
          std::min(t, Clock::now() + std::chrono::milliseconds(50)));
    }
    return !stop.load();
  };
  const auto reap = [&live, &oracle](Clock::time_point before) {
    std::vector<serving::CampaignId> dead;
    {
      std::lock_guard<std::mutex> lock(live.mu);
      auto& g = live.graveyard;
      for (auto it = g.begin(); it != g.end();) {
        if (it->second < before) {
          dead.push_back(it->first);
          it = g.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (serving::CampaignId id : dead) {
      static_cast<void>(oracle.Apply(serving::ControlOp::Retire(id)));
    }
  };

  std::thread admits([&] {
    Tracer::Buffer* buf = run.tracer.NewBuffer();
    Clock::time_point free_at = start;
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point sched =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k / cfg.admit_rate));
      if (!sleep_until(sched)) break;
      const Clock::time_point began = Clock::now();
      const double lag = Seconds(began - std::max(sched, free_at));
      SeedRng draw(run.options.seed * 0x9e3779b97f4a7c15ULL + k);
      Campaign c = arrivals[k % arrivals.size()];
      c.penalty_cents = 150.0 + 150.0 * draw.Unit();
      Tracer* tracer = tracing.load() ? &run.tracer : nullptr;
      run.attempted.fetch_add(1, std::memory_order_relaxed);
      Placed p;
      Result<serving::CampaignId> id = Status::Internal("unset");
      {
        ScopedSpan admit_span(tracer, buf,
                              c.kind == Kind::kDeadline ? "loadgen.admit/deadline"
                                                        : "loadgen.admit/static",
                              k);
        auto spec = run.market->Spec(c, &admit_cache);
        if (!spec.ok()) {
          run.Fail(1, "arrival spec: " + spec.status().ToString());
          continue;
        }
        Result<engine::PolicyArtifact> artifact = Status::Internal("unset");
        {
          ScopedSpan span(tracer, buf,
                          c.kind == Kind::kDeadline ? "engine.Solve/deadline"
                                                    : "engine.Solve/static",
                          k, admit_span.id());
          artifact = engine::Engine::Solve(*spec);
        }
        if (!artifact.ok()) {
          run.Fail(1, "arrival solve: " + artifact.status().ToString());
          continue;
        }
        p = Placed{std::make_shared<const engine::PolicyArtifact>(
                       std::move(artifact).value()),
                   c.limits};
        ScopedSpan span(tracer, buf, "client.Apply", k, admit_span.id());
        id = admit_client->AdmitShared(p.artifact, p.limits);
      }
      const Clock::time_point acked = Clock::now();
      free_at = acked;
      if (!id.ok()) {
        run.Fail(1, "admit: " + id.status().ToString());
        static_cast<void>(admit_client->Reconnect());
        continue;
      }
      auto slot = std::make_shared<Slot>();
      slot->campaign = c;
      slot->remote = *id;
      if (!AdmitToOracle(oracle, p, &slot->current).ok()) {
        run.Fail(1, "oracle admit failed");
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(live.mu);
        live.live.push_back(slot);
        live.latest[slot->remote] = p;
      }
      std::lock_guard<std::mutex> lock(samples.mu);
      if (sched < window_end) {
        samples.admit_ms.Add(Seconds(sched - start),
                             (Seconds(acked - sched) - lag) * 1e3);
        samples.admit_lag_ms.Add(lag * 1e3);
      }
      if (tracer != nullptr && c.kind == Kind::kDeadline &&
          samples.control.size() < kCaptureControl) {
        samples.control.push_back({false, 0, p});
      }
    }
  });

  std::thread waves([&] {
    Tracer::Buffer* buf = run.tracer.NewBuffer();
    engine::SolverPool pool(1, /*background=*/false);
    net::PricingClient& client = control[1];
    SeedRng draw(run.options.seed ^ 0xa5a5a5a5ULL);
    for (uint64_t w = 0;; ++w) {
      const Clock::time_point sched =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(0.5 + w * cfg.wave_period_s));
      if (!sleep_until(sched)) break;
      reap(Clock::now() - std::chrono::seconds(1));
      Tracer* tracer = tracing.load() ? &run.tracer : nullptr;
      std::vector<std::shared_ptr<Slot>> retire, wave;
      {
        std::lock_guard<std::mutex> lock(live.mu);
        const size_t excess =
            live.live.size() > static_cast<size_t>(cfg.fleet)
                ? live.live.size() - static_cast<size_t>(cfg.fleet)
                : 0;
        for (size_t i = 0; i < live.live.size(); ++i) {
          if (i < excess) {
            live.live[i]->retiring = true;
            retire.push_back(live.live[i]);
          } else {
            wave.push_back(live.live[i]);
          }
        }
      }
      for (const auto& slot : retire) {
        run.attempted.fetch_add(1, std::memory_order_relaxed);
        const Status st = client.Retire(slot->remote);
        if (!st.ok()) run.Fail(1, "retire: " + st.ToString());
        std::lock_guard<std::mutex> lock(live.mu);
        slot->retired = true;
        live.graveyard.emplace_back(slot->current, Clock::now());
        // A traced run replays the campaigns its captured polls named.
        if (!run.options.trace) live.latest.erase(slot->remote);
        live.live.erase(std::find(live.live.begin(), live.live.end(), slot));
      }
      // A fresh rescale per wave: the rates are new, so the pmf cache
      // misses on every wave's first solves.
      const double factor = 0.8 + 0.4 * draw.Unit();
      std::vector<Campaign> campaigns;
      std::vector<engine::PolicySpec> specs;
      bool specs_ok = true;
      for (const auto& slot : wave) {
        Campaign c = slot->campaign;
        c.rate_scale = factor;
        auto spec = run.market->Spec(c);
        if (!spec.ok()) {
          specs_ok = false;
          break;
        }
        campaigns.push_back(c);
        specs.push_back(std::move(spec).value());
      }
      if (!specs_ok) {
        run.Fail(1, "wave spec failed");
        continue;
      }
      const Clock::time_point first = Clock::now();
      engine::SolveWaveOptions options;
      options.pool = &pool;
      options.share_cache = &wave_cache;
      std::vector<Result<engine::PolicyArtifact>> solved;
      {
        ScopedSpan span(tracer, buf, "engine.SolveWave", w);
        solved = engine::SolveWave(specs, options);
      }
      bool complete = true;
      for (size_t j = 0; j < wave.size(); ++j) {
        if (stop.load()) {
          complete = false;
          break;
        }
        run.attempted.fetch_add(1, std::memory_order_relaxed);
        if (!solved[j].ok()) {
          run.Fail(1, "wave solve: " + solved[j].status().ToString());
          continue;
        }
        Slot& slot = *wave[j];
        Placed p{std::make_shared<const engine::PolicyArtifact>(
                     std::move(solved[j]).value()),
                 slot.campaign.limits};
        serving::CampaignId version = 0;
        if (!AdmitToOracle(oracle, p, &version).ok()) {
          run.Fail(1, "oracle admit failed");
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(live.mu);
          slot.pending = version;
        }
        Status st;
        {
          ScopedSpan span(tracer, buf, "client.Apply", slot.remote);
          st = client.SwapArtifactShared(slot.remote, p.artifact);
        }
        std::lock_guard<std::mutex> lock(live.mu);
        slot.pending = 0;
        if (!st.ok()) {
          run.Fail(1, "swap: " + st.ToString());
          live.graveyard.emplace_back(version, Clock::now());
          continue;
        }
        live.graveyard.emplace_back(slot.current, Clock::now());
        slot.current = version;
        slot.campaign.rate_scale = factor;
        live.latest[slot.remote] = p;
        std::lock_guard<std::mutex> sample_lock(samples.mu);
        if (j % 16 == 0) samples.determinism.emplace_back(campaigns[j], p.artifact);
        if (tracer != nullptr && campaigns[j].kind == Kind::kDeadline &&
            samples.control.size() < kCaptureControl) {
          samples.control.push_back({true, slot.remote, p});
        }
      }
      const double wall = Seconds(Clock::now() - first);
      std::lock_guard<std::mutex> lock(samples.mu);
      if (complete && sched < window_end && !wave.empty()) {
        samples.wave_rate.AddTo(w, static_cast<double>(wave.size()) / wall,
                                first, Clock::now());
      }
      if (complete) samples.last_wave = campaigns;
    }
  });

  LoopStats decide(cfg.window_s, start), untraced(cfg.window_s, start),
      traced(cfg.window_s, start);
  double max_sheets = 0.0;
  DecideCapture decide_capture;
  decide_capture.max = kCapturePolls;
  const auto stop_writers = [&] {
    stop.store(true);
    admits.join();
    waves.join();
  };
  if (!run.options.trace) {
    decide = RunFixed(run, poll_clients, traffic, measured_s);
    stop_writers();
  } else {
    untraced = RunFixed(run, poll_clients, traffic, half_s);
    tracing.store(true);
    traced = RunFixed(run, poll_clients, traffic, half_s, &run.tracer,
                      &decide_capture);
    stop_writers();
    // The ladder runs on the churned fleet once the writers stop: it
    // measures the poll's DecideBatch pool path, not the write bursts.
    max_sheets = MaxSheetsPerS(run, poll_clients, traffic, kLadderShare * s);
  }

  // Determinism oracle: sampled wave artifacts against sequential solves.
  for (const auto& [campaign, artifact] : samples.determinism) {
    run.attempted.fetch_add(1, std::memory_order_relaxed);
    auto spec = run.market->Spec(campaign);
    auto solo = spec.ok() ? engine::Engine::Solve(*spec)
                          : Result<engine::PolicyArtifact>(spec.status());
    auto a = artifact->Serialize();
    auto b = solo.ok() ? solo->Serialize() : Result<std::string>(solo.status());
    if (!a.ok() || !b.ok() || *a != *b) {
      run.Fail(1, "a SolveWave artifact differs from sequential Engine::Solve");
    }
  }
  run.notes.push_back(StringF("%zu wave artifacts re-solved sequentially",
                              samples.determinism.size()));

  const Summary admit_lag = samples.admit_lag_ms.Summarize();
  CheckValidity(run, "admit", admit_lag, cfg.admit_limit_ms);
  if (!run.options.trace) {
    const Teardown t = Stop(&ready.deployment);
    if (t.protocol_errors > 0 || !t.clean) {
      run.Fail(std::max(t.protocol_errors, 1L), "server reported protocol errors");
    }
    CheckValidity(run, "poll", decide.lag_ms.Summarize(), cfg.limit_ms);
    run.end_to_end.push_back(
        WindowMedian(run, "decide_p50_ms", decide.latency_ms, "ms"));
    run.ungated.push_back(DecideTail(run, decide.latency_ms));
    AddLatency(run, &run.end_to_end, "admit_p50_ms", "admit_p99_ms",
               samples.admit_ms);
    run.end_to_end.push_back(WindowMedian(run, "reprice_campaigns_per_s",
                                          samples.wave_rate, "1/s"));
    run.end_to_end.push_back(WindowMedian(run, "setup_s", setups.setup_s, "s"));
    run.end_to_end.push_back({"server_peak_rss_mb", t.rss_mb, "MB", ""});
    return Status::OK();
  }

  Capture capture;
  capture.batches = std::move(decide_capture.batches);
  capture.responses = std::move(decide_capture.responses);
  capture.control = samples.control;
  {
    std::lock_guard<std::mutex> lock(live.mu);
    for (const auto& batch : capture.batches) {
      for (const serving::DecideRequest& r : batch) {
        const auto it = live.latest.find(r.campaign_id);
        if (it != live.latest.end()) capture.campaigns[r.campaign_id] = it->second;
      }
    }
  }
  capture.wave = samples.last_wave;
  capture.backends = ready.deployment.endpoints;
  CP_ASSIGN_OR_RETURN(ReplayCounts replay,
                      Replay(capture, *run.market, &run.tracer));
  ReportReplay(run, replay);
  const Teardown t = Stop(&ready.deployment);
  if (t.protocol_errors > 0 || !t.clean) {
    run.Fail(std::max(t.protocol_errors, 1L), "server reported protocol errors");
  }
  LoopStats both = untraced;
  both.Merge(traced);
  CheckValidity(run, "poll", both.lag_ms.Summarize(), cfg.limit_ms);
  Recorder lag = both.lag_ms;
  lag.Merge(samples.admit_lag_ms);
  Layer l;
  l.rtt_us = run.tracer.DurationsUs("client.DecideBatch").Summarize();
  l.traced_p50_ms = traced.latency_ms.Pooled().Summarize().p50;
  l.untraced_p50_ms = untraced.latency_ms.Pooled().Summarize().p50;
  l.lag_p99_ms = lag.Summarize().tail;
  l.decide_p99 = DecideTail(run, untraced.latency_ms);
  l.max_sheets_per_s = max_sheets;
  l.protocol_errors = t.protocol_errors;
  l.admit_p50_ms =
      run.tracer.DurationsUs("loadgen.admit/deadline").Summarize().p50 / 1e3;
  l.wave_s = run.tracer.DurationsUs("engine.SolveWave").Summarize().p50 / 1e6;
  const kernel::PmfArena::Stats share = wave_cache.stats();
  l.pmf_built = share.blocks_built;
  l.pmf_shared = share.blocks_shared;
  PerLayer(run, l, replay);
  return Status::OK();
}

// ----------------------------------------------------------------- output

std::string MetricsJson(const std::vector<Metric>& metrics, bool notes) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += StringF("%s%s: {\"value\": %.17g, \"unit\": %s", i > 0 ? ", " : "",
                   JsonString(m.name).c_str(),
                   std::isfinite(m.value) ? m.value : -1.0,
                   JsonString(m.unit).c_str());
    if (notes && !m.note.empty()) out += ", \"samples\": " + JsonString(m.note);
    out += "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  auto options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n",
                 options.status().ToString().c_str());
    return 2;
  }
  Run run;
  run.options = *options;
  if (run.options.workload == "decide-direct") {
    run.config = DecideDirect();
  } else if (run.options.workload == "decide-routed") {
    run.config = DecideRouted();
  } else if (run.options.workload == "reprice") {
    run.config = Reprice();
  } else {
    std::fprintf(stderr, "perfbench_loadgen: unknown workload %s\n",
                 run.options.workload.c_str());
    return 2;
  }
  auto market = Market::Create();
  if (!market.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n",
                 market.status().ToString().c_str());
    return 1;
  }
  run.market = std::move(market).value();
  const Fingerprint fingerprint = Fingerprint::Detect();

  const CpuTimes cpu_start = CpuTimes::Read();
  const Status status =
      run.config.reprice ? RunReprice(run) : RunDecide(run);
  const double steal = CpuTimes::Read().StealSince(cpu_start);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: %s failed: %s\n",
                 run.config.name, status.ToString().c_str());
    for (const std::string& f : run.failures) {
      std::fprintf(stderr, "  failure: %s\n", f.c_str());
    }
    return 1;
  }

  const int64_t attempted = std::max<int64_t>(run.attempted.load(), 1);
  const int64_t failed = run.failed.load();
  const bool correct = failed == 0 && run.self_test_ok && run.self_check_ok &&
                       run.valid;
  const std::vector<Metric>& metrics =
      run.options.trace ? run.per_layer : run.end_to_end;

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", run.config.name,
              static_cast<unsigned long long>(run.options.seed),
              run.options.seconds, run.options.trace ? 1 : 0);
  std::printf("host %s, CPU steal during the run %.1f %%\n",
              fingerprint.ToJson().c_str(), 100.0 * steal);
  for (const std::string& note : run.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& f : run.failures) std::printf("  failure: %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : run.ungated) {
    std::printf("  %-30s %14.6g %-6s ungated; %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const std::string tag = StringF("%s_seed%llu_trace%d", run.config.name,
                                  static_cast<unsigned long long>(run.options.seed),
                                  run.options.trace ? 1 : 0);
  const std::string header = StringF(
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
      "\"fingerprint\": %s, \"host_steal_frac\": %.6f",
      JsonString(run.config.name).c_str(),
      static_cast<unsigned long long>(run.options.seed), run.options.seconds,
      run.options.trace ? 1 : 0, fingerprint.ToJson().c_str(), steal);
  if (run.options.trace) {
    const std::string path = run.options.out_dir + "/spans_" + tag + ".json";
    const Status written = run.tracer.WriteJson(path, header);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench_loadgen: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("  %zu spans written to %s\n", run.tracer.size(), path.c_str());
  }
  std::string failures = "[";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonString(run.failures[i]);
  }
  failures += "]";
  std::ofstream record(run.options.out_dir + "/result_" + tag + ".json");
  record << "{" << header
         << StringF(", \"correct\": %s, \"valid\": %s, \"attempted\": %lld, "
                    "\"failed\": %lld, \"failures\": %s, \"metrics\": %s, "
                    "\"ungated\": %s}\n",
                    correct ? "true" : "false", run.valid ? "true" : "false",
                    static_cast<long long>(attempted),
                    static_cast<long long>(failed), failures.c_str(),
                    MetricsJson(metrics, true).c_str(),
                    MetricsJson(run.ungated, true).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
