// The decide-batch load generator the serving benches share.
//
// bench_serving_remote and bench_serving_router time decides the way a
// remote client sees them: load-generator *processes*, each holding one
// TCP connection, stream decide-batch frames at a fleet of campaigns that
// share one solved artifact. A LoadGenerator forks those processes when it
// is built, and they idle in a pipe-driven round loop: for each round the
// parent writes each participating child a fixed-size RoundConfig; the
// child connects, streams its batches, disconnects, and writes back a
// fixed-size RoundResult, which the parent merges. Closing a child's
// config pipe ends its loop.
//
// Every batch's round trip lands in a quarter-octave microsecond
// histogram (bucket i covers [2^(i/4), 2^((i+1)/4)) us), so a quantile is
// known to within 2^(1/4), about 19 %, and a child's histogram fits in its
// fixed-size result.

#ifndef CROWDPRICE_BENCH_LOAD_GEN_H_
#define CROWDPRICE_BENCH_LOAD_GEN_H_

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "choice/acceptance.h"
#include "engine/engine.h"
#include "net/client.h"
#include "serving/campaign_shard_map.h"

namespace crowdprice::bench {

/// Campaigns in the serving fleet; every RoundConfig carries all their ids.
inline constexpr int kServingCampaigns = 64;

/// Per-batch round trips in microseconds, in quarter-octave buckets.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 96;  ///< Quarter octaves up to ~16 s.

  void Record(double micros) {
    const int bucket =
        micros < 1.0 ? 0 : static_cast<int>(4.0 * std::log2(micros));
    ++counts_[std::min(bucket, kBuckets - 1)];
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  }

  /// The q-quantile in milliseconds: the geometric midpoint of the bucket
  /// that holds it. 0 when nothing was recorded.
  double QuantileMs(double q) const {
    uint64_t total = 0;
    for (const uint64_t count : counts_) total += count;
    if (total == 0) return 0.0;
    const auto target = static_cast<uint64_t>(q * static_cast<double>(total));
    uint64_t seen = 0;
    int bucket = 0;
    for (; bucket < kBuckets - 1; ++bucket) {
      seen += counts_[bucket];
      if (seen > target) break;
    }
    return std::exp2((static_cast<double>(bucket) + 0.5) / 4.0) / 1000.0;
  }

 private:
  uint64_t counts_[kBuckets] = {};
};

/// One round's marching orders, parent -> child over a pipe.
struct RoundConfig {
  uint32_t port = 0;
  int32_t batch_size = 0;
  int32_t batches = 0;
  uint64_t campaign_ids[kServingCampaigns] = {};
};

/// One child's round, child -> parent; RunRound merges them.
struct RoundResult {
  int64_t batches_completed = 0;
  int64_t sheets = 0;  ///< Requests answered with a sheet.
  int64_t failures = 0;
  double seconds = 0.0;  ///< Merged: the slowest child's.
  LatencyHistogram latency;

  double SheetsPerSec() const {
    return seconds > 0.0 ? static_cast<double>(sheets) / seconds : 0.0;
  }
};

static_assert(std::is_trivially_copyable_v<RoundConfig> &&
                  std::is_trivially_copyable_v<RoundResult>,
              "round messages cross the pipes as raw bytes");

/// Solves the artifact every serving-bench campaign shares: a 20-task,
/// 8-interval deadline plan over the paper's logit price grid.
inline std::shared_ptr<const engine::PolicyArtifact> SolveServingArtifact() {
  engine::DeadlineDpSpec spec;
  spec.problem.num_tasks = 20;
  spec.problem.num_intervals = 8;
  spec.problem.penalty_cents = 150.0;
  spec.interval_lambdas.assign(8, 60.0);
  auto actions = pricing::ActionSet::FromPriceGrid(
      30, choice::LogitAcceptance::Paper2014());
  DieOnError(actions.status(), "actions");
  spec.actions = std::move(actions).value();
  return std::make_shared<const engine::PolicyArtifact>(
      SolveOrDie(spec, "solve"));
}

/// Admits the fleet -- kServingCampaigns campaigns sharing `artifact`, 20
/// tasks and 8 hours each -- through `target` (a CampaignShardMap or a
/// CampaignRouter) and records their ids in `round`.
template <typename Target>
void AdmitServingFleet(
    Target& target,
    const std::shared_ptr<const engine::PolicyArtifact>& artifact,
    RoundConfig* round) {
  serving::CampaignLimits limits;
  limits.total_tasks = 20;
  limits.deadline_hours = 8.0;
  for (uint64_t& id : round->campaign_ids) {
    auto admitted =
        target.Apply(serving::ControlOp::AdmitShared(artifact, limits));
    DieOnError(admitted.status(), "admit");
    id = admitted->id;
  }
}

/// A pool of forked load-generator processes, driven a round at a time.
class LoadGenerator {
 public:
  /// Forks `num_children` generators. Precondition: no thread has started
  /// in this process yet -- the engine solve, servers and routers all
  /// start some, and a forked child would inherit their locks in whatever
  /// state they were. Dies on a pipe or fork failure.
  explicit LoadGenerator(int num_children) {
    std::fflush(stdout);  // Or each child would print it again.
    for (int i = 0; i < num_children; ++i) {
      int to_child[2];
      int to_parent[2];
      if (pipe(to_child) != 0 || pipe(to_parent) != 0) DieErrno("pipe");
      const pid_t pid = fork();
      if (pid < 0) DieErrno("fork");
      if (pid == 0) {
        close(to_child[1]);
        close(to_parent[0]);
        for (const Child& sibling : children_) {
          close(sibling.config_fd);
          close(sibling.result_fd);
        }
        ChildLoop(to_child[0], to_parent[1], i);
      }
      close(to_child[0]);
      close(to_parent[1]);
      children_.push_back(Child{pid, to_child[1], to_parent[0]});
    }
  }

  ~LoadGenerator() { Stop(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// One round: the first `participants` children each stream
  /// `config.batches` batches at `config.port`; the rest sit it out.
  /// Returns the participants' results merged.
  RoundResult RunRound(const RoundConfig& config, int participants) {
    const size_t n =
        std::min(children_.size(), static_cast<size_t>(participants));
    for (size_t i = 0; i < n; ++i) {
      if (!WriteFull(children_[i].config_fd, &config, sizeof(config))) {
        DieOnError(Status::Internal("config pipe closed early"),
                   "round dispatch");
      }
    }
    RoundResult merged;
    for (size_t i = 0; i < n; ++i) {
      RoundResult result;
      if (!ReadFull(children_[i].result_fd, &result, sizeof(result))) {
        DieOnError(Status::Internal("result pipe closed early"),
                   "round collect");
      }
      merged.batches_completed += result.batches_completed;
      merged.sheets += result.sheets;
      merged.failures += result.failures;
      merged.seconds = std::max(merged.seconds, result.seconds);
      merged.latency.Merge(result.latency);
    }
    return merged;
  }

  /// Ends every child's round loop and reaps it, CHECKing that each one
  /// exited cleanly. Later calls do nothing.
  void Stop() {
    for (const Child& child : children_) {
      close(child.config_fd);
      close(child.result_fd);
    }
    for (const Child& child : children_) {
      int wstatus = 0;
      const bool reaped = waitpid(child.pid, &wstatus, 0) == child.pid;
      Check(reaped && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0,
            "load generator exited cleanly");
    }
    children_.clear();
  }

 private:
  struct Child {
    pid_t pid = -1;
    int config_fd = -1;  ///< Parent writes round configs here.
    int result_fd = -1;  ///< Parent reads round results here.
  };

  [[noreturn]] static void DieErrno(const char* call) {
    std::cerr << "load generator: " << call << ": " << std::strerror(errno)
              << "\n";
    std::exit(1);
  }

  static bool ReadFull(int fd, void* out, size_t size) {
    auto* bytes = static_cast<char*>(out);
    size_t got = 0;
    while (got < size) {
      const ssize_t n = read(fd, bytes + got, size - got);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      got += static_cast<size_t>(n);
    }
    return true;
  }

  static bool WriteFull(int fd, const void* data, size_t size) {
    const auto* bytes = static_cast<const char*>(data);
    size_t sent = 0;
    while (sent < size) {
      const ssize_t n = write(fd, bytes + sent, size - sent);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// A child's whole life: a round per config read, until the parent
  /// closes the config pipe.
  [[noreturn]] static void ChildLoop(int config_fd, int result_fd,
                                     int index) {
    RoundConfig config;
    while (ReadFull(config_fd, &config, sizeof(config))) {
      const RoundResult result = StreamRound(config, index);
      if (!WriteFull(result_fd, &result, sizeof(result))) break;
    }
    _exit(0);
  }

  /// Connects, streams `config.batches` decide batches round-robin over
  /// the fleet timing each round trip, and disconnects.
  static RoundResult StreamRound(const RoundConfig& config, int index) {
    RoundResult result;
    auto client = net::PricingClient::Connect(
        "127.0.0.1", static_cast<uint16_t>(config.port));
    if (!client.ok()) {
      result.failures = config.batches;
      return result;
    }
    std::vector<serving::DecideRequest> batch;
    batch.reserve(static_cast<size_t>(config.batch_size));
    const auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < config.batches; ++b) {
      batch.clear();
      for (int r = 0; r < config.batch_size; ++r) {
        // Spread requests over the fleet, staggered by child index: the
        // connections do not march over campaigns in lockstep, and a
        // routed batch mixes owners (the fan-out path, not the
        // single-backend shortcut).
        const int pick =
            (index + b * config.batch_size + r) % kServingCampaigns;
        batch.push_back(serving::DecideRequest::Single(
            config.campaign_ids[pick], 1.0 + 0.25 * (r % 8),
            1 + (b + r) % 16));
      }
      const auto sent = std::chrono::steady_clock::now();
      const auto responses = client->DecideBatch(batch);
      const double micros = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - sent)
                                .count();
      if (!responses.ok()) {
        ++result.failures;
        continue;
      }
      ++result.batches_completed;
      result.latency.Record(micros);
      for (const serving::DecideResponse& response : *responses) {
        if (response.status.ok()) ++result.sheets;
      }
    }
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  }

  std::vector<Child> children_;
};

}  // namespace crowdprice::bench

#endif  // CROWDPRICE_BENCH_LOAD_GEN_H_
