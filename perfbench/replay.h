// The traced run's in-process replay: the workload's own captured inputs
// pushed through each layer's public functions, with one span around
// every call, so per-layer numbers are measured from outside the layers.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/policy_artifact.h"
#include "fleet.h"
#include "harness.h"
#include "serving/campaign_shard_map.h"

namespace perfbench {

/// An admitted artifact with the limits it was admitted under.
struct Placed {
  std::shared_ptr<const engine::PolicyArtifact> artifact;
  serving::CampaignLimits limits;
};

/// One artifact-carrying control op the workload sent.
struct CapturedControl {
  bool swap = false;
  serving::CampaignId id = 0;
  Placed placed;
};

/// What a traced run captured for the replay.
struct Capture {
  std::vector<std::vector<serving::DecideRequest>> batches;
  /// The server's answers to `batches`, index for index.
  std::vector<std::vector<serving::DecideResponse>> responses;
  std::vector<CapturedControl> control;
  /// Every campaign a captured batch names, by its id on the server.
  std::map<serving::CampaignId, Placed> campaigns;
  /// The campaigns of one re-price wave, as re-solved.
  std::vector<Campaign> wave;
  /// The crowdprice_serve endpoints the run drove ("127.0.0.1:port").
  std::vector<std::string> backends;
  /// Whether a router's answers must equal `responses` byte for byte:
  /// true when no campaign changed after the batches were answered.
  bool fleet_frozen = false;
};

/// Counts and sizes the replay measures directly (its timings are spans).
struct ReplayCounts {
  double batch_bytes_p50 = 0.0;
  double control_kb_p50 = 0.0;
  double unreclaimed_snapshots = 0.0;
  double router_unavailable = 0.0;
  double wave_seconds = 0.0;
  double sequential_solve_seconds = 0.0;
  int wave_threads = 0;
  int64_t pmf_blocks_built = 0;
  int64_t pmf_blocks_shared = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
};

/// Replays `capture` layer by layer, recording spans into `tracer`.
crowdprice::Result<ReplayCounts> Replay(const Capture& capture,
                                        const Market& market,
                                        Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
