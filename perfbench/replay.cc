#include "replay.h"

#include <algorithm>
#include <chrono>

#include "engine/engine.h"
#include "engine/solve_wave.h"
#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"
#include "kernel/pmf_cache.h"
#include "net/wire.h"
#include "router/router.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace perfbench {

using crowdprice::Result;
using crowdprice::Status;
using crowdprice::StringF;
namespace kernel = crowdprice::kernel;
namespace net = crowdprice::net;
namespace router = crowdprice::router;

namespace {

constexpr size_t kMaxControlReplays = 48;
constexpr size_t kDecideBatchReplays = 200;
constexpr size_t kPollSize = 512;
constexpr int kScanCampaigns = 6;
constexpr int kScanRepeats = 3;
/// Every kDeterminismStride-th wave artifact is re-solved sequentially
/// and must serialize to the same bytes.
constexpr size_t kDeterminismStride = 8;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

void Fail(ReplayCounts* counts, std::string what) {
  ++counts->failed;
  if (counts->failures.size() < 8) counts->failures.push_back(std::move(what));
}

/// The four decide codec calls and the router's line splice, on every
/// captured batch.
void ReplayDecideCodec(const Capture& capture, Tracer* tracer,
                       Tracer::Buffer* buf, ReplayCounts* counts) {
  std::vector<double> bytes;
  for (size_t b = 0; b < capture.batches.size(); ++b) {
    const auto& batch = capture.batches[b];
    std::string request;
    {
      ScopedSpan span(tracer, buf, "wire.SerializeDecideBatchRequest", b);
      request = net::SerializeDecideBatchRequest(batch);
    }
    {
      ScopedSpan span(tracer, buf, "wire.DeserializeDecideBatchRequest", b);
      auto parsed = net::DeserializeDecideBatchRequest(request);
      if (!parsed.ok()) Fail(counts, "decode request: " + parsed.status().ToString());
    }
    std::string response;
    {
      ScopedSpan span(tracer, buf, "wire.SerializeDecideBatchResponse", b);
      response = net::SerializeDecideBatchResponse(capture.responses[b]);
    }
    {
      ScopedSpan span(tracer, buf, "wire.DeserializeDecideBatchResponse", b);
      auto parsed = net::DeserializeDecideBatchResponse(response);
      if (!parsed.ok()) Fail(counts, "decode response: " + parsed.status().ToString());
    }
    bytes.push_back(static_cast<double>(request.size() + response.size()));
    {
      ScopedSpan span(tracer, buf, "router.SplitJoin", b);
      auto lines = net::SplitDecideBatchPayload(request, "decide batch");
      if (lines.ok()) {
        for (const std::string& line : *lines) {
          if (!net::DecideLineCampaignId(line).ok()) {
            Fail(counts, "line without a campaign id");
          }
        }
        if (net::JoinDecideBatchPayload(*lines) != request) {
          Fail(counts, "split + join changed a payload");
        }
      } else {
        Fail(counts, "split: " + lines.status().ToString());
      }
    }
  }
  counts->batch_bytes_p50 = Median(bytes);
}

void ReplayControlCodec(const Capture& capture, Tracer* tracer,
                        Tracer::Buffer* buf, ReplayCounts* counts) {
  std::vector<double> kb;
  const size_t n = std::min(capture.control.size(), kMaxControlReplays);
  for (size_t i = 0; i < n; ++i) {
    const CapturedControl& c = capture.control[i];
    const serving::ControlOp op =
        c.swap ? serving::ControlOp::SwapArtifactShared(c.id, c.placed.artifact)
               : serving::ControlOp::AdmitShared(c.placed.artifact,
                                                 c.placed.limits);
    Result<std::string> text = Status::Internal("unset");
    {
      ScopedSpan span(tracer, buf, "wire.SerializeControlOp", i);
      text = net::SerializeControlOp(op);
    }
    if (!text.ok()) {
      Fail(counts, "encode control: " + text.status().ToString());
      continue;
    }
    {
      ScopedSpan span(tracer, buf, "wire.DeserializeControlOp", i);
      auto parsed = net::DeserializeControlOp(*text);
      if (!parsed.ok()) Fail(counts, "decode control: " + parsed.status().ToString());
    }
    kb.push_back(static_cast<double>(text->size()) / 1024.0);
  }
  counts->control_kb_p50 = Median(kb);
}

/// Apply, Decide and DecideBatch against a fresh map holding every
/// campaign the captured batches name.
Status ReplayServing(const Capture& capture, Tracer* tracer,
                     Tracer::Buffer* buf, ReplayCounts* counts) {
  // The servers run with their default shard count.
  CP_ASSIGN_OR_RETURN(serving::CampaignShardMap map,
                      serving::CampaignShardMap::Create(8));
  std::map<serving::CampaignId, serving::CampaignId> local;
  uint64_t seq = 0;
  for (const auto& [remote, placed] : capture.campaigns) {
    Result<serving::ControlOutcome> admitted = Status::Internal("unset");
    {
      ScopedSpan span(tracer, buf, "serving.Apply/admit", seq++);
      admitted = map.Apply(
          serving::ControlOp::AdmitShared(placed.artifact, placed.limits));
    }
    if (!admitted.ok()) return admitted.status();
    local[remote] = admitted->id;
  }
  // Requests to campaigns retired before the replay (reprice churns its
  // fleet) have no artifact left to replay against and are dropped.
  std::vector<std::vector<serving::DecideRequest>> batches;
  for (const auto& captured : capture.batches) {
    std::vector<serving::DecideRequest> batch;
    for (const serving::DecideRequest& r : captured) {
      const auto it = local.find(r.campaign_id);
      if (it == local.end()) continue;
      batch.push_back(r);
      batch.back().campaign_id = it->second;
    }
    if (!batch.empty()) batches.push_back(std::move(batch));
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    const auto& batch = batches[b];
    int bad = 0;
    {
      ScopedSpan span(tracer, buf, "serving.Decide", b, 0,
                      static_cast<uint32_t>(batch.size()));
      for (const serving::DecideRequest& r : batch) {
        if (!map.Decide(r.campaign_id, r.request).ok()) ++bad;
      }
    }
    if (bad > 0) Fail(counts, "in-process Decide refused a captured request");
  }
  // The >= 256-request pool path, on 512-request batches of captured
  // requests.
  std::vector<serving::DecideRequest> all;
  for (const auto& batch : batches) all.insert(all.end(), batch.begin(), batch.end());
  if (!all.empty()) {
    for (size_t i = 0; i < kDecideBatchReplays; ++i) {
      std::vector<serving::DecideRequest> poll;
      for (size_t j = 0; j < kPollSize; ++j) {
        poll.push_back(all[(i * kPollSize + j) % all.size()]);
      }
      ScopedSpan span(tracer, buf, "serving.DecideBatch", i);
      map.DecideBatch(poll);
    }
  }
  seq = 0;
  for (const auto& [remote, placed] : capture.campaigns) {
    ScopedSpan span(tracer, buf, "serving.Apply/swap", seq++);
    if (!map.Apply(serving::ControlOp::SwapArtifactShared(local[remote],
                                                          placed.artifact))
             .ok()) {
      Fail(counts, "in-process swap failed");
    }
  }
  seq = 0;
  for (const auto& entry : local) {
    ScopedSpan span(tracer, buf, "serving.Apply/retire", seq++);
    if (!map.Apply(serving::ControlOp::Retire(entry.second)).ok()) {
      Fail(counts, "in-process retire failed");
    }
  }
  const serving::SnapshotStats snapshots = map.snapshot_stats();
  counts->unreclaimed_snapshots =
      static_cast<double>(snapshots.published) -
      static_cast<double>(snapshots.reclaimed) -
      static_cast<double>(snapshots.live_campaigns);
  for (const auto& [remote, placed] : capture.campaigns) {
    ScopedSpan span(tracer, buf, "engine.MakeController", remote);
    if (!placed.artifact->MakeController(placed.limits.deadline_hours).ok()) {
      Fail(counts, "MakeController failed");
    }
  }
  return Status::OK();
}

/// One re-price wave on a two-thread farm, then the same specs solved one
/// by one: the farm's efficiency, and the determinism oracle on a sample.
Status ReplayEngine(const Capture& capture, const Market& market,
                    Tracer* tracer, Tracer::Buffer* buf,
                    ReplayCounts* counts) {
  std::vector<engine::PolicySpec> specs;
  for (const Campaign& c : capture.wave) {
    CP_ASSIGN_OR_RETURN(engine::PolicySpec spec, market.Spec(c));
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) return Status::OK();
  kernel::PmfShareCache cache;
  engine::SolverPool pool(1, /*background=*/false);
  engine::SolveWaveOptions options;
  options.pool = &pool;
  options.share_cache = &cache;
  counts->wave_threads = pool.size() + 1;  // the caller drains the queue too
  std::vector<Result<engine::PolicyArtifact>> wave;
  const Clock::time_point wave_start = Clock::now();
  {
    ScopedSpan span(tracer, buf, "replay.engine.SolveWave", 0);
    wave = engine::SolveWave(specs, options);
  }
  counts->wave_seconds = Seconds(Clock::now() - wave_start);
  const kernel::PmfArena::Stats share = cache.stats();
  counts->pmf_blocks_built = share.blocks_built;
  counts->pmf_blocks_shared = share.blocks_shared;
  double sequential = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    Result<engine::PolicyArtifact> solo = Status::Internal("unset");
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, buf, "replay.engine.Solve", i);
      solo = engine::Engine::Solve(specs[i]);
    }
    sequential += Seconds(Clock::now() - start);
    ++counts->attempted;
    if (!solo.ok() || !wave[i].ok()) {
      Fail(counts, "wave or sequential solve failed");
      continue;
    }
    if (i % kDeterminismStride == 0) {
      auto a = wave[i]->Serialize();
      auto b = solo->Serialize();
      if (!a.ok() || !b.ok() || *a != *b) {
        Fail(counts, StringF("wave artifact %zu differs from Engine::Solve", i));
      }
    }
  }
  counts->sequential_solve_seconds = sequential;
  return Status::OK();
}

/// LayerScanKernel::ScanLayer over a PmfArena of the workload's own
/// interval rates x the action grid; one span per layer, items = cells.
Status ReplayKernel(const Capture& capture, const Market& market,
                    Tracer* tracer, Tracer::Buffer* buf) {
  CP_ASSIGN_OR_RETURN(const kernel::LayerScanKernel* kern,
                      kernel::KernelRegistry::Global().Resolve(""));
  std::vector<const Campaign*> picks;
  for (const Campaign& c : capture.wave) {
    if (c.kind == Kind::kDeadline) picks.push_back(&c);
  }
  const size_t stride = std::max<size_t>(1, picks.size() / kScanCampaigns);
  uint64_t seq = 0;
  for (size_t p = 0; p < picks.size(); p += stride) {
    CP_ASSIGN_OR_RETURN(engine::PolicySpec spec, market.Spec(*picks[p]));
    const auto& dp = spec.get<engine::DeadlineDpSpec>();
    const pricing::ActionSet& actions = *dp.actions;
    std::vector<double> rates;
    for (double lambda : dp.interval_lambdas) {
      for (const pricing::PricingAction& a : actions.actions()) {
        rates.push_back(lambda * a.acceptance);
      }
    }
    CP_ASSIGN_OR_RETURN(
        kernel::PmfArena arena,
        kernel::PmfArena::Build(rates, dp.problem.truncation_epsilon));
    std::vector<int> tables(rates.size());
    for (size_t i = 0; i < rates.size(); ++i) tables[i] = arena.TableOf(i);
    std::vector<double> costs;
    std::vector<int> bundles;
    for (const pricing::PricingAction& a : actions.actions()) {
      costs.push_back(a.cost_per_task_cents);
      bundles.push_back(a.bundle);
    }
    const int n = dp.problem.num_tasks;
    const int num_actions = static_cast<int>(actions.size());
    std::vector<double> opt_next(static_cast<size_t>(n) + 1);
    for (int i = 0; i <= n; ++i) opt_next[static_cast<size_t>(i)] = dp.problem.penalty_cents * i;
    std::vector<double> opt_row(static_cast<size_t>(n) + 1, 0.0);
    std::vector<int32_t> action_row(static_cast<size_t>(n) + 1, -1);
    for (int rep = 0; rep < kScanRepeats; ++rep) {
      for (int t = static_cast<int>(dp.interval_lambdas.size()) - 1; t >= 0; --t) {
        kernel::LayerTables layer;
        layer.arena = &arena;
        layer.tables = tables.data() + static_cast<size_t>(t) * costs.size();
        layer.costs = costs.data();
        layer.bundles = bundles.data();
        layer.num_actions = num_actions;
        {
          ScopedSpan span(tracer, buf, "kernel.ScanLayer", seq++, 0,
                          static_cast<uint32_t>(n * num_actions));
          kern->ScanLayer(layer, 1, n, opt_next.data(), opt_row.data(),
                          action_row.data());
        }
        opt_row[0] = 0.0;
        opt_next.swap(opt_row);
      }
    }
  }
  return Status::OK();
}

/// CampaignRouter::DecideBatchLines in-process, against the run's own
/// backends.
Status ReplayRouter(const Capture& capture, Tracer* tracer,
                    Tracer::Buffer* buf, ReplayCounts* counts) {
  router::RouterOptions options;
  options.pool.probe_interval_ms = 0;
  CP_ASSIGN_OR_RETURN(router::CampaignRouter hop,
                      router::CampaignRouter::Create(capture.backends, options));
  for (size_t b = 0; b < capture.batches.size(); ++b) {
    CP_ASSIGN_OR_RETURN(
        std::vector<std::string> lines,
        net::SplitDecideBatchPayload(
            net::SerializeDecideBatchRequest(capture.batches[b]), "batch"));
    std::vector<std::string> answers;
    bool handled = false;
    {
      ScopedSpan span(tracer, buf, "router.DecideBatchLines", b);
      handled = hop.DecideBatchLines(lines, &answers);
    }
    counts->attempted += static_cast<int64_t>(lines.size());
    if (!handled || answers.size() != lines.size()) {
      Fail(counts, "router refused a captured batch");
      continue;
    }
    if (!capture.fleet_frozen) continue;
    CP_ASSIGN_OR_RETURN(
        std::vector<std::string> expected,
        net::SplitDecideBatchPayload(
            net::SerializeDecideBatchResponse(capture.responses[b]), "batch"));
    for (size_t i = 0; i < lines.size(); ++i) {
      if (answers[i] != expected[i]) Fail(counts, "routed answer differs");
    }
  }
  counts->router_unavailable = static_cast<double>(hop.stats().unavailable);
  return Status::OK();
}

}  // namespace

Result<ReplayCounts> Replay(const Capture& capture, const Market& market,
                            Tracer* tracer) {
  ReplayCounts counts;
  Tracer::Buffer* buf = tracer->NewBuffer();
  ReplayDecideCodec(capture, tracer, buf, &counts);
  ReplayControlCodec(capture, tracer, buf, &counts);
  CP_RETURN_IF_ERROR(ReplayServing(capture, tracer, buf, &counts));
  CP_RETURN_IF_ERROR(ReplayEngine(capture, market, tracer, buf, &counts));
  CP_RETURN_IF_ERROR(ReplayKernel(capture, market, tracer, buf));
  CP_RETURN_IF_ERROR(ReplayRouter(capture, tracer, buf, &counts));
  return counts;
}

}  // namespace perfbench
