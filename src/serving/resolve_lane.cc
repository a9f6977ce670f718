#include "serving/resolve_lane.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "engine/solve_wave.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::serving {

ResolveLane::ResolveLane(CampaignShardMap* map, ThreadPool* pool)
    : map_(map), pool_(pool != nullptr ? pool : &ThreadPool::Background()) {}

ResolveLane::~ResolveLane() { Drain(); }

Status ResolveLane::EnqueueResolve(CampaignId id, engine::PolicySpec spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.count(id) > 0) {
      ++stats_.coalesced;
      return Status::OK();
    }
    pending_.insert(id);
    ++stats_.enqueued;
    ++in_flight_;
  }
  pool_->Submit([this, id, spec = std::move(spec)] { RunResolve(id, spec); });
  return Status::OK();
}

Status ResolveLane::EnqueueRescale(CampaignId id, double factor) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    return Status::InvalidArgument(
        StringF("rescale factor %g must be finite and > 0", factor));
  }
  CP_ASSIGN_OR_RETURN(CampaignExport exported, map_->ExportCampaign(id));
  CP_ASSIGN_OR_RETURN(const pricing::DeadlinePlan* plan,
                      exported.artifact->deadline_plan());
  engine::DeadlineDpSpec spec;
  spec.problem = plan->problem();
  spec.interval_lambdas.reserve(plan->interval_lambdas().size());
  for (double lambda : plan->interval_lambdas()) {
    spec.interval_lambdas.push_back(lambda * factor);
  }
  spec.actions = plan->actions();
  spec.algorithm = plan->actions().uniform_unit_bundle()
                       ? engine::DeadlineDpSpec::Algorithm::kImproved
                       : engine::DeadlineDpSpec::Algorithm::kSimple;
  return EnqueueResolve(id, engine::PolicySpec(std::move(spec)));
}

void ResolveLane::RunResolve(CampaignId id, const engine::PolicySpec& spec) {
  // A one-spec wave runs inline on this job's thread, with the farm's
  // per-solve settings (one thread, the process-wide pmf share cache).
  engine::SolveWaveOptions options;
  options.pool = pool_;
  Result<engine::PolicyArtifact> solved =
      std::move(engine::SolveWave({&spec, 1}, options).front());
  bool ok = solved.ok();
  bool swapped = false;
  if (ok) {
    auto artifact = std::make_shared<const engine::PolicyArtifact>(
        std::move(solved).value());
    // The swap publishes a fresh RCU snapshot; a campaign retired while
    // the solve ran answers NotFound here, which is a lost race, not an
    // error.
    swapped =
        map_->Apply(ControlOp::SwapArtifactShared(id, std::move(artifact)))
            .ok();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++stats_.solved;
    if (swapped) {
      ++stats_.swapped;
    } else {
      ++stats_.swap_failures;
    }
  } else {
    ++stats_.solve_failures;
  }
  pending_.erase(id);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

void ResolveLane::Drain() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (in_flight_ == 0) return;
    }
    if (pool_->TryRunOne()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait_for(lock, std::chrono::milliseconds(1),
                      [this] { return in_flight_ == 0; });
  }
}

ResolveLane::Stats ResolveLane::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace crowdprice::serving
