#include "market/fleet_simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "market/session.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::market {

namespace {

/// Wall-clock hours -> event-loop bucket-edge index, rounding up (an
/// admission or control event lands on the first edge at or after its
/// nominal time; the epsilon keeps times already on an edge there).
int64_t EdgeIndexCeil(double hours, double bucket) {
  const auto edge = static_cast<int64_t>(std::ceil(hours / bucket - 1e-9));
  return edge < 0 ? 0 : edge;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A fleet session's controller: each decide goes through the serving
/// map's read path by campaign id, so the map counts it on the campaign's
/// shard and, after a swap, answers from the new snapshot. The map puts
/// the request on the campaign clock as now - admit_hours, which equals
/// the session's when - origin_hours: both offsets are the admit edge.
class MapController final : public PricingController {
 public:
  MapController(serving::CampaignShardMap& map, serving::CampaignId id)
      : map_(&map), id_(id) {}

  Result<OfferSheet> Decide(const DecisionRequest& request) override {
    return map_->Decide(id_, request);
  }

 private:
  serving::CampaignShardMap* map_;
  serving::CampaignId id_;
};

/// One campaign the event loop must launch: either pre-admitted through
/// the Admit* methods (id known, joins at edge 0) or scheduled (admitted
/// into the live map on the admission lane at its edge).
struct Launch {
  size_t index = 0;  ///< Outcome slot / schedule order.
  int64_t admit_edge = 0;
  bool preadmitted = false;
  serving::CampaignId id = 0;  ///< Valid when preadmitted.
  SimulatorConfig config;
  std::shared_ptr<const engine::PolicyArtifact> artifact;
  std::unique_ptr<PricingController> controller;
  const choice::AcceptanceFunction* acceptance = nullptr;
  Rng rng{0};
};

/// One mid-life event, flattened out of the schedule and sorted by edge.
struct Control {
  int64_t edge = 0;
  size_t order = 0;  ///< Stable tiebreak: schedule emission order.
  size_t launch = 0;
  bool retire = false;
  std::shared_ptr<const engine::PolicyArtifact> artifact;
};

/// The shared event loop behind Run and RunStreaming. Global time advances
/// one arrival bucket per slice; every shard advances its campaigns
/// concurrently on the serving pool while the admission lane admits the
/// slice's due campaigns into the live map (per-shard locking only -- no
/// global barrier between serving and admission). Mid-life control events
/// apply at the bucket-edge barrier, where no shard task is in flight. A
/// campaign that completes or expires on the same edge as one of its
/// control events wins the tie: the event is skipped.
Result<std::vector<FleetOutcome>> DriveFleet(
    serving::CampaignShardMap& map, const arrival::PiecewiseConstantRate& rate,
    std::vector<Launch> launches, std::vector<Control> controls,
    StreamingStats& stats) {
  stats = StreamingStats{};
  const int num_shards = map.num_shards();
  const double bucket = rate.bucket_width_hours();
  const size_t n = launches.size();

  // Each live campaign rides on its shard's list; during a slice exactly
  // one pool thread advances a given shard's campaigns, so a session is
  // never shared across threads. The session points at `controller`,
  // which the heap keeps in place while Running moves.
  struct Running {
    size_t index = 0;
    serving::CampaignId id = 0;
    std::unique_ptr<MapController> controller;
    CampaignSession session;
  };
  std::vector<std::vector<Running>> by_shard(static_cast<size_t>(num_shards));
  std::vector<FleetOutcome> outcomes(n);
  std::vector<char> finished(n, 0);

  std::vector<size_t> launch_order(n);
  std::iota(launch_order.begin(), launch_order.end(), size_t{0});
  std::stable_sort(launch_order.begin(), launch_order.end(),
                   [&](size_t a, size_t b) {
                     return launches[a].admit_edge < launches[b].admit_edge;
                   });
  size_t next_launch = 0;

  std::sort(controls.begin(), controls.end(),
            [](const Control& a, const Control& b) {
              return a.edge != b.edge ? a.edge < b.edge : a.order < b.order;
            });
  size_t next_control = 0;

  // Loop bound: past this edge every campaign has been admitted, played to
  // its horizon and every control event has fired; live sessions beyond it
  // mean the clock walk is broken.
  int64_t last_edge = 1;
  for (const Launch& launch : launches) {
    last_edge = std::max(
        last_edge, launch.admit_edge +
                       static_cast<int64_t>(
                           std::ceil(launch.config.horizon_hours / bucket)) +
                       2);
  }
  for (const Control& control : controls) {
    last_edge = std::max(last_edge, control.edge + 1);
  }

  std::vector<Status> shard_status(static_cast<size_t>(num_shards),
                                   Status::OK());
  Status admit_status = Status::OK();
  std::vector<std::pair<int, Running>> staged;
  double admit_ms_total = 0.0;
  uint64_t admit_timed = 0;

  // The admission lane: admit every launch in launch_order[lo, hi) at the
  // wall-clock edge k. Runs concurrently with the shard passes (the map
  // calls take only the target shard's mutex); `staged` and the outcome
  // slots it writes are untouched by any shard task until the barrier.
  auto admit_range = [&](size_t lo, size_t hi, int64_t k) {
    const double admit_wall = static_cast<double>(k) * bucket;
    for (size_t oi = lo; oi < hi; ++oi) {
      Launch& launch = launches[launch_order[oi]];
      serving::CampaignId id = launch.id;
      if (!launch.preadmitted) {
        serving::CampaignLimits limits;
        limits.total_tasks = launch.config.total_tasks;
        limits.deadline_hours = launch.config.horizon_hours;
        limits.admit_hours = admit_wall;
        const auto start = std::chrono::steady_clock::now();
        Result<serving::ControlOutcome> admitted = map.Apply(
            launch.artifact != nullptr
                ? serving::ControlOp::AdmitShared(launch.artifact, limits)
                : serving::ControlOp::AdmitController(
                      std::move(launch.controller), limits));
        const double ms = MillisSince(start);
        admit_ms_total += ms;
        ++admit_timed;
        stats.admit_max_ms = std::max(stats.admit_max_ms, ms);
        if (!admitted.ok()) {
          admit_status = admitted.status();
          return;
        }
        id = admitted->id;
        ++stats.admitted;
      }
      auto controller = std::make_unique<MapController>(map, id);
      Result<CampaignSession> session =
          CampaignSession::CreateAt(launch.config, rate, *launch.acceptance,
                                    *controller, launch.rng, admit_wall);
      if (!session.ok()) {
        admit_status = session.status();
        return;
      }
      FleetOutcome& outcome = outcomes[launch.index];
      outcome.schedule_index = launch.index;
      outcome.campaign_id = id;
      outcome.admit_hours = admit_wall;
      staged.emplace_back(
          map.ShardOf(id),
          Running{launch.index, id, std::move(controller),
                  std::move(*session)});
    }
  };

  auto merge_staged = [&] {
    for (auto& [shard_index, running] : staged) {
      by_shard[static_cast<size_t>(shard_index)].push_back(std::move(running));
    }
    staged.clear();
  };

  // One shard's slice: advance every session to `until`; campaigns whose
  // horizon falls inside the slice stop exactly at their horizon (the
  // session caps its final bucket), then tick out of the serving map --
  // completed when the batch drained, deadline-expired otherwise.
  auto advance_shard = [&](int shard_index, double until) {
    auto& running = by_shard[static_cast<size_t>(shard_index)];
    Status& status = shard_status[static_cast<size_t>(shard_index)];
    for (auto it = running.begin(); it != running.end();) {
      if (!status.ok()) return;
      const Status advanced = it->session.AdvanceUntil(until);
      if (!advanced.ok()) {
        status = advanced;
        return;
      }
      if (!it->session.done()) {
        ++it;
        continue;
      }
      FleetOutcome& outcome = outcomes[it->index];
      Result<serving::ControlOutcome> ticked =
          map.Apply(serving::ControlOp::Tick(it->id, it->session.end_hours(),
                                             it->session.remaining_tasks()));
      if (!ticked.ok()) {
        status = ticked.status();
        return;
      }
      outcome.final_state = ticked->state;
      Result<SimulationResult> result = std::move(it->session).TakeResult();
      if (!result.ok()) {
        status = result.status();
        return;
      }
      outcome.result = std::move(*result);
      finished[it->index] = 1;
      it = running.erase(it);
    }
  };

  // Applies every control event due at edge k. Runs at the barrier (no
  // shard task in flight), so it may touch sessions and retire campaigns
  // directly; events whose campaign already finished are skipped.
  auto apply_controls = [&](int64_t k) -> Status {
    while (next_control < controls.size() && controls[next_control].edge == k) {
      const Control& control = controls[next_control++];
      if (finished[control.launch]) continue;
      const serving::CampaignId id = outcomes[control.launch].campaign_id;
      auto& running = by_shard[static_cast<size_t>(map.ShardOf(id))];
      const auto it =
          std::find_if(running.begin(), running.end(), [&](const Running& r) {
            return r.index == control.launch;
          });
      if (it == running.end()) {
        return Status::Internal(StringF(
            "control event at edge %lld targets campaign %llu which is "
            "neither live nor finished",
            static_cast<long long>(k), static_cast<unsigned long long>(id)));
      }
      if (control.retire) {
        CP_RETURN_IF_ERROR(
            map.Apply(serving::ControlOp::Retire(id)).status());
        CP_RETURN_IF_ERROR(
            it->session.Curtail(static_cast<double>(k) * bucket));
        FleetOutcome& outcome = outcomes[control.launch];
        outcome.final_state = serving::CampaignState::kRetiredExplicit;
        CP_ASSIGN_OR_RETURN(outcome.result,
                            std::move(it->session).TakeResult());
        finished[control.launch] = 1;
        running.erase(it);
        ++stats.retired_by_event;
      } else {
        // The session's next decide reads the new snapshot.
        CP_RETURN_IF_ERROR(
            map.Apply(serving::ControlOp::SwapArtifactShared(id,
                                                             control.artifact))
                .status());
        ++stats.swapped;
      }
    }
    return Status::OK();
  };

  auto finish_stats = [&] {
    stats.admit_mean_ms =
        admit_timed > 0 ? admit_ms_total / static_cast<double>(admit_timed)
                        : 0.0;
  };

  // The loop proper, wrapped so `stats` is finalized on every exit --
  // error paths included.
  auto drive = [&]() -> Result<std::vector<FleetOutcome>> {
    // Edge 0: admissions due before any traffic run inline, then edge-0
    // control events.
    {
      const size_t lo = next_launch;
      while (next_launch < n &&
             launches[launch_order[next_launch]].admit_edge == 0) {
        ++next_launch;
      }
      admit_range(lo, next_launch, 0);
      CP_RETURN_IF_ERROR(admit_status);
      merge_staged();
      CP_RETURN_IF_ERROR(apply_controls(0));
    }

    for (int64_t k = 1;; ++k) {
      const double until = static_cast<double>(k) * bucket;
      const size_t lo = next_launch;
      size_t hi = lo;
      while (hi < n && launches[launch_order[hi]].admit_edge == k) ++hi;
      next_launch = hi;

      // The slice: shards tick their campaigns to `until` while the
      // admission lane admits the campaigns arriving at this edge (they
      // start playing next slice).
      map.ParallelOverShardsWith(
          [&](int shard_index) { advance_shard(shard_index, until); },
          [&] { admit_range(lo, hi, k); });
      ++stats.slices;

      CP_RETURN_IF_ERROR(admit_status);
      for (const Status& status : shard_status) {
        CP_RETURN_IF_ERROR(status);
      }
      merge_staged();
      CP_RETURN_IF_ERROR(apply_controls(k));

      size_t live = 0;
      for (const auto& running : by_shard) live += running.size();
      if (live == 0) {
        // Nothing in flight: control events can only target finished
        // campaigns now, so consume the skippable ones instead of
        // spinning empty slices out to a far-future event edge...
        while (next_control < controls.size() &&
               finished[controls[next_control].launch]) {
          ++next_control;
        }
        if (next_launch == n && next_control == controls.size()) break;
        // ...and jump the clock to the next admission/control edge
        // rather than dispatching empty slices up to it.
        int64_t next_edge = last_edge;
        if (next_launch < n) {
          next_edge = std::min(next_edge,
                               launches[launch_order[next_launch]].admit_edge);
        }
        if (next_control < controls.size()) {
          next_edge = std::min(next_edge, controls[next_control].edge);
        }
        if (next_edge > k + 1) k = next_edge - 1;
      }
      if (k >= last_edge) {
        return Status::Internal(
            "fleet clock passed every horizon with live sessions");
      }
    }
    return std::move(outcomes);
  };

  Result<std::vector<FleetOutcome>> result = drive();
  finish_stats();
  return result;
}

}  // namespace

// --------------------------------------------------------------------------
// ArrivalSchedule
// --------------------------------------------------------------------------

namespace {

// Generous ceiling on schedule times (> 1000 years of marketplace hours):
// rules out edge-index casts overflowing int64 and event loops walking
// billions of bucket edges on a typo'd timestamp.
constexpr double kMaxScheduleHours = 1e7;

Status ValidateScheduleHours(double hours, const char* what) {
  if (!(hours >= 0.0) || !(hours <= kMaxScheduleHours)) {
    return Status::InvalidArgument(
        StringF("%s must be in [0, %g]; got %g", what, kMaxScheduleHours,
                hours));
  }
  return Status::OK();
}

}  // namespace

double RandomBucketEdge(Rng& rng, double window_hours, double bucket_hours) {
  const auto edges = static_cast<int64_t>(window_hours / bucket_hours + 0.5);
  if (edges <= 0) return 0.0;
  return bucket_hours * static_cast<double>(rng.UniformInt(0, edges));
}

Result<size_t> ArrivalSchedule::AdmitShared(
    double admit_hours, std::shared_ptr<const engine::PolicyArtifact> artifact,
    const SimulatorConfig& config, const choice::AcceptanceFunction& acceptance,
    Rng rng) {
  CP_RETURN_IF_ERROR(ValidateScheduleHours(admit_hours, "admit_hours"));
  CP_RETURN_IF_ERROR(config.Validate());
  if (artifact == nullptr) {
    return Status::InvalidArgument("artifact must not be null");
  }
  Entry entry;
  entry.admit_hours = admit_hours;
  entry.config = config;
  entry.artifact = std::move(artifact);
  entry.acceptance = &acceptance;
  entry.rng = rng;
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

Result<size_t> ArrivalSchedule::AdmitController(
    double admit_hours, std::unique_ptr<PricingController> controller,
    const SimulatorConfig& config, const choice::AcceptanceFunction& acceptance,
    Rng rng) {
  CP_RETURN_IF_ERROR(ValidateScheduleHours(admit_hours, "admit_hours"));
  CP_RETURN_IF_ERROR(config.Validate());
  if (controller == nullptr) {
    return Status::InvalidArgument("controller must not be null");
  }
  Entry entry;
  entry.admit_hours = admit_hours;
  entry.config = config;
  entry.controller = std::move(controller);
  entry.acceptance = &acceptance;
  entry.rng = rng;
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

Status ArrivalSchedule::SwapArtifactAt(
    size_t index, double at_hours,
    std::shared_ptr<const engine::PolicyArtifact> artifact) {
  if (index >= entries_.size()) {
    return Status::InvalidArgument(
        StringF("schedule entry %zu does not exist", index));
  }
  if (artifact == nullptr) {
    return Status::InvalidArgument("artifact must not be null");
  }
  CP_RETURN_IF_ERROR(ValidateScheduleHours(at_hours, "event time"));
  if (at_hours < entries_[index].admit_hours) {
    return Status::InvalidArgument(
        StringF("event time %g is before entry %zu's admit time %g", at_hours,
                index, entries_[index].admit_hours));
  }
  ControlEvent event;
  event.retire = false;
  event.at_hours = at_hours;
  event.artifact = std::move(artifact);
  entries_[index].events.push_back(std::move(event));
  return Status::OK();
}

Status ArrivalSchedule::RetireAt(size_t index, double at_hours) {
  if (index >= entries_.size()) {
    return Status::InvalidArgument(
        StringF("schedule entry %zu does not exist", index));
  }
  CP_RETURN_IF_ERROR(ValidateScheduleHours(at_hours, "event time"));
  if (at_hours < entries_[index].admit_hours) {
    return Status::InvalidArgument(
        StringF("event time %g is before entry %zu's admit time %g", at_hours,
                index, entries_[index].admit_hours));
  }
  ControlEvent event;
  event.retire = true;
  event.at_hours = at_hours;
  entries_[index].events.push_back(std::move(event));
  return Status::OK();
}

// --------------------------------------------------------------------------
// FleetSimulator
// --------------------------------------------------------------------------

FleetSimulator::FleetSimulator(serving::CampaignShardMap map)
    : map_(std::move(map)) {}

Result<FleetSimulator> FleetSimulator::Create(int num_shards) {
  CP_ASSIGN_OR_RETURN(serving::CampaignShardMap map,
                      serving::CampaignShardMap::Create(num_shards));
  return FleetSimulator(std::move(map));
}

Result<serving::CampaignId> FleetSimulator::AdmitShared(
    std::shared_ptr<const engine::PolicyArtifact> artifact,
    const SimulatorConfig& config, const choice::AcceptanceFunction& acceptance,
    Rng rng) {
  CP_RETURN_IF_ERROR(config.Validate());
  serving::CampaignLimits limits;
  limits.total_tasks = config.total_tasks;
  limits.deadline_hours = config.horizon_hours;
  CP_ASSIGN_OR_RETURN(
      const serving::ControlOutcome admitted,
      map_.Apply(serving::ControlOp::AdmitShared(std::move(artifact), limits)));
  pending_.push_back(Pending{admitted.id, config, &acceptance, rng});
  return admitted.id;
}

Result<serving::CampaignId> FleetSimulator::AdmitController(
    std::unique_ptr<PricingController> controller,
    const SimulatorConfig& config, const choice::AcceptanceFunction& acceptance,
    Rng rng) {
  CP_RETURN_IF_ERROR(config.Validate());
  serving::CampaignLimits limits;
  limits.total_tasks = config.total_tasks;
  limits.deadline_hours = config.horizon_hours;
  CP_ASSIGN_OR_RETURN(const serving::ControlOutcome admitted,
                      map_.Apply(serving::ControlOp::AdmitController(
                          std::move(controller), limits)));
  pending_.push_back(Pending{admitted.id, config, &acceptance, rng});
  return admitted.id;
}

Result<std::vector<FleetOutcome>> FleetSimulator::Run(
    const arrival::PiecewiseConstantRate& rate) {
  return RunStreaming(rate, ArrivalSchedule());
}

Result<std::vector<FleetOutcome>> FleetSimulator::RunStreaming(
    const arrival::PiecewiseConstantRate& rate, ArrivalSchedule schedule) {
  if (pending_.empty() && schedule.empty()) {
    return Status::FailedPrecondition("no campaigns admitted");
  }
  const double bucket = rate.bucket_width_hours();

  std::vector<Launch> launches;
  launches.reserve(pending_.size() + schedule.entries_.size());
  for (Pending& pending : pending_) {
    Launch launch;
    launch.index = launches.size();
    launch.preadmitted = true;
    launch.id = pending.id;
    launch.config = pending.config;
    launch.acceptance = pending.acceptance;
    launch.rng = pending.rng;
    launches.push_back(std::move(launch));
  }
  std::vector<Control> controls;
  for (auto& entry : schedule.entries_) {
    Launch launch;
    launch.index = launches.size();
    launch.admit_edge = EdgeIndexCeil(entry.admit_hours, bucket);
    launch.config = entry.config;
    launch.artifact = std::move(entry.artifact);
    launch.controller = std::move(entry.controller);
    launch.acceptance = entry.acceptance;
    launch.rng = entry.rng;
    for (auto& event : entry.events) {
      Control control;
      control.edge = std::max(EdgeIndexCeil(event.at_hours, bucket),
                              launch.admit_edge);
      control.order = controls.size();
      control.launch = launch.index;
      control.retire = event.retire;
      control.artifact = std::move(event.artifact);
      controls.push_back(std::move(control));
    }
    launches.push_back(std::move(launch));
  }

  Result<std::vector<FleetOutcome>> outcomes =
      DriveFleet(map_, rate, std::move(launches), std::move(controls),
                 streaming_stats_);
  // The pending set is consumed either way: a failed run has already
  // retired an unknown subset of those campaigns from the shard map, so
  // keeping the entries would only replay ghosts on the next wave.
  pending_.clear();
  return outcomes;
}

}  // namespace crowdprice::market
