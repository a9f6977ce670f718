#include "market/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/distributions.h"
#include "stats/poisson.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::market {

namespace {

Status ValidateOffer(const Offer& offer) {
  if (offer.group_size < 1) {
    return Status::InvalidArgument(
        StringF("controller returned group_size %d (< 1)", offer.group_size));
  }
  if (!(offer.per_task_reward_cents >= 0.0) ||
      !std::isfinite(offer.per_task_reward_cents)) {
    return Status::InvalidArgument(
        StringF("controller returned invalid reward %g",
                offer.per_task_reward_cents));
  }
  return Status::OK();
}

// One controller consultation on the decision surface: a single-type
// DecisionRequest (marketplace wall clock + campaign-local clock) answered
// by a sheet whose lone offer is unwrapped and validated. The session is a
// single-type campaign, so a wider sheet is a controller bug.
Result<Offer> DecideOffer(PricingController& controller, double when_hours,
                          double origin_hours, int64_t remaining) {
  DecisionRequest request;
  request.now_hours = when_hours;
  request.campaign_hours = when_hours - origin_hours;
  request.remaining.push_back(remaining);
  CP_ASSIGN_OR_RETURN(OfferSheet sheet, controller.Decide(request));
  if (sheet.num_types() != 1) {
    return Status::InvalidArgument(
        StringF("single-type campaign got a %d-offer sheet",
                sheet.num_types()));
  }
  CP_RETURN_IF_ERROR(ValidateOffer(sheet.offers[0]));
  return sheet.offers[0];
}

Status ValidateStart(double start_hours, const char* what) {
  if (!(start_hours >= 0.0) || !std::isfinite(start_hours)) {
    return Status::InvalidArgument(
        StringF("%s must be finite and >= 0; got %g", what, start_hours));
  }
  return Status::OK();
}

}  // namespace

CampaignSession::CampaignSession(const SimulatorConfig& config,
                                 const arrival::PiecewiseConstantRate& rate,
                                 const choice::AcceptanceFunction& acceptance,
                                 PricingController& controller, Rng rng,
                                 double origin_hours, double clock_hours)
    : config_(config),
      rate_(&rate),
      acceptance_(&acceptance),
      controller_(&controller),
      rng_(rng),
      remaining_(config.total_tasks),
      origin_hours_(origin_hours),
      end_hours_(origin_hours + config.horizon_hours),
      clock_hours_(clock_hours),
      next_epoch_(origin_hours) {}

Result<CampaignSession> CampaignSession::Create(
    const SimulatorConfig& config, const arrival::PiecewiseConstantRate& rate,
    const choice::AcceptanceFunction& acceptance, PricingController& controller,
    Rng rng) {
  return CreateAt(config, rate, acceptance, controller, rng, 0.0);
}

Result<CampaignSession> CampaignSession::CreateAt(
    const SimulatorConfig& config, const arrival::PiecewiseConstantRate& rate,
    const choice::AcceptanceFunction& acceptance, PricingController& controller,
    Rng rng, double start_hours) {
  CP_RETURN_IF_ERROR(config.Validate());
  CP_RETURN_IF_ERROR(ValidateStart(start_hours, "start_hours"));
  if (controller.num_types() != 1) {
    return Status::InvalidArgument(
        StringF("CampaignSession plays single-type campaigns; the "
                "controller prices %d types (use RunMultiTypeSimulation)",
                controller.num_types()));
  }
  return CampaignSession(config, rate, acceptance, controller, rng,
                         start_hours, start_hours);
}

Result<CampaignSession> CampaignSession::Resume(
    const SimulatorConfig& config, const arrival::PiecewiseConstantRate& rate,
    const choice::AcceptanceFunction& acceptance, PricingController& controller,
    Rng rng, double resume_hours) {
  CP_RETURN_IF_ERROR(config.Validate());
  CP_RETURN_IF_ERROR(ValidateStart(resume_hours, "resume_hours"));
  if (resume_hours > config.horizon_hours) {
    return Status::InvalidArgument(
        StringF("resume_hours %g is past the horizon %g", resume_hours,
                config.horizon_hours));
  }
  if (controller.num_types() != 1) {
    return Status::InvalidArgument(
        StringF("CampaignSession plays single-type campaigns; the "
                "controller prices %d types (use RunMultiTypeSimulation)",
                controller.num_types()));
  }
  CampaignSession session(config, rate, acceptance, controller, rng,
                          /*origin_hours=*/0.0, resume_hours);
  // Pick up on the original 0, d, 2d, ... epoch grid at the last epoch at
  // or before the resume point (the one whose offer is in force there):
  // the first arrival consults once, instead of replaying every epoch
  // since t = 0 against the restarted controller.
  session.next_epoch_ =
      std::floor(resume_hours / config.decision_interval_hours) *
      config.decision_interval_hours;
  return session;
}

Status CampaignSession::AdvanceUntil(double until_hours) {
  // Stream NHPP arrivals one rate bucket at a time (workloads with generous
  // horizons stop as soon as the batch is assigned, without materializing
  // the remaining arrivals). A bucket is played only once `until_hours`
  // covers it entirely, so slicing never changes the draw sequence.
  const double bucket = rate_->bucket_width_hours();
  while (!done()) {
    const double next_edge =
        (std::floor(clock_hours_ / bucket + 1e-12) + 1.0) * bucket;
    const double seg_end = std::min(next_edge, end_hours_);
    if (seg_end > until_hours) break;
    if (seg_end <= clock_hours_) {
      return Status::NumericError("arrival bucket walk made no progress");
    }
    CP_RETURN_IF_ERROR(ProcessBucket(clock_hours_, seg_end));
    clock_hours_ = seg_end;
  }
  return Status::OK();
}

Status CampaignSession::Curtail(double at_hours) {
  if (!(at_hours >= clock_hours_)) {
    return Status::InvalidArgument(
        StringF("Curtail(%g) is before the session clock %g", at_hours,
                clock_hours_));
  }
  end_hours_ = std::min(end_hours_, at_hours);
  return Status::OK();
}

Status CampaignSession::ProcessBucket(double seg_start, double seg_end) {
  const double mean = rate_->At(seg_start) * (seg_end - seg_start);
  const int count = stats::SamplePoisson(rng_, mean);
  arrivals_.clear();
  arrivals_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    arrivals_.push_back(seg_start + rng_.NextDouble() * (seg_end - seg_start));
  }
  std::sort(arrivals_.begin(), arrivals_.end());

  for (double t : arrivals_) {
    if (remaining_ <= 0) break;
    ++result_.worker_arrivals;
    // Refresh the offer at every decision epoch boundary crossed so far.
    while (next_epoch_ <= t) {
      CP_ASSIGN_OR_RETURN(
          offer_,
          DecideOffer(*controller_, next_epoch_, origin_hours_, remaining_));
      offer_valid_ = true;
      next_epoch_ += config_.decision_interval_hours;
    }
    if (config_.decide_on_every_assignment || !offer_valid_) {
      CP_ASSIGN_OR_RETURN(
          offer_, DecideOffer(*controller_, t, origin_hours_, remaining_));
      offer_valid_ = true;
    }

    const double p = acceptance_->ProbabilityAt(offer_.per_task_reward_cents);
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::NumericError(
          StringF("acceptance p(%g) = %g outside [0, 1]",
                  offer_.per_task_reward_cents, p));
    }
    if (!rng_.Bernoulli(p)) continue;

    // The worker takes HITs until they quit (retention) or tasks run out.
    WorkerRecord worker;
    worker.first_accept_hours = t;
    worker.true_accuracy =
        config_.accuracy.enabled
            ? stats::SampleBeta(rng_, config_.accuracy.beta_alpha,
                                config_.accuracy.beta_beta)
            : 0.0;
    double now = t;
    Offer active = offer_;
    while (remaining_ > 0) {
      if (config_.decide_on_every_assignment) {
        CP_ASSIGN_OR_RETURN(
            active, DecideOffer(*controller_, now, origin_hours_, remaining_));
      }
      const int take =
          static_cast<int>(std::min<int64_t>(active.group_size, remaining_));
      remaining_ -= take;
      result_.tasks_assigned += take;
      const double done_at =
          now + config_.service_minutes_per_task * take / 60.0;
      const double paid = active.per_task_reward_cents * take;
      result_.total_cost_cents += paid;
      CompletionEvent ev;
      ev.time_hours = done_at;
      ev.tasks = take;
      ev.cost_cents = paid;
      ev.group_size = active.group_size;
      result_.events.push_back(ev);
      last_completion_ = std::max(last_completion_, done_at);
      worker.hits += 1;
      worker.tasks += take;
      if (config_.accuracy.enabled) {
        worker.correct +=
            stats::SampleBinomial(rng_, take, worker.true_accuracy);
      }
      now = done_at;
      // Quit the session at the horizon or by the retention coin flip.
      if (now >= end_hours_) break;
      if (!rng_.Bernoulli(
              config_.retention.ProbabilityAt(active.per_task_reward_cents))) {
        break;
      }
    }
    result_.workers.push_back(worker);
  }
  return Status::OK();
}

Result<SimulationResult> CampaignSession::TakeResult() && {
  if (!done()) {
    return Status::FailedPrecondition(
        "TakeResult before the campaign reached its horizon or finished");
  }
  SimulationResult result = std::move(result_);
  for (const auto& ev : result.events) {
    if (ev.time_hours <= end_hours_) {
      result.tasks_completed_by_horizon += ev.tasks;
    }
  }
  result.tasks_unassigned = config_.total_tasks - result.tasks_assigned;
  result.finished = result.tasks_assigned == config_.total_tasks;
  result.completion_time_hours =
      result.finished ? last_completion_ : end_hours_;
  return result;
}

}  // namespace crowdprice::market
