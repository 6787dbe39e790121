#include "core/display_power_manager.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/policy_stages.h"

namespace ccdem::core {

DisplayPowerManager::DisplayPowerManager(
    sim::Simulator& sim, display::DisplayPanel& panel,
    gfx::SurfaceFlinger& flinger, std::unique_ptr<PolicyPipeline> pipeline,
    power::DevicePowerModel* power, DpmConfig config, gfx::BufferPool* pool,
    obs::ObsSink* obs)
    : sim_(sim),
      panel_(panel),
      pipeline_(std::move(pipeline)),
      power_(power),
      config_(config),
      meter_(flinger.screen_size(), config.meter.grid, config.meter.window,
             pool),
      booster_(config.boost_hold, config.boost_min_hold),
      prev_policy_hz_(panel.refresh_hz()),
      obs_(obs) {
  assert(pipeline_ != nullptr);
  boost_enabled_ = pipeline_->has_stage("boost");
  meter_.set_damage_culling(config_.meter.damage_culling);
  if (obs_ != nullptr) {
    meter_.set_obs(obs_);
    ctr_evaluations_ = &obs_->counters.counter("dpm.evaluations");
    ctr_rate_changes_ = &obs_->counters.counter("dpm.rate_changes");
    ctr_section_transitions_ =
        &obs_->counters.counter("dpm.section_transitions");
    ctr_boost_activations_ = &obs_->counters.counter("dpm.boost_activations");
    if (config_.recovery.enabled) {
      // Registered only with recovery on: a disabled controller publishes
      // the exact pre-recovery counter set, so golden snapshots stay
      // bit-identical (the zero-cost-when-disabled contract).
      ctr_retries_ = &obs_->counters.counter("dpm.retries");
      ctr_retry_giveups_ = &obs_->counters.counter("dpm.retry_giveups");
      ctr_safe_mode_entries_ =
          &obs_->counters.counter("dpm.safe_mode_entries");
      ctr_safe_mode_rearms_ = &obs_->counters.counter("dpm.safe_mode_rearms");
      gauge_degradation_ = &obs_->counters.gauge("dpm.degradation_state");
      *gauge_degradation_ = 0.0;
    }
  }
  pipeline_->set_obs(obs_);
  pipeline_->bind_recovery_host(this);
  flinger.add_listener(this);
  refresh_rate_trace_.record(sim_.now(),
                             static_cast<double>(panel_.refresh_hz()));
  sim_.every(config_.meter.eval_period, [this](sim::Time t) {
    if (!running_) return false;
    evaluate(t);
    return true;
  });
  // Last: stages with their own listeners / event series (self-refresh)
  // register after everything above, preserving the canonical order the
  // device assembly established.
  pipeline_->start(sim_);
}

SelfRefreshController* DisplayPowerManager::self_refresh() {
  auto* stage =
      static_cast<SelfRefreshStage*>(pipeline_->stage("self_refresh"));
  return stage != nullptr ? stage->controller() : nullptr;
}

int DisplayPowerManager::boost_target_hz() const {
  return resolve_boost_hz(panel_.advertised_rates(), config_.boost_hz);
}

void DisplayPowerManager::on_touch(const input::TouchEvent& e) {
  const bool was_active = booster_.active(e.t);
  booster_.on_touch(e);
  if (!was_active && ctr_boost_activations_ != nullptr) {
    ++*ctr_boost_activations_;
  }
  if (!boost_enabled_) return;
  if (config_.recovery.enabled && safe_mode()) return;  // already pinned max
  // Boost immediately: waiting for the next evaluation tick would reopen the
  // reaction-lag hole the booster exists to close.
  request_rate(e.t, boost_target_hz());
}

void DisplayPowerManager::on_frame(const gfx::FrameInfo& info,
                                   const gfx::Framebuffer& fb) {
  meter_.on_frame(info, fb);
  if (power_ != nullptr && config_.charge_meter_cost) {
    power_->add_energy_mj(
        info.composed_at,
        meter_.cost_model().energy_mj(
            static_cast<std::int64_t>(meter_.sampler().sample_count()),
            config_.meter_cpu_mw),
        power::EnergyTag::kMeter);
  }
}

display::SwitchResult DisplayPowerManager::push_rate(sim::Time t, int hz) {
  const display::SwitchResult res = panel_.set_refresh_rate(hz);
  if (res) {
    if (ctr_rate_changes_ != nullptr) ++*ctr_rate_changes_;
    refresh_rate_trace_.record(t, static_cast<double>(hz));
  }
  return res;
}

void DisplayPowerManager::request_rate(sim::Time t, int hz) {
  const display::SwitchResult res = push_rate(t, hz);
  if (!config_.recovery.enabled) return;
  if (res.nacked) {
    if (pending_target_ != hz) {
      pending_target_ = hz;
      pending_since_ = t;
      retries_ = 0;
      if (!safe_mode()) set_degradation(DegradationState::kRetrying);
    }
    if (!retry_scheduled_) schedule_retry(t);
    return;
  }
  if (res.changed) {
    // Acknowledged: the link is responsive.  Close any retry ladder and
    // heal the consecutive-fault streak.
    abandon_pending(t);
    consecutive_faults_ = 0;
    if (!safe_mode()) set_degradation(DegradationState::kNormal);
  }
  // A redundant request (panel already pending at hz) carries no health
  // information either way.
}

void DisplayPowerManager::schedule_retry(sim::Time t) {
  // Exponential backoff: backoff, 2x, 4x, ... per failed attempt.
  const sim::Duration backoff{config_.recovery.retry_backoff.ticks
                              << std::min(retries_, 16)};
  retry_scheduled_ = true;
  retry_event_ = sim_.at(t + backoff, [this](sim::Time rt) { on_retry(rt); });
}

void DisplayPowerManager::on_retry(sim::Time t) {
  retry_scheduled_ = false;
  if (!running_ || pending_target_ == 0) return;
  ++retries_;
  if (ctr_retries_ != nullptr) ++*ctr_retries_;
  CCDEM_OBS_SPAN(obs_, obs::Phase::kRecover, t, sim::Duration{},
                 static_cast<std::uint64_t>(retries_), pending_target_);
  const display::SwitchResult res = push_rate(t, pending_target_);
  if (!res.nacked) {
    // The panel took it (or is already pending there): ladder closed.
    abandon_pending(t);
    consecutive_faults_ = 0;
    if (!safe_mode()) set_degradation(DegradationState::kNormal);
    return;
  }
  if (retries_ >= config_.recovery.max_retries ||
      t - pending_since_ >= config_.recovery.switch_timeout) {
    // Give up on this target: one fault, fall back to the maximum
    // advertised rate (the one request a degraded DDIC is most likely to
    // honour, and the quality-safe direction).
    if (ctr_retry_giveups_ != nullptr) ++*ctr_retry_giveups_;
    abandon_pending(t);
    note_fault(t);
    if (!safe_mode()) {
      set_degradation(DegradationState::kFallback);
      push_rate(t, panel_.advertised_rates().max_hz());
    }
    return;
  }
  schedule_retry(t);
}

void DisplayPowerManager::abandon_pending(sim::Time) {
  if (retry_scheduled_) {
    sim_.cancel(retry_event_);
    retry_scheduled_ = false;
  }
  pending_target_ = 0;
  retries_ = 0;
}

void DisplayPowerManager::note_fault(sim::Time t) {
  ++consecutive_faults_;
  if (!safe_mode() &&
      consecutive_faults_ >= config_.recovery.safe_mode_after) {
    enter_safe_mode(t);
  }
}

void DisplayPowerManager::mark_fallback() {
  if (!safe_mode()) set_degradation(DegradationState::kFallback);
}

void DisplayPowerManager::rearm_safe_mode(sim::Time) {
  consecutive_faults_ = 0;
  if (ctr_safe_mode_rearms_ != nullptr) ++*ctr_safe_mode_rearms_;
  set_degradation(DegradationState::kNormal);
}

void DisplayPowerManager::set_degradation(DegradationState s) {
  if (degradation_ == s) return;
  degradation_ = s;
  if (gauge_degradation_ != nullptr) {
    *gauge_degradation_ = static_cast<double>(s);
  }
}

void DisplayPowerManager::enter_safe_mode(sim::Time t) {
  if (ctr_safe_mode_entries_ != nullptr) ++*ctr_safe_mode_entries_;
  abandon_pending(t);
  safe_until_ = t + config_.recovery.safe_mode_cooldown;
  set_degradation(DegradationState::kSafeMode);
  CCDEM_OBS_SPAN(obs_, obs::Phase::kRecover, t,
                 config_.recovery.safe_mode_cooldown, evaluations_,
                 static_cast<int>(DegradationState::kSafeMode));
  // Pin the maximum advertised rate for the cooldown.  A NAK here opens the
  // retry ladder on the pin itself; every evaluation re-requests it too.
  request_rate(t, panel_.advertised_rates().max_hz());
}

void DisplayPowerManager::evaluate(sim::Time t) {
  ++evaluations_;
  const double content_fps = meter_.content_rate(t);
  content_rate_trace_.record(t, content_fps);

  PolicyInput in;
  in.now = t;
  in.content_fps = content_fps;
  in.current_hz = panel_.refresh_hz();
  in.vsync_count = panel_.vsync_count();
  in.boost_active = boost_enabled_ && booster_.active(t);
  in.rates = &panel_.rates();
  in.advertised = &panel_.advertised_rates();

  const PipelineDecision d = pipeline_->evaluate(in);
  if (!d.preempted && d.policy_hz != prev_policy_hz_) {
    prev_policy_hz_ = d.policy_hz;
    if (ctr_section_transitions_ != nullptr) ++*ctr_section_transitions_;
  }
  const int target = d.target_hz;

  if (ctr_evaluations_ != nullptr) ++*ctr_evaluations_;
  if (config_.recovery.enabled && pending_target_ != 0 &&
      pending_target_ == target) {
    // The retry ladder already owns this target; its backoff cadence drives
    // the re-requests instead of hammering the DDIC every evaluation.
  } else {
    request_rate(t, target);
  }
  CCDEM_OBS_SPAN(obs_, obs::Phase::kGovern, t, sim::Duration{}, evaluations_,
                 target);
}

}  // namespace ccdem::core
