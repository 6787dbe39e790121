#include "core/frame_rate_governor.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ccdem::core {

FrameRateGovernor::FrameRateGovernor(sim::Simulator& sim,
                                     gfx::SurfaceFlinger& flinger,
                                     std::function<void(double)> set_cap,
                                     power::DevicePowerModel* power,
                                     Config config, gfx::BufferPool* pool,
                                     obs::ObsSink* obs,
                                     const display::DisplayPanel* panel)
    : set_cap_(std::move(set_cap)),
      power_(power),
      panel_(panel),
      config_(config),
      meter_(flinger.screen_size(), config.meter.grid, config.meter.window,
             pool),
      obs_(obs) {
  assert(set_cap_);
  meter_.set_damage_culling(config_.meter.damage_culling);
  if (obs_ != nullptr) {
    meter_.set_obs(obs_);
    ctr_evaluations_ = &obs_->counters.counter("governor.evaluations");
    ctr_cap_changes_ = &obs_->counters.counter("governor.cap_changes");
  }
  flinger.add_listener(this);
  cap_trace_.record(sim.now(), 0.0);
  sim.every(config_.meter.eval_period, [this](sim::Time t) {
    if (!running_) return false;
    evaluate(t);
    return true;
  });
}

void FrameRateGovernor::on_frame(const gfx::FrameInfo& info,
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

void FrameRateGovernor::on_touch(const input::TouchEvent& e) {
  // A late-delivered (fault layer) event must not rewind the hold window.
  last_touch_ = std::max(last_touch_, e.t);
  if (current_cap_ != 0.0) {
    // Release immediately: interaction must not wait for the next tick.
    current_cap_ = 0.0;
    set_cap_(0.0);
    cap_trace_.record(e.t, 0.0);
    if (ctr_cap_changes_ != nullptr) ++*ctr_cap_changes_;
  }
}

void FrameRateGovernor::evaluate(sim::Time t) {
  ++evaluations_;
  double cap;
  if (t <= last_touch_ + config_.interact_hold) {
    cap = 0.0;  // interacting: uncapped
  } else {
    cap = std::max(config_.min_cap_fps,
                   meter_.content_rate(t) * config_.headroom);
  }
  if (panel_ != nullptr && cap > 0.0) {
    // Revalidate against the currently-advertised rates: frames above what
    // the link can present are pure waste.  Only a genuine capability loss
    // narrows the set, so the stock behaviour (cap free to exceed the
    // ladder) is untouched.
    const display::RefreshRateSet& advertised = panel_->advertised_rates();
    const int hw_max = panel_->rates().max_hz();
    if (advertised.max_hz() < hw_max &&
        cap > static_cast<double>(advertised.max_hz())) {
      cap = static_cast<double>(advertised.max_hz());
    }
  }
  if (ctr_evaluations_ != nullptr) ++*ctr_evaluations_;
  if (cap != current_cap_) {
    current_cap_ = cap;
    set_cap_(cap);
    cap_trace_.record(t, cap);
    if (ctr_cap_changes_ != nullptr) ++*ctr_cap_changes_;
  }
  CCDEM_OBS_SPAN(obs_, obs::Phase::kGovern, t, sim::Duration{}, evaluations_,
                 static_cast<std::int64_t>(cap));
}

}  // namespace ccdem::core
