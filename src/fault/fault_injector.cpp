#include "fault/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace ccdem::fault {
namespace {

// Sub-stream ids under the injector's root stream.  Fixed forever: changing
// one fault class's draw pattern must not reshuffle the others.
constexpr std::uint64_t kSwitchStream = 1;
constexpr std::uint64_t kEpisodeStream = 2;
constexpr std::uint64_t kTouchStream = 3;
constexpr std::uint64_t kMeterStream = 4;
constexpr std::uint64_t kThermalStream = 5;
constexpr std::uint64_t kBrownoutStream = 6;
constexpr std::uint64_t kJitterStream = 7;

// Base state of charge of the brownout model: a low-battery regime just
// above the rate-cap threshold, so only an episode's load transient sags
// the SoC below the BrownoutThresholds.
constexpr double kBaseSoc = 0.16;

sim::Duration exp_gap(sim::Rng& rng, double per_s) {
  // Mean gap 1/rate seconds; floor at one tick so a huge rate cannot
  // schedule a zero-delay self-perpetuating event.
  const double gap_s = rng.exponential(1.0 / per_s);
  const auto ticks = static_cast<std::int64_t>(gap_s * 1e6);
  return sim::Duration{std::max<std::int64_t>(1, ticks)};
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, const FaultPlan& plan,
                             sim::Rng rng, obs::ObsSink* obs)
    : sim_(sim),
      plan_(plan),
      switch_rng_(rng.fork(kSwitchStream)),
      episode_rng_(rng.fork(kEpisodeStream)),
      touch_rng_(rng.fork(kTouchStream)),
      meter_rng_(rng.fork(kMeterStream)),
      thermal_rng_(rng.fork(kThermalStream)),
      brownout_rng_(rng.fork(kBrownoutStream)),
      jitter_rng_(rng.fork(kJitterStream)) {
  // Counter families register per plan half: a pressure-only plan publishes
  // no fault.* names (and vice versa), so the I3 clean-run checks can
  // assert absence of whichever family the scenario did not ask for.
  if (obs != nullptr && !plan_.fault_empty()) {
    ctr_switch_naks_ = &obs->counters.counter("fault.switch_naks");
    ctr_switch_delays_ = &obs->counters.counter("fault.switch_delays");
    ctr_stuck_episodes_ = &obs->counters.counter("fault.stuck_episodes");
    ctr_capability_losses_ = &obs->counters.counter("fault.capability_losses");
    ctr_touch_dropped_ = &obs->counters.counter("fault.touch_dropped");
    ctr_touch_duplicated_ = &obs->counters.counter("fault.touch_duplicated");
    ctr_touch_delayed_ = &obs->counters.counter("fault.touch_delayed");
    ctr_meter_bitflips_ = &obs->counters.counter("fault.meter_bitflips");
  }
  if (obs != nullptr && !plan_.pressure_empty()) {
    ctr_thermal_episodes_ =
        &obs->counters.counter("pressure.thermal_episodes");
    ctr_brownouts_ = &obs->counters.counter("pressure.brownouts");
    ctr_jitter_storms_ = &obs->counters.counter("pressure.jitter_storms");
    ctr_vsync_dropped_ = &obs->counters.counter("pressure.vsync_dropped");
    ctr_vsync_delayed_ = &obs->counters.counter("pressure.vsync_delayed");
  }
}

void FaultInjector::attach_panel(display::DisplayPanel* panel) {
  assert(panel != nullptr);
  assert(panel_ == nullptr);
  panel_ = panel;
  panel_->set_switch_interceptor(this);
  if (plan_.stuck_per_s > 0.0) schedule_next_stuck(sim_.now());
  if (plan_.capability_loss_per_s > 0.0) {
    schedule_next_capability_loss(sim_.now());
  }
  if (plan_.thermal_per_s > 0.0) schedule_next_thermal(sim_.now());
  if (plan_.brownout_per_s > 0.0) schedule_next_brownout(sim_.now());
  if (plan_.jitter_per_s > 0.0) {
    panel_->set_vsync_fault_hook(this);
    schedule_next_jitter(sim_.now());
  }
}

void FaultInjector::attach_input(input::InputDispatcher* dispatcher) {
  assert(dispatcher != nullptr);
  dispatcher->set_fault_hook(this);
}

void FaultInjector::schedule_next_stuck(sim::Time t) {
  const sim::Duration gap = exp_gap(episode_rng_, plan_.stuck_per_s);
  sim_.at(t + gap, [this](sim::Time now) {
    if (plan_.active(now)) {
      bump(stuck_episodes_, ctr_stuck_episodes_);
      stuck_until_ = std::max(stuck_until_, now + plan_.stuck_duration);
    }
    schedule_next_stuck(now);
  });
}

void FaultInjector::schedule_next_capability_loss(sim::Time t) {
  const sim::Duration gap = exp_gap(episode_rng_, plan_.capability_loss_per_s);
  sim_.at(t + gap, [this](sim::Time now) {
    if (plan_.active(now) && panel_ != nullptr) {
      // Revoke one currently-advertised rate -- never the hardware maximum,
      // which the recovery plane relies on as its always-valid fallback.
      const display::RefreshRateSet& adv = panel_->advertised_rates();
      std::vector<int> candidates;
      for (const int hz : adv.rates()) {
        if (hz != panel_->rates().max_hz()) candidates.push_back(hz);
      }
      // adv.count() >= 2: with the thermal cap possibly holding the maximum
      // revoked, losing the last advertised rate would empty the set.
      if (adv.count() >= 2 && !candidates.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            episode_rng_.uniform_int(0, static_cast<std::int64_t>(
                                            candidates.size() - 1)));
        const int hz = candidates[pick];
        bump(capability_losses_, ctr_capability_losses_);
        panel_->set_rate_advertised(hz, false);
        sim_.at(now + plan_.capability_loss_duration, [this, hz](sim::Time) {
          panel_->set_rate_advertised(hz, true);
        });
      }
    }
    schedule_next_capability_loss(now);
  });
}

void FaultInjector::schedule_next_thermal(sim::Time t) {
  const sim::Duration gap = exp_gap(thermal_rng_, plan_.thermal_per_s);
  sim_.at(t + gap, [this](sim::Time now) {
    if (plan_.pressure_active(now) && panel_ != nullptr) {
      bump(thermal_episodes_, ctr_thermal_episodes_);
      thermal_until_ = std::max(thermal_until_, now + plan_.thermal_duration);
      // Throttle = the DDIC stops advertising its top rate.  Skipped when
      // the set is down to one rate (something must stay advertised); the
      // degradation ladder still caps through the severity feed.
      const display::RefreshRateSet& adv = panel_->advertised_rates();
      const int max_hz = panel_->rates().max_hz();
      if (!thermal_revoked_ && adv.count() >= 2 && adv.supports(max_hz)) {
        thermal_revoked_ = true;
        panel_->set_rate_advertised(max_hz, false);
        arm_thermal_restore();
      }
    }
    schedule_next_thermal(now);
  });
}

void FaultInjector::arm_thermal_restore() {
  sim_.at(thermal_until_, [this](sim::Time now) {
    if (!thermal_revoked_) return;
    if (now < thermal_until_) {
      // The episode was extended while the restore slept: chase the new
      // horizon.
      arm_thermal_restore();
      return;
    }
    thermal_revoked_ = false;
    panel_->set_rate_advertised(panel_->rates().max_hz(), true);
  });
}

void FaultInjector::schedule_next_brownout(sim::Time t) {
  const sim::Duration gap = exp_gap(brownout_rng_, plan_.brownout_per_s);
  sim_.at(t + gap, [this](sim::Time now) {
    if (plan_.pressure_active(now)) {
      bump(brownouts_, ctr_brownouts_);
      brownout_until_ =
          std::max(brownout_until_, now + plan_.brownout_duration);
      // Load transient: sag the modeled SoC below the brownout thresholds.
      // The deeper draws also cross the brightness threshold, raising the
      // episode's severity.
      brownout_soc_ = kBaseSoc - brownout_rng_.uniform(0.04, 0.10);
    }
    schedule_next_brownout(now);
  });
}

void FaultInjector::schedule_next_jitter(sim::Time t) {
  const sim::Duration gap = exp_gap(jitter_rng_, plan_.jitter_per_s);
  sim_.at(t + gap, [this](sim::Time now) {
    if (plan_.pressure_active(now)) {
      bump(jitter_storms_, ctr_jitter_storms_);
      jitter_until_ = std::max(jitter_until_, now + plan_.jitter_duration);
    }
    schedule_next_jitter(now);
  });
}

double FaultInjector::soc(sim::Time t) const {
  return t < brownout_until_ ? brownout_soc_ : kBaseSoc;
}

bool FaultInjector::under_pressure(sim::Time t) const {
  return t < thermal_until_ || t < brownout_until_ || t < jitter_until_;
}

int FaultInjector::severity(sim::Time t) const {
  // Per-class weights express which rung neutralises the class: jitter is
  // absorbed by dropping the boost (1), a thermal cap or rate-threshold
  // brownout wants the max rate capped (2), a deep brownout below the
  // brightness threshold wants the panel dimmed too (3).  Concurrent
  // classes push one rung further each, up to safe mode.
  int live = 0;
  int worst = 0;
  if (t < jitter_until_) {
    ++live;
    worst = std::max(worst, 1);
  }
  if (t < thermal_until_) {
    ++live;
    worst = std::max(worst, 2);
  }
  if (t < brownout_until_) {
    ++live;
    const bool deep = brownout_soc_ < thresholds_.cap_brightness_below_soc;
    worst = std::max(worst, deep ? 3 : 2);
  }
  if (live == 0) return 0;
  return std::min(4, worst + (live - 1));
}

display::VsyncFaultHook::Verdict FaultInjector::on_vsync_tick(
    sim::Time t, int /*refresh_hz*/) {
  display::VsyncFaultHook::Verdict v;
  if (t >= jitter_until_) return v;
  if (jitter_rng_.chance(plan_.jitter_drop_p)) {
    bump(vsync_dropped_, ctr_vsync_dropped_);
    v.drop = true;
    return v;
  }
  if (jitter_rng_.chance(plan_.jitter_late_p)) {
    bump(vsync_delayed_, ctr_vsync_delayed_);
    const double hi = static_cast<double>(plan_.jitter_late_max.ticks);
    v.delay =
        sim::Duration{static_cast<std::int64_t>(jitter_rng_.uniform(1.0, hi))};
  }
  return v;
}

display::SwitchInterceptor::Decision FaultInjector::on_switch_request(
    sim::Time t, int /*from_hz*/, int /*to_hz*/) {
  Decision d;
  if (!plan_.active(t)) return d;
  if (panel_stuck(t)) {
    // A stuck DDIC refuses everything until the episode drains; counted as
    // a NAK each time so retries show up in the fault tallies.
    bump(switch_naks_, ctr_switch_naks_);
    d.ack = false;
    return d;
  }
  if (switch_rng_.chance(plan_.switch_nak_p)) {
    bump(switch_naks_, ctr_switch_naks_);
    d.ack = false;
    return d;
  }
  if (switch_rng_.chance(plan_.switch_delay_p)) {
    bump(switch_delays_, ctr_switch_delays_);
    const double lo = static_cast<double>(plan_.switch_delay_min.ticks);
    const double hi = static_cast<double>(plan_.switch_delay_max.ticks);
    d.settle = sim::Duration{
        static_cast<std::int64_t>(switch_rng_.uniform(lo, hi))};
  }
  return d;
}

input::InputFaultHook::Verdict FaultInjector::on_event(
    const input::TouchEvent& e) {
  input::InputFaultHook::Verdict v;
  if (!plan_.active(e.t)) return v;
  // Mutually exclusive branches: one fault per event keeps reasoning (and
  // the per-class probabilities) simple.
  if (touch_rng_.chance(plan_.touch_drop_p)) {
    bump(touch_dropped_, ctr_touch_dropped_);
    v.drop = true;
  } else if (touch_rng_.chance(plan_.touch_dup_p)) {
    bump(touch_duplicated_, ctr_touch_duplicated_);
    v.duplicate = true;
  } else if (touch_rng_.chance(plan_.touch_delay_p)) {
    bump(touch_delayed_, ctr_touch_delayed_);
    const double lo = static_cast<double>(plan_.touch_delay_min.ticks);
    const double hi = static_cast<double>(plan_.touch_delay_max.ticks);
    v.delay = sim::Duration{
        static_cast<std::int64_t>(touch_rng_.uniform(lo, hi))};
  }
  return v;
}

void FaultInjector::corrupt_samples(sim::Time t,
                                    std::span<gfx::Rgb888> samples) {
  if (samples.empty() || !plan_.active(t)) return;
  if (!meter_rng_.chance(plan_.meter_bitflip_p)) return;
  bump(meter_bitflips_, ctr_meter_bitflips_);
  const auto idx = static_cast<std::size_t>(meter_rng_.uniform_int(
      0, static_cast<std::int64_t>(samples.size() - 1)));
  const auto channel = meter_rng_.uniform_int(0, 2);
  const auto bit = static_cast<std::uint8_t>(
      1u << meter_rng_.uniform_int(0, 7));
  gfx::Rgb888& px = samples[idx];
  switch (channel) {
    case 0: px.r ^= bit; break;
    case 1: px.g ^= bit; break;
    default: px.b ^= bit; break;
  }
}

}  // namespace ccdem::fault
