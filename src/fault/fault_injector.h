// FaultInjector: turns a FaultPlan into deterministic fault streams.
//
// One injector wraps one device's panel and input path.  It implements the
// three interposition interfaces the substrates expose --
// display::SwitchInterceptor (NAKs, settle jitter, stuck episodes),
// input::InputFaultHook (drop / duplicate / late touch events) and
// core::SampleFault (bit flips in the meter's retained grid reads) -- and
// schedules its Poisson episodes (stuck-at-rate, capability loss) on the
// device's simulator.
//
// Determinism: the injector owns an RNG forked from the device seed
// (SimulatedDevice::kFaultRngStream) and sub-forks one stream per fault
// class, so e.g. raising the touch-drop rate never perturbs the switch-NAK
// sequence.  Identical (seed, plan) => identical faults, serially or under
// the FleetRunner -- the fault-envelope bench asserts counter identity.
//
// Observability: every injected fault increments a fault.* counter in the
// ObsSink passed at construction (registered there and then, so a device
// without an injector publishes no fault.* names at all).
#pragma once

#include <cstdint>
#include <span>

#include "core/content_rate_meter.h"
#include "core/control_config.h"
#include "display/display_panel.h"
#include "fault/fault_plan.h"
#include "gfx/pixel.h"
#include "input/input_dispatcher.h"
#include "obs/obs.h"
#include "power/battery.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ccdem::fault {

class FaultInjector final : public display::SwitchInterceptor,
                            public display::VsyncFaultHook,
                            public input::InputFaultHook,
                            public core::SampleFault,
                            public core::PressureSource {
 public:
  /// `obs` may be null (no counters).  The injector must outlive the panel
  /// and dispatcher it attaches to.
  FaultInjector(sim::Simulator& sim, const FaultPlan& plan, sim::Rng rng,
                obs::ObsSink* obs = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the switch interceptor and schedules the stuck / capability
  /// episode processes.  Call once, right after the panel is built.
  void attach_panel(display::DisplayPanel* panel);

  /// Installs the input fault hook.
  void attach_input(input::InputDispatcher* dispatcher);

  // --- display::SwitchInterceptor -----------------------------------------
  Decision on_switch_request(sim::Time t, int from_hz, int to_hz) override;

  // --- display::VsyncFaultHook (jitter storms) ----------------------------
  display::VsyncFaultHook::Verdict on_vsync_tick(sim::Time t,
                                                 int refresh_hz) override;

  // --- input::InputFaultHook ----------------------------------------------
  input::InputFaultHook::Verdict on_event(const input::TouchEvent& e) override;

  // --- core::PressureSource (degradation ladder feed) ---------------------
  [[nodiscard]] bool under_pressure(sim::Time t) const override;
  [[nodiscard]] int severity(sim::Time t) const override;

  // --- core::SampleFault ---------------------------------------------------
  void corrupt_samples(sim::Time t,
                       std::span<gfx::Rgb888> samples) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// True while a stuck-at-rate episode is live at `t`.
  [[nodiscard]] bool panel_stuck(sim::Time t) const {
    return t < stuck_until_;
  }

  // Lifetime fault tallies (mirrored into the fault.* counters when an
  // ObsSink is attached).
  [[nodiscard]] std::uint64_t switch_naks() const { return switch_naks_; }
  [[nodiscard]] std::uint64_t switch_delays() const { return switch_delays_; }
  [[nodiscard]] std::uint64_t stuck_episodes() const {
    return stuck_episodes_;
  }
  [[nodiscard]] std::uint64_t capability_losses() const {
    return capability_losses_;
  }
  [[nodiscard]] std::uint64_t touch_dropped() const { return touch_dropped_; }
  [[nodiscard]] std::uint64_t touch_duplicated() const {
    return touch_duplicated_;
  }
  [[nodiscard]] std::uint64_t touch_delayed() const { return touch_delayed_; }
  [[nodiscard]] std::uint64_t meter_bitflips() const {
    return meter_bitflips_;
  }
  [[nodiscard]] std::uint64_t thermal_episodes() const {
    return thermal_episodes_;
  }
  [[nodiscard]] std::uint64_t brownouts() const { return brownouts_; }
  [[nodiscard]] std::uint64_t jitter_storms() const { return jitter_storms_; }
  [[nodiscard]] std::uint64_t vsync_dropped() const { return vsync_dropped_; }
  [[nodiscard]] std::uint64_t vsync_delayed() const { return vsync_delayed_; }

  /// The modeled state of charge the brownout plane reads at `t`: the
  /// low-battery base while healthy, sagged below the brownout thresholds
  /// while an episode's load transient is live.
  [[nodiscard]] double soc(sim::Time t) const;

 private:
  void schedule_next_stuck(sim::Time t);
  void schedule_next_capability_loss(sim::Time t);
  void schedule_next_thermal(sim::Time t);
  void schedule_next_brownout(sim::Time t);
  void schedule_next_jitter(sim::Time t);
  void arm_thermal_restore();
  void bump(std::uint64_t& tally, std::uint64_t* ctr) {
    ++tally;
    if (ctr != nullptr) ++*ctr;
  }

  sim::Simulator& sim_;
  FaultPlan plan_;
  // One sub-stream per fault class: draws in one class never shift another.
  sim::Rng switch_rng_;
  sim::Rng episode_rng_;
  sim::Rng touch_rng_;
  sim::Rng meter_rng_;
  // Pressure episode classes get their own streams too, so turning pressure
  // on never perturbs the legacy fault sequences (and vice versa).
  sim::Rng thermal_rng_;
  sim::Rng brownout_rng_;
  sim::Rng jitter_rng_;

  display::DisplayPanel* panel_ = nullptr;
  sim::Time stuck_until_{};

  // Pressure episode state.  Episodes max-extend their `until_`, so
  // overlapping arrivals merge into one longer episode.
  sim::Time thermal_until_{};
  sim::Time brownout_until_{};
  sim::Time jitter_until_{};
  /// True while the thermal cap has revoked the hardware maximum rate.
  bool thermal_revoked_ = false;
  /// SoC the brownout plane reads while an episode's sag is live.
  double brownout_soc_ = 1.0;
  power::BrownoutThresholds thresholds_ = power::BrownoutThresholds::galaxy_s3();

  std::uint64_t switch_naks_ = 0;
  std::uint64_t switch_delays_ = 0;
  std::uint64_t stuck_episodes_ = 0;
  std::uint64_t capability_losses_ = 0;
  std::uint64_t touch_dropped_ = 0;
  std::uint64_t touch_duplicated_ = 0;
  std::uint64_t touch_delayed_ = 0;
  std::uint64_t meter_bitflips_ = 0;
  std::uint64_t thermal_episodes_ = 0;
  std::uint64_t brownouts_ = 0;
  std::uint64_t jitter_storms_ = 0;
  std::uint64_t vsync_dropped_ = 0;
  std::uint64_t vsync_delayed_ = 0;

  std::uint64_t* ctr_switch_naks_ = nullptr;
  std::uint64_t* ctr_switch_delays_ = nullptr;
  std::uint64_t* ctr_stuck_episodes_ = nullptr;
  std::uint64_t* ctr_capability_losses_ = nullptr;
  std::uint64_t* ctr_touch_dropped_ = nullptr;
  std::uint64_t* ctr_touch_duplicated_ = nullptr;
  std::uint64_t* ctr_touch_delayed_ = nullptr;
  std::uint64_t* ctr_meter_bitflips_ = nullptr;
  std::uint64_t* ctr_thermal_episodes_ = nullptr;
  std::uint64_t* ctr_brownouts_ = nullptr;
  std::uint64_t* ctr_jitter_storms_ = nullptr;
  std::uint64_t* ctr_vsync_dropped_ = nullptr;
  std::uint64_t* ctr_vsync_delayed_ = nullptr;
};

}  // namespace ccdem::fault
