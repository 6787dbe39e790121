// SimulatedDevice: the full device assembly behind one façade.
//
// Owns the simulator, panel, SurfaceFlinger, input dispatcher, power model,
// metrics recorders and the selected controller (DisplayPowerManager /
// FrameRateGovernor per ControlMode), wired in the one canonical order the
// experiment harness established -- event ties in the simulator break by
// insertion order, so construction order *is* part of the reproducible
// contract.  Every consumer (run_experiment, switching sessions, the
// extension benches, tests) builds on this class instead of re-deriving the
// ~60 lines of glue.
//
// Lifecycle per run:
//   configure(cfg)            -- tears down the previous run, builds panel +
//                                substrates (first V-Sync is scheduled here)
//   install_app(spec, ...)    -- creates surface + AppModel (repeatable)
//   start_control()           -- creates DPM/governor/PSR and fixes the
//                                input-listener order (boost before apps)
//   schedule_monkey_script()  -- queues deterministic input (repeatable)
//   run_for()/run_until()     -- lazily attaches the Monsoon meter, runs
//   finish()                  -- stops series, closes recorder buckets
//
// A device is reusable: configure() again for the next run.  Constructed
// with `use_buffer_pool = true` the device keeps a gfx::BufferPool whose
// storage (screen buffer, surfaces, meter snapshots -- several MB per run)
// carries across configure() calls; contents are always re-initialised, so
// pooled runs are bit-identical to fresh-device runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/app_model.h"
#include "core/display_power_manager.h"
#include "core/frame_rate_governor.h"
#include "core/self_refresh_controller.h"
#include "device/device_config.h"
#include "display/display_panel.h"
#include "fault/fault_injector.h"
#include "gfx/buffer_pool.h"
#include "gfx/surface_flinger.h"
#include "input/input_dispatcher.h"
#include "input/monkey.h"
#include "metrics/frame_stats_recorder.h"
#include "metrics/response_latency.h"
#include "power/device_power_model.h"
#include "power/monsoon_meter.h"
#include "power/oled_panel_model.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace ccdem::device {

class SimulatedDevice {
 public:
  /// Canonical RNG stream ids: a single-app experiment forks the app model
  /// from stream 1, its Monkey script from stream 2 and the fault injector
  /// from stream 3 off the seed root.
  static constexpr std::uint64_t kAppRngStream = 1;
  static constexpr std::uint64_t kMonkeyRngStream = 2;
  static constexpr std::uint64_t kFaultRngStream = 3;
  /// Overlay surfaces (AppSpec::overlays) fork streams 16, 17, ... in
  /// declaration order, well clear of the primary streams above.
  static constexpr std::uint64_t kAuxRngStreamBase = 16;

  explicit SimulatedDevice(bool use_buffer_pool = false);
  ~SimulatedDevice();

  SimulatedDevice(const SimulatedDevice&) = delete;
  SimulatedDevice& operator=(const SimulatedDevice&) = delete;

  /// Builds a fresh device for `config`, discarding any previous run.  The
  /// panel starts ticking at sim time 0 (first V-Sync fires at now()).
  void configure(const DeviceConfig& config);

  /// Creates the app's surface (full-window unless the spec carries a
  /// surface_rect) and its AppModel (RNG = fork of the config seed at
  /// `rng_stream`), then installs any AppSpec::overlays on aux streams.
  /// Apps installed before start_control()
  /// receive input after the controller (boost fires before the app, as on
  /// Android); apps installed later append in install order.
  apps::AppModel& install_app(const apps::AppSpec& spec,
                              std::uint64_t rng_stream = kAppRngStream,
                              bool foreground = true, int z_order = 0);

  /// Creates the controller selected by the config's mode (none for
  /// kBaseline60; the kE3FrameRate governor caps the first installed app)
  /// and registers the input pipeline in canonical order.  Call exactly
  /// once per configure(), after the primary app is installed.
  void start_control();

  /// Generates and schedules a deterministic Monkey script (RNG = fork of
  /// the config seed at `rng_stream`).  `offset` shifts gesture times, for
  /// per-segment scripts in switching sessions.
  void schedule_monkey_script(const input::MonkeyProfile& profile,
                              sim::Duration length,
                              std::uint64_t rng_stream = kMonkeyRngStream,
                              sim::Time offset = sim::Time{});

  /// Backgrounds every foreground app and resumes `index` (forces a full
  /// window repaint, as a real activity resume does).
  void focus_app(std::size_t index);

  /// Runs the simulation; the Monsoon meter attaches on the first call (it
  /// samples from attach time, mirroring measurement starting with the run).
  void run_for(sim::Duration d);
  void run_until(sim::Time t);

  /// Stops the V-Sync series, controllers and meter, and closes the frame
  /// recorder's last bucket.  Idempotent.
  void finish();

  /// Registers an extra frame listener (metrics, probes) on the compositor.
  void add_frame_listener(gfx::FrameListener* l);

  // --- accessors ---------------------------------------------------------
  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& sim() { return *sim_; }
  [[nodiscard]] gfx::SurfaceFlinger& flinger() { return *flinger_; }
  [[nodiscard]] display::DisplayPanel& panel() { return *panel_; }
  [[nodiscard]] power::DevicePowerModel& power() { return *power_; }
  [[nodiscard]] input::InputDispatcher& dispatcher() { return *dispatcher_; }
  [[nodiscard]] metrics::FrameStatsRecorder& recorder() { return *recorder_; }
  /// The touch-response latency recorder (attached on every configure()).
  [[nodiscard]] metrics::ResponseLatencyRecorder* latency() {
    return latency_.get();
  }
  /// Null unless the mode runs the respective controller.
  [[nodiscard]] core::DisplayPowerManager* dpm() { return dpm_.get(); }
  [[nodiscard]] core::FrameRateGovernor* governor() { return governor_.get(); }
  [[nodiscard]] core::SelfRefreshController* psr() {
    // Standalone for the stock arms; owned by the pipeline's self_refresh
    // stage when a DPM runs.
    if (psr_) return psr_.get();
    return dpm_ ? dpm_->self_refresh() : nullptr;
  }
  /// Null unless the config carries a non-empty FaultPlan.
  [[nodiscard]] fault::FaultInjector* fault() { return fault_.get(); }
  [[nodiscard]] power::OledPanelModel* oled_model() { return oled_.get(); }
  /// Null until the first run_for()/run_until() after configure().
  [[nodiscard]] power::MonsoonMeter* meter() { return meter_.get(); }
  [[nodiscard]] const sim::Trace& refresh_trace() const {
    return refresh_trace_;
  }
  [[nodiscard]] std::size_t app_count() const { return apps_.size(); }
  [[nodiscard]] apps::AppModel& app(std::size_t index = 0) {
    return *apps_[index];
  }
  /// Null unless constructed with `use_buffer_pool = true`.
  [[nodiscard]] gfx::BufferPool* buffer_pool() { return pool_.get(); }

 private:
  class ComposerHook;
  class TouchPowerHook;

  void ensure_meter();

  std::unique_ptr<gfx::BufferPool> pool_;  // outlives everything below
  DeviceConfig config_;
  sim::Rng root_{1};

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<gfx::SurfaceFlinger> flinger_;
  std::unique_ptr<power::DevicePowerModel> power_;
  std::unique_ptr<power::OledPanelModel> oled_;
  std::unique_ptr<metrics::FrameStatsRecorder> recorder_;
  std::unique_ptr<metrics::ResponseLatencyRecorder> latency_;
  std::unique_ptr<display::DisplayPanel> panel_;
  std::unique_ptr<ComposerHook> composer_;
  std::unique_ptr<input::InputDispatcher> dispatcher_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<TouchPowerHook> touch_power_;
  std::unique_ptr<core::DisplayPowerManager> dpm_;
  std::unique_ptr<core::FrameRateGovernor> governor_;
  std::unique_ptr<core::SelfRefreshController> psr_;
  std::unique_ptr<power::MonsoonMeter> meter_;
  std::vector<std::unique_ptr<apps::AppModel>> apps_;
  std::vector<apps::AppModel*> pending_input_apps_;

  sim::Trace refresh_trace_{"refresh_hz"};
  bool control_started_ = false;
  bool finished_ = false;

  /// Pool lifetime-counter baselines at configure(), so finish() exports
  /// per-run pool.* deltas even though the pool outlives runs.
  std::uint64_t last_pool_acquires_ = 0;
  std::uint64_t last_pool_reuses_ = 0;
};

}  // namespace ccdem::device
