#include "device/simulated_device.h"

#include <cassert>
#include <utility>

#include "core/policy_stages.h"

namespace ccdem::device {

/// Bridges the panel's composer phase to the SurfaceFlinger.
class SimulatedDevice::ComposerHook final : public display::VsyncObserver {
 public:
  ComposerHook(gfx::SurfaceFlinger& flinger, obs::ObsSink* obs)
      : flinger_(flinger), obs_(obs) {
    if (obs_ != nullptr) {
      ctr_vsyncs_ = &obs_->counters.counter("panel.vsyncs");
    }
  }

  void on_vsync(sim::Time t, int refresh_hz) override {
    if (ctr_vsyncs_ != nullptr) ++*ctr_vsyncs_;
    const bool composed = flinger_.on_vsync(t);
    if (composed) {
      // The frame occupies the panel until the next V-Sync: one period.
      CCDEM_OBS_SPAN(obs_, obs::Phase::kPanelPresent, t,
                     sim::seconds_f(refresh_hz > 0 ? 1.0 / refresh_hz : 0.0),
                     flinger_.frames_composed(), refresh_hz);
    }
  }

 private:
  gfx::SurfaceFlinger& flinger_;
  obs::ObsSink* obs_;
  std::uint64_t* ctr_vsyncs_ = nullptr;
};

/// Charges the input pipeline's CPU cost per touch event, when the event
/// is handled.  That is not always `e.t`: the fault plane redelivers a late
/// touch with its original timestamp, and the power model integrates
/// forward only.
class SimulatedDevice::TouchPowerHook final : public input::TouchListener {
 public:
  TouchPowerHook(power::DevicePowerModel& power, const sim::Simulator& sim)
      : power_(power), sim_(sim) {}
  void on_touch(const input::TouchEvent&) override {
    power_.on_touch(sim_.now());
  }

 private:
  power::DevicePowerModel& power_;
  const sim::Simulator& sim_;
};

SimulatedDevice::SimulatedDevice(bool use_buffer_pool) {
  if (use_buffer_pool) pool_ = std::make_unique<gfx::BufferPool>();
}

SimulatedDevice::~SimulatedDevice() = default;

void SimulatedDevice::configure(const DeviceConfig& config) {
  // Tear down the previous run, dependents first.  The pool (if any) stays:
  // every framebuffer and meter snapshot released here is recycled by the
  // next assembly.
  meter_.reset();
  psr_.reset();
  governor_.reset();
  dpm_.reset();
  apps_.clear();
  pending_input_apps_.clear();
  touch_power_.reset();
  fault_.reset();
  dispatcher_.reset();
  composer_.reset();
  panel_.reset();  // rate listener captures this->power_ / refresh_trace_
  latency_.reset();
  recorder_.reset();
  oled_.reset();
  power_.reset();
  flinger_.reset();
  sim_.reset();
  control_started_ = false;
  finished_ = false;

  config_ = config;
  root_ = sim::Rng(config_.seed);
  sim_ = std::make_unique<sim::Simulator>();

  // --- device substrates, in the canonical order --------------------------
  flinger_ = std::make_unique<gfx::SurfaceFlinger>(config_.screen, pool_.get());
  flinger_->set_obs(config_.obs);
  if (pool_) {
    // Pool counters are lifetime totals; remember the baseline so finish()
    // can export this run's deltas.
    last_pool_acquires_ = pool_->acquires();
    last_pool_reuses_ = pool_->reuses();
  }

  const int start_hz = initial_refresh_hz(config_);
  power_ = std::make_unique<power::DevicePowerModel>(config_.power, start_hz);
  power_->set_brightness(sim_->now(), config_.brightness);
  flinger_->add_listener(power_.get());

  if (config_.oled) {
    oled_ = std::make_unique<power::OledPanelModel>(*power_, *config_.oled);
    flinger_->add_listener(oled_.get());
  }

  recorder_ = std::make_unique<metrics::FrameStatsRecorder>();
  recorder_->set_obs(config_.obs);
  flinger_->add_listener(recorder_.get());

  latency_ = std::make_unique<metrics::ResponseLatencyRecorder>();
  flinger_->add_listener(latency_.get());

  panel_ = std::make_unique<display::DisplayPanel>(*sim_, config_.rates,
                                                   start_hz);
  panel_->set_fast_rate_up(config_.fast_rate_up);
  refresh_trace_ = sim::Trace("refresh_hz");
  refresh_trace_.record(sim_->now(), static_cast<double>(start_hz));
  std::uint64_t* ctr_rate_changes =
      config_.obs != nullptr
          ? &config_.obs->counters.counter("panel.rate_changes")
          : nullptr;
  panel_->add_rate_listener([this, ctr_rate_changes](sim::Time t, int hz) {
    power_->on_rate_change(t, hz);
    refresh_trace_.record(t, static_cast<double>(hz));
    if (ctr_rate_changes != nullptr) ++*ctr_rate_changes;
  });

  composer_ = std::make_unique<ComposerHook>(*flinger_, config_.obs);
  panel_->add_observer(display::VsyncPhase::kComposer, composer_.get());

  dispatcher_ = std::make_unique<input::InputDispatcher>(*sim_);
  touch_power_ = std::make_unique<TouchPowerHook>(*power_, *sim_);

  if (!config_.fault.empty()) {
    // The injector forks its own RNG stream, so adding faults to a run
    // leaves the app and Monkey streams untouched (A/B against the clean
    // run stays seed-comparable).
    fault_ = std::make_unique<fault::FaultInjector>(
        *sim_, config_.fault, root_.fork(kFaultRngStream), config_.obs);
    fault_->attach_panel(panel_.get());
    fault_->attach_input(dispatcher_.get());
  }
}

apps::AppModel& SimulatedDevice::install_app(const apps::AppSpec& spec,
                                             std::uint64_t rng_stream,
                                             bool foreground, int z_order) {
  assert(sim_ && "configure() the device before installing apps");
  // An empty surface_rect means full screen (the classic single-surface
  // case); otherwise the app paints a partial surface at its own z-order,
  // clamped to the panel.  An explicit z_order argument wins over the spec.
  gfx::Rect rect = spec.surface_rect.empty()
                       ? gfx::Rect::of(config_.screen)
                       : spec.surface_rect.intersect(
                             gfx::Rect::of(config_.screen));
  if (rect.empty()) rect = gfx::Rect::of(config_.screen);
  const int z = z_order != 0 ? z_order : spec.surface_z;
  gfx::Surface* surface = flinger_->create_surface(spec.name, rect, z);
  auto model = std::make_unique<apps::AppModel>(spec, surface, power_.get(),
                                                root_.fork(rng_stream));
  if (!foreground) model->set_foreground(false);
  panel_->add_observer(display::VsyncPhase::kApp, model.get());
  if (control_started_) {
    dispatcher_->add_listener(model.get());
  } else {
    pending_input_apps_.push_back(model.get());
  }
  apps_.push_back(std::move(model));
  apps::AppModel& installed = *apps_.back();
  // Overlay surfaces ride along on fixed aux RNG streams: installing (or
  // removing) one never perturbs the primary app's stream, so a multi-
  // surface profile stays seed-comparable with its single-surface twin.
  for (std::size_t i = 0; i < spec.overlays.size(); ++i) {
    install_app(spec.overlays[i], kAuxRngStreamBase + i, foreground, 0);
  }
  return installed;
}

void SimulatedDevice::start_control() {
  assert(sim_ && "configure() the device before starting control");
  assert(!control_started_ && "start_control() is once per configure()");

  if (config_.mode == ControlMode::kE3FrameRate) {
    assert(!apps_.empty() && "the governor caps the first installed app");
    apps::AppModel* primary = apps_.front().get();
    governor_ = std::make_unique<core::FrameRateGovernor>(
        *sim_, *flinger_,
        [primary](double fps) { primary->set_request_cap(fps); },
        power_.get(), config_.governor, pool_.get(), config_.obs,
        panel_.get());
    if (fault_) governor_->set_sample_fault(fault_.get());
  } else if (config_.mode != ControlMode::kBaseline60) {
    core::DpmConfig dc = config_.dpm;
    // A faulted run always gets the self-healing plane: content-rate
    // control against a flaky panel without recovery is not a supported
    // configuration.  Pressure episode classes likewise auto-enable the
    // degradation ladder -- each half independently, so a pressure-only
    // plan registers no recovery counters and vice versa.
    if (!config_.fault.fault_empty()) dc.recovery.enabled = true;
    if (!config_.fault.pressure_empty()) dc.ladder.enabled = true;
    const core::PipelineSpec spec = resolved_pipeline_spec(config_);
    assert(!spec.validate() && "invalid pipeline spec reached the device");
    auto pipeline = core::build_pipeline(spec, config_.rates, dc);
    if (fault_ != nullptr && dc.ladder.enabled) {
      // The only stage named "degrade" is the ladder build_pipeline added.
      auto* ladder = static_cast<core::DegradationLadderStage*>(
          pipeline->stage("degrade"));
      ladder->bind_pressure(fault_.get(), power_.get());
    }
    if (config_.self_refresh) {
      // PSR rides the pipeline when a DPM runs (the stage constructs the
      // controller in start(), preserving the canonical after-the-DPM
      // registration order).
      pipeline->add_stage(std::make_unique<core::SelfRefreshStage>(
          *flinger_, *power_, *config_.self_refresh));
    }
    dpm_ = std::make_unique<core::DisplayPowerManager>(
        *sim_, *panel_, *flinger_, std::move(pipeline), power_.get(), dc,
        pool_.get(), config_.obs);
    if (fault_) dpm_->set_sample_fault(fault_.get());
  }
  if (config_.self_refresh && !dpm_) {
    psr_ = std::make_unique<core::SelfRefreshController>(
        *sim_, *flinger_, *power_, *config_.self_refresh);
  }

  // Input pipeline, canonical order: power hook, then the controller's
  // boost (it must fire before app-side handling, as on Android), then the
  // latency probe, then every app installed so far.
  dispatcher_->add_listener(touch_power_.get());
  if (dpm_) dispatcher_->add_listener(dpm_.get());
  if (governor_) dispatcher_->add_listener(governor_.get());
  dispatcher_->add_listener(latency_.get());
  for (apps::AppModel* app : pending_input_apps_) {
    dispatcher_->add_listener(app);
  }
  pending_input_apps_.clear();
  control_started_ = true;
}

void SimulatedDevice::schedule_monkey_script(
    const input::MonkeyProfile& profile, sim::Duration length,
    std::uint64_t rng_stream, sim::Time offset) {
  assert(sim_ && "configure() the device before scheduling input");
  sim::Rng rng = root_.fork(rng_stream);
  auto script =
      input::generate_monkey_script(rng, profile, length, config_.screen);
  for (auto& g : script) g.start = g.start + (offset - sim::Time{});
  dispatcher_->schedule_script(script);
}

void SimulatedDevice::focus_app(std::size_t index) {
  assert(index < apps_.size());
  for (auto& m : apps_) {
    if (m->foreground()) m->set_foreground(false);
  }
  apps_[index]->set_foreground(true);
}

void SimulatedDevice::ensure_meter() {
  if (!meter_) {
    meter_ = std::make_unique<power::MonsoonMeter>(*sim_, *power_,
                                                   config_.power_sample);
  }
}

void SimulatedDevice::run_for(sim::Duration d) {
  ensure_meter();
  sim_->run_for(d);
}

void SimulatedDevice::run_until(sim::Time t) {
  ensure_meter();
  sim_->run_until(t);
}

void SimulatedDevice::finish() {
  if (finished_ || !sim_) return;
  panel_->stop();
  if (dpm_) dpm_->stop();  // also stops pipeline stages (PSR included)
  if (governor_) governor_->stop();
  if (psr_) psr_->stop();
  if (meter_) meter_->stop();
  recorder_->finish(sim_->now());
  if (config_.obs != nullptr && pool_) {
    // This run's share of the pool's lifetime totals (the pool itself
    // carries across configure() calls by design).
    config_.obs->counters.add("pool.acquires",
                              pool_->acquires() - last_pool_acquires_);
    config_.obs->counters.add("pool.reuses",
                              pool_->reuses() - last_pool_reuses_);
  }
  finished_ = true;
}

void SimulatedDevice::add_frame_listener(gfx::FrameListener* l) {
  flinger_->add_listener(l);
}

}  // namespace ccdem::device
