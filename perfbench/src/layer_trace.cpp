#include "layer_trace.h"

#include <chrono>
#include <optional>
#include <type_traits>

#include "gfx/hash.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ccdem::display::VsyncObserver;
using ccdem::display::VsyncPhase;
using ccdem::gfx::FrameInfo;
using ccdem::gfx::FrameListener;
using ccdem::gfx::Framebuffer;

/// Charges the host time since the previous boundary to a layer.
class Segments {
 public:
  explicit Segments(LayerTotals& totals) : totals_(totals) {}
  void restart() { last_ = Clock::now(); }
  void charge(Layer l) {
    const Clock::time_point now = Clock::now();
    totals_.at(l) += (now - last_).count();
    last_ = now;
  }
  void count(Layer l) { ++totals_.calls_at(l); }

 private:
  LayerTotals& totals_;
  Clock::time_point last_ = Clock::now();
};

static_assert(std::is_same_v<Clock::duration, std::chrono::nanoseconds>);

class AppPhaseStart final : public VsyncObserver {
 public:
  explicit AppPhaseStart(Segments& s) : s_(s) {}
  void on_vsync(ccdem::sim::Time, int) override { s_.charge(Layer::kSim); }

 private:
  Segments& s_;
};

class AppPhaseEnd final : public VsyncObserver {
 public:
  explicit AppPhaseEnd(Segments& s) : s_(s) {}
  void on_vsync(ccdem::sim::Time, int) override {
    s_.charge(Layer::kApps);
    s_.count(Layer::kApps);
  }

 private:
  Segments& s_;
};

class ComposeEnd final : public FrameListener {
 public:
  explicit ComposeEnd(Segments& s) : s_(s) {}
  void on_frame(const FrameInfo&, const Framebuffer&) override {
    s_.charge(Layer::kGfx);
    s_.count(Layer::kGfx);
  }

 private:
  Segments& s_;
};

/// The harness's frame-stream hasher, timed.
class TimedHasher final : public FrameListener {
 public:
  explicit TimedHasher(Segments& s) : s_(s) {}
  void on_frame(const FrameInfo&, const Framebuffer& fb) override {
    s_.charge(Layer::kGfx);
    hash_ = ccdem::gfx::hash_combine(hash_, fb.fast_hash());
    s_.charge(Layer::kCheck);
    s_.count(Layer::kCheck);
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  Segments& s_;
  std::uint64_t hash_ = ccdem::gfx::kHashSeed;
};

class MeterEnd final : public FrameListener {
 public:
  explicit MeterEnd(Segments& s) : s_(s) {}
  void on_frame(const FrameInfo&, const Framebuffer&) override {
    s_.charge(Layer::kCore);
    s_.count(Layer::kCore);
  }

 private:
  Segments& s_;
};

}  // namespace

ccdem::harness::ExperimentResult run_traced(
    const ccdem::harness::ExperimentConfig& config, LayerTotals& totals,
    ccdem::device::SimulatedDevice* reuse) {
  namespace harness = ccdem::harness;
  const Clock::time_point t0 = Clock::now();
  Segments seg(totals);
  AppPhaseStart app_start(seg);
  AppPhaseEnd app_end(seg);
  ComposeEnd compose_end(seg);
  TimedHasher hasher(seg);
  MeterEnd meter_end(seg);

  harness::ExperimentResult r;
  {
    std::optional<ccdem::device::SimulatedDevice> fresh;
    if (reuse == nullptr) fresh.emplace();
    ccdem::device::SimulatedDevice& dev = reuse != nullptr ? *reuse : *fresh;

    // --- setup, in run_experiment_on's order plus the hooks --------------
    dev.configure(config.device_config());
    dev.panel().add_observer(VsyncPhase::kApp, &app_start);
    ccdem::apps::AppModel& app = dev.install_app(config.app);
    dev.panel().add_observer(VsyncPhase::kApp, &app_end);
    dev.add_frame_listener(&compose_end);
    if (config.hash_frames) dev.add_frame_listener(&hasher);
    dev.start_control();
    // Only a controller has an on_frame to bracket; without one the rest of
    // the frame belongs to the event loop.
    if (dev.dpm() != nullptr || dev.governor() != nullptr) {
      dev.add_frame_listener(&meter_end);
    }
    if (config.script) {
      dev.dispatcher().schedule_script(*config.script);
    } else {
      dev.schedule_monkey_script(config.app.monkey, config.duration);
    }
    const Clock::time_point t_setup = Clock::now();
    totals.setup_ns += (t_setup - t0).count();
    totals.at(Layer::kDevice) += (t_setup - t0).count();
    totals.calls_at(Layer::kDevice) += 1;

    seg.restart();
    dev.run_until(ccdem::sim::Time{config.duration.ticks});
    seg.charge(Layer::kSim);

    // --- finish + collect, as run_experiment_on ---------------------------
    dev.finish();
    r.app_name = config.app.name;
    r.mode = config.mode;
    r.duration = config.duration;
    r.mean_power_mw = dev.meter()->mean_power_mw();
    r.power = dev.meter()->trace();
    r.frame_rate = dev.recorder().frame_rate();
    r.content_rate = dev.recorder().content_rate();
    if (ccdem::core::DisplayPowerManager* dpm = dev.dpm()) {
      r.measured_content_rate = dpm->content_rate_trace();
      r.meter_error_rate = dpm->meter().error_rate();
    }
    if (ccdem::core::FrameRateGovernor* governor = dev.governor()) {
      r.meter_error_rate = governor->meter().error_rate();
    }
    r.rate_switches = dev.refresh_trace().size() - 1;
    r.refresh_rate = dev.refresh_trace();
    r.mean_refresh_hz = dev.refresh_trace().time_weighted_mean(
        ccdem::sim::Time{}, dev.sim().now());
    r.frames_composed = dev.flinger().frames_composed();
    r.content_frames = dev.flinger().content_frames();
    r.frames_posted = app.frames_posted();
    r.touch_events = dev.dispatcher().events_delivered();
    r.final_frame_hash = dev.flinger().framebuffer().fast_hash();
    if (config.hash_frames) r.frame_stream_hash = hasher.hash();
    if (ccdem::metrics::ResponseLatencyRecorder* latency = dev.latency()) {
      r.response_mean_ms = latency->mean_ms();
      r.response_p95_ms = latency->percentile_ms(95.0);
      r.response_max_ms = latency->max_ms();
      r.response_interactions = latency->interactions();
    }
    dev.power().add_energy_mj(dev.sim().now(), 0.0);
    r.energy = dev.power().breakdown();
    seg.charge(Layer::kDevice);
    // A fresh device is destroyed here, inside the device charge below.
  }
  seg.charge(Layer::kDevice);
  totals.wall_ns += (Clock::now() - t0).count();
  return r;
}

}  // namespace perfbench
