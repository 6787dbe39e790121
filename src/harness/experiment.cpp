#include "harness/experiment.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "device/simulated_device.h"
#include "gfx/hash.h"

namespace ccdem::harness {

device::DeviceConfig ExperimentConfig::device_config() const {
  device::DeviceConfig dc;
  dc.mode = mode;
  dc.pipeline = pipeline;
  dc.dpm = dpm;
  dc.governor = governor;
  dc.power = power;
  dc.rates = rates;
  dc.screen = screen;
  dc.seed = seed;
  dc.power_sample = power_sample;
  dc.brightness = brightness;
  dc.baseline_hz = baseline_hz;
  dc.fast_rate_up = fast_rate_up;
  dc.fault = fault;
  dc.obs = obs;
  return dc;
}

namespace {

/// Folds fast_hash() of every composed frame (see
/// ExperimentConfig::hash_frames).  The first frame is hashed in full; after
/// that only the rows each frame's damage touches are re-hashed, which
/// FrameInfo's damage contract makes exact.  Purely observational: reads
/// the front buffer, touches nothing.
class FrameStreamHasher : public gfx::FrameListener {
 public:
  void on_frame(const gfx::FrameInfo& info,
                const gfx::Framebuffer& fb) override {
    if (frames_++ == 0) {
      rows_.reset(fb);
    } else {
      rows_.update(fb, info.damage);
    }
    hash_ = gfx::hash_combine(hash_, rows_.hash());
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  /// fast_hash() of the last composed frame, as kept incrementally.
  [[nodiscard]] std::uint64_t last_frame_hash() const { return rows_.hash(); }

 private:
  gfx::RowHashes rows_;
  std::uint64_t frames_ = 0;
  std::uint64_t hash_ = gfx::kHashSeed;
};

/// The incremental hash is only as good as the damage contract, so every
/// hashed run that composed a frame ends by comparing it with a from-scratch
/// hash of the final frame.  A mismatch means some pixel changed outside a
/// frame's reported damage: the frame-stream hashes every oracle compares
/// would be wrong.  Aborts instead of asserting so the check stays live in
/// Release builds.
void check_last_frame_hash(const FrameStreamHasher& hasher,
                           const ExperimentConfig& config,
                           const ExperimentResult& r) {
  if (r.frames_composed == 0 ||
      hasher.last_frame_hash() == r.final_frame_hash) {
    return;
  }
  std::cerr << "frame-stream hash: the incrementally hashed final frame "
               "differs from its full hash (app '"
            << config.app.name << "', seed " << config.seed << ", "
            << r.frames_composed
            << " frames); some pixel changed outside FrameInfo::damage\n";
  std::abort();
}

}  // namespace

ExperimentResult run_experiment_on(device::SimulatedDevice& dev,
                                   const ExperimentConfig& config) {
  assert(config.duration.ticks > 0);
  dev.configure(config.device_config());
  apps::AppModel& app = dev.install_app(config.app);
  FrameStreamHasher stream_hasher;
  if (config.hash_frames) dev.add_frame_listener(&stream_hasher);
  dev.start_control();
  if (config.script) {
    // Replay path (.repro files): the embedded script is authoritative.
    // The Monkey RNG stream is never forked, which is fine -- fork() is
    // const, so the app/fault streams are unaffected either way.
    dev.dispatcher().schedule_script(*config.script);
  } else {
    dev.schedule_monkey_script(config.app.monkey, config.duration);
  }
  dev.run_until(sim::Time{config.duration.ticks});
  dev.finish();

  // --- collect -------------------------------------------------------------
  ExperimentResult r;
  r.app_name = config.app.name;
  r.mode = config.mode;
  r.duration = config.duration;
  r.mean_power_mw = dev.meter()->mean_power_mw();
  r.power = dev.meter()->trace();
  r.frame_rate = dev.recorder().frame_rate();
  r.content_rate = dev.recorder().content_rate();
  if (core::DisplayPowerManager* dpm = dev.dpm()) {
    r.measured_content_rate = dpm->content_rate_trace();
    r.meter_error_rate = dpm->meter().error_rate();
  }
  if (core::FrameRateGovernor* governor = dev.governor()) {
    r.meter_error_rate = governor->meter().error_rate();
  }
  r.rate_switches = dev.refresh_trace().size() - 1;
  r.refresh_rate = dev.refresh_trace();
  r.mean_refresh_hz =
      dev.refresh_trace().time_weighted_mean(sim::Time{}, dev.sim().now());
  r.frames_composed = dev.flinger().frames_composed();
  r.content_frames = dev.flinger().content_frames();
  r.frames_posted = app.frames_posted();
  r.touch_events = dev.dispatcher().events_delivered();
  r.final_frame_hash = dev.flinger().framebuffer().fast_hash();
  if (config.hash_frames) {
    r.frame_stream_hash = stream_hasher.hash();
    check_last_frame_hash(stream_hasher, config, r);
  }
  const metrics::ResponseLatencyRecorder& latency = *dev.latency();
  r.response_mean_ms = latency.mean_ms();
  r.response_p95_ms = latency.percentile_ms(95.0);
  r.response_max_ms = latency.max_ms();
  r.response_interactions = latency.interactions();
  // Flush the continuous integration to the end of the run, then snapshot.
  dev.power().add_energy_mj(dev.sim().now(), 0.0);
  r.energy = dev.power().breakdown();
  return r;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  device::SimulatedDevice dev;
  return run_experiment_on(dev, config);
}

AbResult run_ab(const ExperimentConfig& config) {
  assert(config.mode != ControlMode::kBaseline60 &&
         "the controlled arm must not be the baseline");
  ExperimentConfig base = config;
  base.mode = ControlMode::kBaseline60;

  AbResult ab;
  ab.baseline = run_experiment(base);
  ab.controlled = run_experiment(config);
  ab.saved_power_mw = ab.baseline.mean_power_mw - ab.controlled.mean_power_mw;
  ab.saved_power_pct = ab.baseline.mean_power_mw <= 0.0
                           ? 0.0
                           : ab.saved_power_mw / ab.baseline.mean_power_mw *
                                 100.0;
  ab.quality = metrics::compare_quality(ab.baseline.content_rate,
                                        ab.controlled.content_rate);
  return ab;
}

RepeatedAbResult run_ab_repeated(const ExperimentConfig& config, int runs) {
  assert(runs > 0);
  RepeatedAbResult out;
  out.runs = runs;
  // Welford over the per-seed results.
  double saved_mean = 0.0, saved_m2 = 0.0;
  double q_mean = 0.0, q_m2 = 0.0;
  for (int i = 0; i < runs; ++i) {
    ExperimentConfig c = config;
    c.seed = config.seed + static_cast<std::uint64_t>(i);
    const AbResult ab = run_ab(c);
    const double n = static_cast<double>(i + 1);
    const double ds = ab.saved_power_mw - saved_mean;
    saved_mean += ds / n;
    saved_m2 += ds * (ab.saved_power_mw - saved_mean);
    const double dq = ab.quality.display_quality_pct - q_mean;
    q_mean += dq / n;
    q_m2 += dq * (ab.quality.display_quality_pct - q_mean);
  }
  out.saved_mean_mw = saved_mean;
  out.quality_mean_pct = q_mean;
  if (runs > 1) {
    out.saved_std_mw = std::sqrt(saved_m2 / (runs - 1));
    out.quality_std_pct = std::sqrt(q_m2 / (runs - 1));
  }
  return out;
}

}  // namespace ccdem::harness
