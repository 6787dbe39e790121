// Experiment harness: one app, one device, one control mode, one seed.
//
// Builds a device::SimulatedDevice around an application profile, replays a
// Monkey script, and collects the traces and scalars the paper's figures
// report.  The A/B runner repeats a run with and without the proposed
// system under the *same* script (same seed), mirroring the paper's
// methodology ("repeated the same script generated by Monkey, and measured
// the device's power consumption with and without the proposed system").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_model.h"
#include "apps/app_profiles.h"
#include "device/device_config.h"
#include "metrics/quality.h"
#include "power/device_power_model.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace ccdem::device {
class SimulatedDevice;
}

namespace ccdem::harness {

// The control-mode vocabulary lives in the device layer; the harness keeps
// the old spelling (harness::ControlMode) for its many users.
using ControlMode = device::ControlMode;
using device::control_mode_name;

/// One run: the device it runs on (the DeviceConfig base: mode, seed,
/// panel, power, faults, obs sink, ...) plus the app and how to drive it.
struct ExperimentConfig : device::DeviceConfig {
  apps::AppSpec app;
  sim::Duration duration = sim::seconds(60);
  /// No effect: the compositor has one compose path.  Kept only because the
  /// repo benchmark (perfbench/) assigns it; delete it with the next change
  /// to the benchmark.
  bool tile_memo = true;
  /// When true, fold Framebuffer::fast_hash() of every composed frame into
  /// ExperimentResult::frame_stream_hash.  Only the DST oracles read that
  /// value (they compare it across meter culling, fleet scheduling and span
  /// settings), so it is opt-in.  The hasher re-hashes only the rows each
  /// frame's damage touches, and the run aborts if its last value differs
  /// from a full hash of the final frame.
  bool hash_frames = false;
  /// Explicit touch script replayed verbatim instead of generating one from
  /// the Monkey profile + seed.  A `.repro` file embeds its (possibly
  /// shrunk) script here so replay does not depend on the generator.
  std::optional<std::vector<input::TouchGesture>> script;

  /// The device half of this config: the DeviceConfig base.
  [[nodiscard]] const device::DeviceConfig& device_config() const {
    return *this;
  }
};

struct ExperimentResult {
  std::string app_name;
  ControlMode mode = ControlMode::kBaseline60;
  sim::Duration duration{};

  double mean_power_mw = 0.0;
  sim::Trace power{"power_mw"};

  /// Ground-truth per-second rates from the compositor.
  sim::Trace frame_rate{"frame_rate_fps"};
  sim::Trace content_rate{"content_rate_fps"};

  /// The meter's view (empty in baseline mode, which runs no meter).
  sim::Trace measured_content_rate{"measured_content_rate_fps"};
  double meter_error_rate = 0.0;

  /// Number of refresh-rate switches the panel performed.
  std::uint64_t rate_switches = 0;

  /// Touch-response latency (touch-down to first content frame).
  double response_mean_ms = 0.0;
  double response_p95_ms = 0.0;
  double response_max_ms = 0.0;
  std::size_t response_interactions = 0;

  /// Where the energy went (through the end of the run).
  power::EnergyBreakdown energy;

  /// Refresh rate step signal and its time-weighted mean.
  sim::Trace refresh_rate{"refresh_hz"};
  double mean_refresh_hz = 0.0;

  std::uint64_t frames_composed = 0;
  std::uint64_t content_frames = 0;
  std::uint64_t frames_posted = 0;
  std::uint64_t touch_events = 0;

  /// Fingerprint of the final displayed frame (always computed; one hash of
  /// one buffer).  Two runs that end on different pixels cannot agree here.
  std::uint64_t final_frame_hash = 0;
  /// Fold of fast_hash() over every composed frame; 0 unless `hash_frames`
  /// was set.  Each term is the fingerprint of the whole frame, so the value
  /// depends only on the pixels shown, not on how the damage was computed
  /// -- exactly what the differential oracles compare.  It is computed
  /// incrementally from the damage and checked against a full hash of the
  /// final frame at the end of the run.
  std::uint64_t frame_stream_hash = 0;
};

[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Runs the experiment on an existing device (reconfiguring it), so a
/// long-lived device -- and its buffer pool -- can serve many runs.  The
/// result is bit-identical to run_experiment() on a fresh device; the fleet
/// runner (harness/fleet.h) builds on this.
[[nodiscard]] ExperimentResult run_experiment_on(device::SimulatedDevice& dev,
                                                 const ExperimentConfig& config);

/// An A/B comparison: the controlled arm vs the fixed-60 Hz baseline with
/// the same seed/script.  `config.mode` selects the controlled arm.
struct AbResult {
  ExperimentResult baseline;
  ExperimentResult controlled;
  double saved_power_mw = 0.0;   ///< baseline mean - controlled mean
  double saved_power_pct = 0.0;  ///< relative to baseline mean
  metrics::QualityReport quality;
};

[[nodiscard]] AbResult run_ab(const ExperimentConfig& config);

/// Seed-robustness statistics: the A/B comparison repeated over `runs`
/// consecutive seeds (the paper's ± figures aggregate repeated Monkey
/// sessions the same way).
struct RepeatedAbResult {
  int runs = 0;
  double saved_mean_mw = 0.0;
  double saved_std_mw = 0.0;
  double quality_mean_pct = 0.0;
  double quality_std_pct = 0.0;
};

[[nodiscard]] RepeatedAbResult run_ab_repeated(const ExperimentConfig& config,
                                               int runs);

}  // namespace ccdem::harness
