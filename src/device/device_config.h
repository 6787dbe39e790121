// DeviceConfig: everything needed to assemble one simulated device.
//
// The config is pure data; SimulatedDevice::configure() turns it into a
// fully wired panel + compositor + input + power + controller stack.  The
// helpers below centralise the baseline-rate resolution and policy
// selection that the experiment and session runners used to duplicate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "apps/app_profiles.h"
#include "core/display_power_manager.h"
#include "core/frame_rate_governor.h"
#include "core/policy_pipeline.h"
#include "core/self_refresh_controller.h"
#include "device/control_mode.h"
#include "display/refresh_rate.h"
#include "fault/fault_plan.h"
#include "gfx/geometry.h"
#include "obs/obs.h"
#include "power/device_power_model.h"
#include "power/oled_panel_model.h"
#include "sim/time.h"

namespace ccdem::device {

struct DeviceConfig {
  ControlMode mode = ControlMode::kBaseline60;
  /// Explicit stage composition; used only when `mode == kPipeline` (the
  /// enum modes resolve to canonical specs, see canonical_pipeline_spec).
  /// Must validate (PipelineSpec::validate) when the mode selects it.
  core::PipelineSpec pipeline{};
  core::DpmConfig dpm{};
  /// Used only when `mode == kE3FrameRate`.
  core::GovernorConfig governor{};
  power::DevicePowerParams power = power::DevicePowerParams::galaxy_s3();
  display::RefreshRateSet rates = display::RefreshRateSet::galaxy_s3();
  gfx::Size screen = apps::kGalaxyS3Screen;
  std::uint64_t seed = 1;
  /// Monsoon meter sampling cadence.
  sim::Duration power_sample = sim::milliseconds(50);
  /// Screen brightness in [0, 1]; the paper measures at 50 %.
  double brightness = 0.5;
  /// Fixed rate of the kBaseline60 arm; 0 = the rate set's maximum.
  int baseline_hz = 0;
  /// Panel "fast exit": rate increases retime the next V-Sync instead of
  /// waiting out the old period.
  bool fast_rate_up = false;
  /// OLED extension: replace the constant panel term with a luma-tracking
  /// emission model.  Set `power.panel_static_mw = 0` alongside this.
  std::optional<power::OledParams> oled;
  /// Panel self-refresh extension: link powers down on static content.
  std::optional<core::SelfRefreshConfig> self_refresh;
  /// Fault injection (robustness layer).  Default-constructed = empty plan:
  /// no injector is built, no fault.* counters register, and the device is
  /// bit-identical to a build without the fault layer.  A non-empty plan
  /// builds a FaultInjector (RNG stream kFaultRngStream) and auto-enables
  /// the DPM's self-healing recovery plane.
  fault::FaultPlan fault{};
  /// Observability sink (optional, not owned; must outlive the device).
  /// When set, every component publishes its counters into it and the
  /// hot paths record per-frame spans (compose / meter / govern /
  /// panel-present) for the trace exporters.
  obs::ObsSink* obs = nullptr;
};

/// The fixed rate of the stock arm: `baseline_hz`, or the ladder's maximum
/// when unset.  Asserts the rate is supported.  (Previously duplicated
/// between experiment.cpp and session.cpp.)
[[nodiscard]] int resolved_baseline_hz(const DeviceConfig& config);

/// The rate the panel starts at: the stock arms (kBaseline60, kE3FrameRate)
/// hold the resolved baseline; controlled arms start from the maximum and
/// let the policy take over.
[[nodiscard]] int initial_refresh_hz(const DeviceConfig& config);

/// The canonical pipeline spec of a legacy DPM-family mode:
///   kSection           -> section
///   kSectionWithBoost  -> section,boost
///   kSectionHysteresis -> section,hysteresis,boost
///   kNaive             -> naive
/// Empty for the stock arms (kBaseline60, kE3FrameRate) which run no
/// panel-rate pipeline, and for kPipeline (the spec is the config's).
[[nodiscard]] core::PipelineSpec canonical_pipeline_spec(ControlMode mode);

/// The spec the device will actually run for `config`: the canonical spec
/// of the mode, or config.pipeline for kPipeline.
[[nodiscard]] core::PipelineSpec resolved_pipeline_spec(
    const DeviceConfig& config);

}  // namespace ccdem::device
