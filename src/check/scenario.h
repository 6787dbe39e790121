// Scenario: one self-contained DST experiment description.
//
// A scenario is the unit the fuzzer samples, the oracles diff, the
// minimizer shrinks and a `.repro` file persists.  It is pure data -- every
// field is serializable text -- and expands into a harness::ExperimentConfig
// on demand, so replaying a repro needs nothing beyond this file's parser.
//
// Serialization is the repo's strict key=value dialect (sim/key_value.h:
// whole-value numeric parses, no NaN/inf, unknown and repeated keys
// rejected) under the `schema = ccdem-repro-v1` header; `app` is required.
// The optional shrunk touch script is embedded between `begin_script` /
// `end_script` markers in the script_io line format.  Round-trip is exact:
// parse(to_string(s)) == s.  The checked-in `configs/*.conf` experiment
// files are ccdem-repro-v1 text too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/grid_sampler.h"
#include "device/control_mode.h"
#include "harness/experiment.h"
#include "input/touch_event.h"
#include "sim/time.h"

namespace ccdem::check {

/// Which classes of the (scaled) nominal FaultPlan stay enabled.  The
/// minimizer switches classes off one at a time to isolate the one a
/// failure needs.
struct FaultClasses {
  bool switching = true;   ///< NAK + settle-delay faults
  bool stuck = true;       ///< stuck-at-rate episodes
  bool capability = true;  ///< transient capability-loss episodes
  bool touch = true;       ///< drop / duplicate / delay
  bool meter = true;       ///< grid-sample bit flips

  [[nodiscard]] bool all() const {
    return switching && stuck && capability && touch && meter;
  }
  [[nodiscard]] bool operator==(const FaultClasses&) const = default;
};

/// Which pressure episode classes of the (scaled) pressure-nominal plan stay
/// enabled.  The minimizer uses these to isolate the guilty episode class.
struct PressureClasses {
  bool thermal = true;   ///< rate-ladder-capping throttle episodes
  bool brownout = true;  ///< state-of-charge sag episodes
  bool jitter = true;    ///< vsync late/drop storms

  [[nodiscard]] bool all() const { return thermal && brownout && jitter; }
  [[nodiscard]] bool operator==(const PressureClasses&) const = default;
};

struct Scenario {
  std::string app = "Facebook";
  device::ControlMode mode = device::ControlMode::kSectionWithBoost;
  /// Explicit stage composition (canonical `section,hysteresis,boost`
  /// rendering); non-empty iff mode == kPipeline.  Kept as text so the
  /// serialized form round-trips byte-exactly.
  std::string pipeline;
  std::int64_t duration_ms = 3000;
  std::uint64_t seed = 1;
  std::string grid = "9k";  ///< 2k | 4k | 9k | 36k | full
  std::int64_t eval_ms = 100;
  std::int64_t boost_hold_ms = 500;
  std::int64_t meter_window_ms = 1000;
  double alpha = 0.5;
  std::vector<int> rates = {20, 24, 30, 40, 60};
  int baseline_hz = 0;  ///< 0 = ladder maximum
  int min_hz = 0;       ///< 0 = no floor
  int boost_hz = 0;     ///< 0 = ladder maximum
  bool fast_rate_up = false;
  /// 0 = clean run; otherwise FaultPlan::nominal().scaled(fault_scale) with
  /// the classes below masked.
  double fault_scale = 0.0;
  std::int64_t fault_until_ms = 0;  ///< 0 = faults active for the whole run
  FaultClasses fault_classes{};
  /// 0 = no pressure; otherwise FaultPlan::pressure_nominal().scaled(...)
  /// with the classes below masked, overlaid on the fault plan.
  double pressure_scale = 0.0;
  /// 0 = episodes arrive for the whole run; otherwise they stop arriving
  /// here and the ladder must recover to rung 0 (invariant I8).
  std::int64_t pressure_until_ms = 0;
  PressureClasses pressure_classes{};
  /// Run the reference replay (check/dst.h) as a one-config FleetRunner
  /// sweep on a pooled device instead of on a fresh one.
  bool fleet = false;
  /// Scene override in canonical ccdem-scene-v1 text (apps/scene_dsl.h);
  /// empty = the app profile's own scene.  Serialized between
  /// `begin_scene` / `end_scene` markers and omitted entirely when empty,
  /// so every pre-scene repro and golden stays byte-identical.
  std::string scene;
  /// Explicit touch script; unset = the seed's Monkey script.
  std::optional<std::vector<input::TouchGesture>> script;

  [[nodiscard]] sim::Duration duration() const {
    return sim::milliseconds(duration_ms);
  }
  [[nodiscard]] core::GridSpec grid_spec() const;
  /// The full experiment config this scenario describes.  Requires the
  /// scenario to be valid (parse_scenario output, or a generator's).
  [[nodiscard]] harness::ExperimentConfig experiment_config() const;

  [[nodiscard]] bool operator==(const Scenario&) const = default;
};

/// Canonical `ccdem-repro-v1` text (defaulted fields omitted).
[[nodiscard]] std::string scenario_to_string(const Scenario& s);

/// Strict parse; std::nullopt on any malformed or unknown input, with a
/// message in `error` (when non-null).  Comment lines (`#`) are ignored, so
/// a full `.repro` file (failure header + scenario) parses directly.
[[nodiscard]] std::optional<Scenario> parse_scenario(
    const std::string& text, std::string* error = nullptr);

/// A `.repro` file: `# failure:` header comments followed by the scenario.
[[nodiscard]] std::string repro_to_string(
    const Scenario& s, const std::vector<std::string>& failures);

/// App lookup across the paper's 30 profiles, the accuracy-study wallpaper
/// and the scene-demo apps; std::nullopt for unknown names (app_by_name()
/// would abort).
[[nodiscard]] std::optional<apps::AppSpec> find_app(const std::string& name);

/// The metering grid a keyword names (2k | 4k | 9k | 36k | full);
/// std::nullopt for anything else.
[[nodiscard]] std::optional<core::GridSpec> parse_grid(
    const std::string& keyword);

}  // namespace ccdem::check
