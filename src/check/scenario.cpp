#include "check/scenario.h"

#include <cassert>
#include <charconv>
#include <sstream>
#include <utility>

#include "apps/app_profiles.h"
#include "apps/scene_dsl.h"
#include "fault/fault_plan.h"
#include "input/script_io.h"
#include "sim/key_value.h"

namespace ccdem::check {

namespace {

constexpr const char* kSchema = "ccdem-repro-v1";

/// `v` as an integer in [lo, hi].
std::optional<std::int64_t> int_in(const std::string& v, std::int64_t lo,
                                   std::int64_t hi) {
  const auto n = sim::kv::parse_i64(v);
  if (!n || *n < lo || *n > hi) return std::nullopt;
  return n;
}

/// `v` as a finite double in [lo, hi].
std::optional<double> double_in(const std::string& v, double lo, double hi) {
  const auto d = sim::kv::parse_double(v);
  if (!d || *d < lo || *d > hi) return std::nullopt;
  return d;
}

/// Shortest round-trip decimal (std::to_chars default), so alpha = 0.5
/// serializes as "0.5", not seventeen digits.
std::string double_to_string(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc{});
  return std::string(buf, ptr);
}

std::optional<std::vector<int>> parse_rate_list(const std::string& v) {
  std::vector<int> rates;
  for (const std::string& item : sim::kv::split_list(v)) {
    const auto hz = int_in(item, 1, 1000);
    if (!hz) return std::nullopt;
    rates.push_back(static_cast<int>(*hz));
  }
  return rates;
}

std::optional<FaultClasses> parse_fault_classes(const std::string& v) {
  FaultClasses fc{false, false, false, false, false};
  if (v == "none") return fc;
  for (const std::string& item : sim::kv::split_list(v)) {
    if (item == "switching") fc.switching = true;
    else if (item == "stuck") fc.stuck = true;
    else if (item == "capability") fc.capability = true;
    else if (item == "touch") fc.touch = true;
    else if (item == "meter") fc.meter = true;
    else return std::nullopt;
  }
  return fc;
}

std::optional<PressureClasses> parse_pressure_classes(const std::string& v) {
  PressureClasses pc{false, false, false};
  if (v == "none") return pc;
  for (const std::string& item : sim::kv::split_list(v)) {
    if (item == "thermal") pc.thermal = true;
    else if (item == "brownout") pc.brownout = true;
    else if (item == "jitter") pc.jitter = true;
    else return std::nullopt;
  }
  return pc;
}

std::string pressure_classes_to_string(const PressureClasses& pc) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ",";
    out += name;
  };
  if (pc.thermal) add("thermal");
  if (pc.brownout) add("brownout");
  if (pc.jitter) add("jitter");
  return out.empty() ? "none" : out;
}

std::string fault_classes_to_string(const FaultClasses& fc) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ",";
    out += name;
  };
  if (fc.switching) add("switching");
  if (fc.stuck) add("stuck");
  if (fc.capability) add("capability");
  if (fc.touch) add("touch");
  if (fc.meter) add("meter");
  return out.empty() ? "none" : out;
}

}  // namespace

std::optional<apps::AppSpec> find_app(const std::string& name) {
  return apps::find_profile(name);
}

std::optional<core::GridSpec> parse_grid(const std::string& keyword) {
  if (keyword == "2k") return core::GridSpec::grid_2k();
  if (keyword == "4k") return core::GridSpec::grid_4k();
  if (keyword == "9k") return core::GridSpec::grid_9k();
  if (keyword == "36k") return core::GridSpec::grid_36k();
  if (keyword == "full") return core::GridSpec::full_720p();
  return std::nullopt;
}

core::GridSpec Scenario::grid_spec() const {
  const auto g = parse_grid(grid);
  assert(g && "invalid grid keyword; parse_scenario validates this");
  return *g;
}

harness::ExperimentConfig Scenario::experiment_config() const {
  const auto spec = find_app(app);
  assert(spec && "unknown app; parse_scenario validates this");
  harness::ExperimentConfig cfg;
  cfg.app = *spec;
  if (!scene.empty()) {
    const auto ss = apps::scene_spec_from_string(scene, nullptr);
    assert(ss && "invalid scene DSL; parse_scenario validates this");
    cfg.app.scene = *ss;
  }
  cfg.mode = mode;
  if (mode == device::ControlMode::kPipeline) {
    const auto ps = core::PipelineSpec::parse(pipeline, nullptr);
    assert(ps && "invalid pipeline spec; parse_scenario validates this");
    cfg.pipeline = *ps;
  }
  cfg.duration = duration();
  cfg.seed = seed;
  cfg.dpm.meter.grid = grid_spec();
  cfg.dpm.meter.eval_period = sim::milliseconds(eval_ms);
  cfg.dpm.boost_hold = sim::milliseconds(boost_hold_ms);
  cfg.dpm.meter.window = sim::milliseconds(meter_window_ms);
  cfg.dpm.section_alpha = alpha;
  cfg.dpm.min_hz = min_hz;
  cfg.dpm.boost_hz = boost_hz;
  // The E3 governor shares the metering knobs, so one scenario drives both
  // controller families.
  cfg.governor.meter = cfg.dpm.meter;
  cfg.rates = display::RefreshRateSet(rates);
  cfg.baseline_hz = baseline_hz;
  cfg.fast_rate_up = fast_rate_up;
  if (fault_scale > 0.0) {
    fault::FaultPlan plan = fault::FaultPlan::nominal().scaled(fault_scale);
    if (!fault_classes.switching) {
      plan.switch_nak_p = 0.0;
      plan.switch_delay_p = 0.0;
    }
    if (!fault_classes.stuck) plan.stuck_per_s = 0.0;
    if (!fault_classes.capability) plan.capability_loss_per_s = 0.0;
    if (!fault_classes.touch) {
      plan.touch_drop_p = 0.0;
      plan.touch_dup_p = 0.0;
      plan.touch_delay_p = 0.0;
    }
    if (!fault_classes.meter) plan.meter_bitflip_p = 0.0;
    if (fault_until_ms > 0) {
      plan.active_until = sim::Time{sim::milliseconds(fault_until_ms).ticks};
    }
    cfg.fault = plan;
  }
  if (pressure_scale > 0.0) {
    // Overlay the pressure half onto whatever the fault half set above --
    // the two halves never write the same fields.
    const fault::FaultPlan p =
        fault::FaultPlan::pressure_nominal().scaled(pressure_scale);
    if (pressure_classes.thermal) cfg.fault.thermal_per_s = p.thermal_per_s;
    if (pressure_classes.brownout) cfg.fault.brownout_per_s = p.brownout_per_s;
    if (pressure_classes.jitter) cfg.fault.jitter_per_s = p.jitter_per_s;
    if (pressure_until_ms > 0) {
      cfg.fault.pressure_until =
          sim::Time{sim::milliseconds(pressure_until_ms).ticks};
    }
  }
  cfg.script = script;
  return cfg;
}

std::string scenario_to_string(const Scenario& s) {
  std::ostringstream os;
  os << "schema = " << kSchema << "\n";
  os << "app = " << s.app << "\n";
  os << "mode = " << device::control_mode_keyword(s.mode) << "\n";
  if (s.mode == device::ControlMode::kPipeline) {
    os << "pipeline = " << s.pipeline << "\n";
  }
  os << "duration_ms = " << s.duration_ms << "\n";
  os << "seed = " << s.seed << "\n";
  os << "grid = " << s.grid << "\n";
  os << "eval_ms = " << s.eval_ms << "\n";
  os << "boost_hold_ms = " << s.boost_hold_ms << "\n";
  os << "meter_window_ms = " << s.meter_window_ms << "\n";
  os << "alpha = " << double_to_string(s.alpha) << "\n";
  os << "rates = ";
  for (std::size_t i = 0; i < s.rates.size(); ++i) {
    if (i != 0) os << ",";
    os << s.rates[i];
  }
  os << "\n";
  os << "baseline_hz = " << s.baseline_hz << "\n";
  os << "min_hz = " << s.min_hz << "\n";
  os << "boost_hz = " << s.boost_hz << "\n";
  os << "fast_rate_up = " << (s.fast_rate_up ? 1 : 0) << "\n";
  os << "fault_scale = " << double_to_string(s.fault_scale) << "\n";
  if (s.fault_scale > 0.0) {
    os << "fault_until_ms = " << s.fault_until_ms << "\n";
    os << "fault_classes = " << fault_classes_to_string(s.fault_classes)
       << "\n";
  }
  // Unlike fault_scale, the pressure keys are omitted entirely at zero so
  // every pre-pressure repro and golden stays byte-identical.
  if (s.pressure_scale > 0.0) {
    os << "pressure_scale = " << double_to_string(s.pressure_scale) << "\n";
    os << "pressure_until_ms = " << s.pressure_until_ms << "\n";
    os << "pressure_classes = "
       << pressure_classes_to_string(s.pressure_classes) << "\n";
  }
  os << "fleet = " << (s.fleet ? 1 : 0) << "\n";
  // Like the pressure keys, the scene block only exists when a scene
  // override does, so pre-scene repro files stay byte-identical.
  if (!s.scene.empty()) {
    os << "begin_scene\n";
    os << s.scene;
    os << "end_scene\n";
  }
  if (s.script) {
    os << "begin_script\n";
    os << input::script_to_string(*s.script);
    os << "end_script\n";
  }
  return os.str();
}

std::string repro_to_string(const Scenario& s,
                            const std::vector<std::string>& failures) {
  std::ostringstream os;
  for (const std::string& f : failures) {
    // One comment line per failure; newlines inside a message would escape
    // the comment, so flatten them.
    std::string flat = f;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    os << "# failure: " << flat << "\n";
  }
  os << scenario_to_string(s);
  return os.str();
}

std::optional<Scenario> parse_scenario(const std::string& text,
                                       std::string* error) {
  const auto fail = [error](std::string msg) -> std::optional<Scenario> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  const auto entries = sim::kv::read(text, error);
  if (!entries) return std::nullopt;
  Scenario s;
  bool have_schema = false;
  bool have_app = false;
  for (const sim::kv::Entry& e : *entries) {
    const std::string& key = e.key;
    const std::string& value = e.value;
    const auto bad_value = [&] { return fail(sim::kv::bad_value(e)); };

    if (key == "schema") {
      if (value != kSchema) return bad_value();
      have_schema = true;
    } else if (key == "app") {
      if (!find_app(value)) return bad_value();
      s.app = value;
      have_app = true;
    } else if (key == "mode") {
      const auto m = device::control_mode_from_keyword(value);
      if (!m) return bad_value();
      s.mode = *m;
    } else if (key == "pipeline") {
      std::string spec_error;
      const auto ps = core::PipelineSpec::parse(value, &spec_error);
      if (!ps) return fail(sim::kv::at_line(e.line, spec_error));
      // Canonical rendering, so round-trip is byte-exact regardless of the
      // input's spacing.
      s.pipeline = ps->to_string();
    } else if (key == "duration_ms") {
      const auto ms = int_in(value, 1, 600'000);
      if (!ms) return bad_value();
      s.duration_ms = *ms;
    } else if (key == "seed") {
      const auto v = sim::kv::parse_u64(value);
      if (!v) return bad_value();
      s.seed = *v;
    } else if (key == "grid") {
      if (!parse_grid(value)) return bad_value();
      s.grid = value;
    } else if (key == "eval_ms") {
      const auto ms = int_in(value, 1, 10'000);
      if (!ms) return bad_value();
      s.eval_ms = *ms;
    } else if (key == "boost_hold_ms") {
      const auto ms = int_in(value, 0, 60'000);
      if (!ms) return bad_value();
      s.boost_hold_ms = *ms;
    } else if (key == "meter_window_ms") {
      const auto ms = int_in(value, 1, 60'000);
      if (!ms) return bad_value();
      s.meter_window_ms = *ms;
    } else if (key == "alpha") {
      const auto a = double_in(value, 0.0, 1.0);
      if (!a) return bad_value();
      s.alpha = *a;
    } else if (key == "rates") {
      const auto r = parse_rate_list(value);
      if (!r) return bad_value();
      s.rates = *r;
    } else if (key == "baseline_hz" || key == "min_hz" || key == "boost_hz") {
      const auto hz = int_in(value, 0, 1000);
      if (!hz) return bad_value();
      (key == "baseline_hz" ? s.baseline_hz
       : key == "min_hz"    ? s.min_hz
                            : s.boost_hz) = static_cast<int>(*hz);
    } else if (key == "fast_rate_up") {
      const auto b = sim::kv::parse_bool(value);
      if (!b) return bad_value();
      s.fast_rate_up = *b;
    } else if (key == "fault_scale") {
      const auto f = double_in(value, 0.0, 100.0);
      if (!f) return bad_value();
      s.fault_scale = *f;
    } else if (key == "fault_until_ms") {
      const auto ms = int_in(value, 0, 600'000);
      if (!ms) return bad_value();
      s.fault_until_ms = *ms;
    } else if (key == "fault_classes") {
      const auto fc = parse_fault_classes(value);
      if (!fc) return bad_value();
      s.fault_classes = *fc;
    } else if (key == "pressure_scale") {
      const auto f = double_in(value, 0.0, 100.0);
      if (!f) return bad_value();
      s.pressure_scale = *f;
    } else if (key == "pressure_until_ms") {
      const auto ms = int_in(value, 0, 600'000);
      if (!ms) return bad_value();
      s.pressure_until_ms = *ms;
    } else if (key == "pressure_classes") {
      const auto pc = parse_pressure_classes(value);
      if (!pc) return bad_value();
      s.pressure_classes = *pc;
    } else if (key == "fleet") {
      const auto b = sim::kv::parse_bool(value);
      if (!b) return bad_value();
      s.fleet = *b;
    } else if (key == "begin_scene") {
      std::string scene_error;
      const auto scene = apps::scene_spec_from_string(value, &scene_error);
      if (!scene) return fail("embedded scene: " + scene_error);
      // Canonical rendering, so round-trip is byte-exact regardless of the
      // input's spacing.
      s.scene = apps::scene_spec_to_string(*scene);
    } else if (key == "begin_script") {
      std::string script_error;
      auto script = input::script_from_string(value, &script_error);
      if (!script) return fail("embedded script: " + script_error);
      s.script = std::move(*script);
    } else {
      return fail(sim::kv::unknown_key(e));
    }
  }
  if (!have_schema) return fail("missing required key 'schema'");
  if (!have_app) return fail("missing required key 'app'");
  // Cross-field validation: rung references must be in the ladder (keys may
  // arrive in any order, so this runs after the whole parse).
  const display::RefreshRateSet ladder{s.rates};
  for (const auto& [key, hz] : {std::pair{"baseline_hz", s.baseline_hz},
                                std::pair{"min_hz", s.min_hz},
                                std::pair{"boost_hz", s.boost_hz}}) {
    if (hz > 0 && !ladder.supports(hz)) {
      return fail(std::string(key) + " = " + std::to_string(hz) +
                  " is not in the configured rate set");
    }
  }
  if (s.mode == device::ControlMode::kPipeline && s.pipeline.empty()) {
    return fail("mode = pipeline requires a 'pipeline' key");
  }
  if (s.mode != device::ControlMode::kPipeline && !s.pipeline.empty()) {
    return fail("'pipeline' is only valid with mode = pipeline");
  }
  // A clean scenario must not carry fault-only keys into the canonical form.
  if (s.fault_scale == 0.0) {
    s.fault_until_ms = 0;
    s.fault_classes = FaultClasses{};
  }
  if (s.pressure_scale == 0.0) {
    s.pressure_until_ms = 0;
    s.pressure_classes = PressureClasses{};
  }
  return s;
}

}  // namespace ccdem::check
