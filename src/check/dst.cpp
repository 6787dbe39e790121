#include "check/dst.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "fault/fault_plan.h"
#include "metrics/quality.h"

namespace ccdem::check {

namespace {

/// I4 runs only where the quality comparison is meaningful: the proposed
/// system on a clean run long enough for the 1 s-window rates to settle.
bool quality_arm_applies(const Scenario& s) {
  using device::ControlMode;
  bool proposed = s.mode == ControlMode::kSection ||
                  s.mode == ControlMode::kSectionWithBoost ||
                  s.mode == ControlMode::kSectionHysteresis;
  if (s.mode == ControlMode::kPipeline) {
    // An explicit composition counts as "the proposed system" when its rate
    // source is content-derived (section or predictive; naive-only arms are
    // the paper's failed mapping and trade quality by design).
    const auto spec = core::PipelineSpec::parse(s.pipeline, nullptr);
    proposed = spec && (spec->contains(core::StageId::kSection) ||
                        spec->contains(core::StageId::kPredictive));
  }
  return proposed && s.fault_scale == 0.0 && s.pressure_scale == 0.0 &&
         s.duration_ms >= 2500;
}

/// The tail of `t` restricted to points at or after `from` (for comparing
/// post-recovery steady state between two arms).
sim::Trace trace_tail(const sim::Trace& t, sim::Time from) {
  sim::Trace out{"tail"};
  for (const sim::TracePoint& p : t.points()) {
    if (p.t.ticks >= from.ticks) out.record(p.t, p.value);
  }
  return out;
}

/// Time-weighted mean of a step signal over [lo, hi].
double mean_step_over(const sim::Trace& step, sim::Time lo, sim::Time hi) {
  if (hi.ticks <= lo.ticks) return 0.0;
  double acc = 0.0;
  double value = step.value_at(lo, 0.0);
  sim::Time at = lo;
  for (const sim::TracePoint& p : step.points()) {
    if (p.t.ticks <= lo.ticks) continue;
    if (p.t.ticks > hi.ticks) break;
    acc += value * static_cast<double>(p.t.ticks - at.ticks);
    value = p.value;
    at = p.t;
  }
  acc += value * static_cast<double>(hi.ticks - at.ticks);
  return acc / static_cast<double>(hi.ticks - lo.ticks);
}

/// Where invariant I8's bounded recovery window ends for scenario `s`, or
/// nullopt when the scenario never stops its pressure episodes.  Mirrors
/// TraceInvariantChecker::check_ladder_return.
std::optional<sim::Time> recovery_deadline(const Scenario& s) {
  if (s.pressure_scale == 0.0 || s.pressure_until_ms == 0) return std::nullopt;
  const core::LadderConfig ladder{};
  const fault::FaultPlan nominal = fault::FaultPlan::pressure_nominal();
  const std::int64_t residual_ms =
      std::max({nominal.thermal_duration.ticks, nominal.brownout_duration.ticks,
                nominal.jitter_duration.ticks}) /
      1000;
  const std::int64_t per_step_ms =
      ladder.recovery_cooldown.ticks / 1000 + s.eval_ms;
  const std::int64_t window_ms = residual_ms + 4 * per_step_ms + 500;
  return sim::Time{} + sim::milliseconds(s.pressure_until_ms + window_ms);
}

}  // namespace

std::string CheckReport::to_string() const {
  std::ostringstream os;
  for (const std::string& f : failures) os << f << '\n';
  return os.str();
}

CheckReport check_scenario(const Scenario& s, const CheckOptions& options) {
  CheckReport report;
  if (!find_app(s.app)) {
    report.failures.push_back("unknown app profile '" + s.app + "'");
    return report;
  }
  const harness::ExperimentConfig cfg = s.experiment_config();

  const RunArtifacts culled = run_scenario_once(cfg);

  if (options.oracle_determinism) {
    const RunArtifacts again = run_scenario_once(cfg);
    if (culled.trace_csv != again.trace_csv) {
      report.failures.push_back(
          "determinism: serialized obs trace differs between two runs of the "
          "same config");
    }
    if (auto d = diff_results(culled.result, again.result, "determinism")) {
      report.failures.push_back(*d);
    }
  }

  // The reference replay changes three choices at once, none of which may
  // change a result or counter: the meter scans the whole grid instead of
  // the damage, spans are off, and a fleet scenario runs on a FleetRunner
  // worker's pooled device.  Meter bit-flip faults legitimately split the
  // culled and unculled scans: a flip at a sample outside the damage region
  // is invisible to the damage-scoped scan (those points are neither read
  // nor refreshed) but triggers the full reference scan.  The equivalence
  // claim only covers fault-free sampling, so such scenarios replay culled.
  const bool meter_faults = s.fault_scale > 0.0 && s.fault_classes.meter;
  std::optional<RunArtifacts> replay;
  if (options.oracle_replay) {
    replay = run_scenario_once(cfg, {.damage_culling = meter_faults,
                                     .spans = false,
                                     .fleet = s.fleet});
    if (auto d = diff_results(culled.result, replay->result, "replay")) {
      report.failures.push_back(*d);
    }
    // The unculled meter reads more pixels -- culling's whole point -- and
    // fleet workers recycle storage through a buffer pool.
    if (auto d = diff_counters(culled.counters, replay->counters, "replay",
                               {"meter.pixels_", "pool."})) {
      report.failures.push_back(*d);
    }
  }

  if (options.oracle_reference) {
    if (auto d = check_section_reference(s)) report.failures.push_back(*d);
  }

  if (options.invariants) {
    const TraceInvariantChecker checker(s, options.invariant_options);
    const RunArtifacts* unculled =
        replay && !meter_faults ? &*replay : nullptr;
    for (std::string& v : checker.check(culled, unculled)) {
      report.failures.push_back(std::move(v));
    }
  }

  if (options.quality_arm && quality_arm_applies(s)) {
    harness::ExperimentConfig base_cfg = cfg;
    base_cfg.mode = device::ControlMode::kBaseline60;
    const RunArtifacts baseline =
        run_scenario_once(base_cfg, {.spans = false, .hash_frames = false});
    const metrics::QualityReport q = metrics::compare_quality(
        baseline.result.content_rate, culled.result.content_rate);
    // A near-static run has too little content for the ratio to mean much.
    if (q.actual_content_fps >= 1.0 &&
        q.display_quality_pct < options.quality_gate_pct) {
      std::ostringstream os;
      os << "I4 quality gate: display quality " << q.display_quality_pct
         << "% < " << options.quality_gate_pct << "% (actual "
         << q.actual_content_fps << " fps, delivered "
         << q.delivered_content_fps << " fps)";
      report.failures.push_back(os.str());
    }
  }

  // I8 steady-state arm: after the bounded recovery window, the pressured
  // run must be indistinguishable (quality, mean refresh) from the same
  // scenario without pressure.  Fault-free only: link/sensor faults diverge
  // the arms for their own reasons.
  const std::optional<sim::Time> deadline = recovery_deadline(s);
  if (options.pressure_recovery_arm && deadline && s.fault_scale == 0.0 &&
      s.mode != device::ControlMode::kBaseline60 &&
      deadline->ticks + sim::milliseconds(1500).ticks <=
          sim::milliseconds(s.duration_ms).ticks) {
    Scenario clean = s;
    clean.pressure_scale = 0.0;
    clean.pressure_until_ms = 0;
    clean.pressure_classes = PressureClasses{};
    const RunArtifacts unpressured = run_scenario_once(
        clean.experiment_config(), {.spans = false, .hash_frames = false});
    const sim::Time tail_start = *deadline;
    const metrics::QualityReport q = metrics::compare_quality(
        trace_tail(unpressured.result.content_rate, tail_start),
        trace_tail(culled.result.content_rate, tail_start));
    if (q.actual_content_fps >= 1.0 &&
        q.display_quality_pct < options.recovery_quality_pct) {
      std::ostringstream os;
      os << "I8 steady state: post-recovery tail quality "
         << q.display_quality_pct << "% of the unpressured arm (gate "
         << options.recovery_quality_pct << "%)";
      report.failures.push_back(os.str());
    }
    const sim::Time end = sim::Time{} + sim::milliseconds(s.duration_ms);
    const double mean_p =
        mean_step_over(culled.result.refresh_rate, tail_start, end);
    const double mean_u =
        mean_step_over(unpressured.result.refresh_rate, tail_start, end);
    if (std::abs(mean_p - mean_u) > options.recovery_rate_tolerance_hz) {
      std::ostringstream os;
      os << "I8 steady state: post-recovery mean refresh " << mean_p
         << " Hz vs " << mean_u << " Hz unpressured (tolerance "
         << options.recovery_rate_tolerance_hz << " Hz)";
      report.failures.push_back(os.str());
    }
  }

  return report;
}

FailurePredicate make_failure_predicate(CheckOptions options) {
  return [options](const Scenario& s) -> std::optional<std::string> {
    const CheckReport r = check_scenario(s, options);
    if (r.ok()) return std::nullopt;
    return r.failures.front();
  };
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  ScenarioGen gen(options.seed, options.gen);
  const FailurePredicate predicate = make_failure_predicate(options.check);
  for (int i = 0; i < options.scenarios; ++i) {
    const Scenario s = gen.next();
    const CheckReport check = check_scenario(s, options.check);
    ++report.scenarios_run;
    if (options.log != nullptr) {
      *options.log << "dst: scenario " << i << " app=" << s.app
                   << " mode=" << device::control_mode_name(s.mode)
                   << " seed=" << s.seed
                   << (check.ok() ? " ok" : " FAILED") << '\n';
      if (!check.ok()) *options.log << check.to_string();
    }
    if (check.ok()) continue;

    FuzzFailure failure;
    failure.index = static_cast<std::uint64_t>(i);
    failure.scenario = s;
    failure.failures = check.failures;
    failure.minimized = s;
    failure.minimized_failure = check.failures.front();
    if (options.minimize) {
      const MinimizeResult m =
          minimize_scenario(s, predicate, options.minimize_options);
      failure.minimized = m.scenario;
      if (!m.failure.empty()) failure.minimized_failure = m.failure;
      failure.shrink_attempts = m.attempts;
      if (options.log != nullptr) {
        *options.log << "dst: minimized in " << m.attempts << " attempts ("
                     << m.accepted << " accepted): "
                     << failure.minimized_failure << '\n';
      }
    }
    report.failures.push_back(std::move(failure));
    if (static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }
  }
  return report;
}

}  // namespace ccdem::check
