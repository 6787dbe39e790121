#include "check/invariants.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "core/display_power_manager.h"
#include "device/simulated_device.h"
#include "fault/fault_plan.h"
#include "display/refresh_rate.h"
#include "input/monkey.h"
#include "sim/rng.h"

namespace ccdem::check {

namespace {

std::optional<std::uint64_t> find_counter(const obs::Counters::Snapshot& snap,
                                          std::string_view name) {
  const auto it = std::lower_bound(
      snap.counters.begin(), snap.counters.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  if (it == snap.counters.end() || it->first != name) return std::nullopt;
  return it->second;
}

bool has_counter_with_prefix(const obs::Counters::Snapshot& snap,
                             std::string_view prefix, std::string* name) {
  for (const auto& [n, v] : snap.counters) {
    if (n.rfind(prefix, 0) == 0) {
      if (name != nullptr) *name = n;
      return true;
    }
  }
  return false;
}

/// Max of a step signal over (lo, hi]: the held value entering the window
/// plus every point recorded inside it.
double max_step_over(const sim::Trace& step, sim::Time lo, sim::Time hi,
                     double fallback) {
  double m = step.value_at(lo, fallback);
  for (const sim::TracePoint& p : step.points()) {
    if (p.t.ticks > lo.ticks && p.t.ticks <= hi.ticks) m = std::max(m, p.value);
  }
  return m;
}

/// True when the ring may have wrapped, i.e. the retained spans are not the
/// complete stream and count-based span checks would be unsound.
bool spans_maybe_dropped(const RunArtifacts& r) {
  return r.spans.size() >= obs::SpanRecorder::kDefaultCapacity;
}

std::uint64_t count_phase(const RunArtifacts& r, obs::Phase phase) {
  std::uint64_t n = 0;
  for (const obs::Span& s : r.spans) {
    if (s.phase == phase) ++n;
  }
  return n;
}

}  // namespace

TraceInvariantChecker::TraceInvariantChecker(Scenario scenario,
                                             InvariantOptions options)
    : scenario_(std::move(scenario)), options_(options) {}

std::vector<std::string> TraceInvariantChecker::check(
    const RunArtifacts& culled, const RunArtifacts* unculled) const {
  std::vector<std::string> out;
  check_refresh_floor(culled, out);
  check_touch_boost(culled, out);
  check_recovery(culled, out);
  check_meter_accounting(culled, unculled, out);
  check_counter_graph(culled, out);
  check_span_stream(culled, out);
  check_ladder_order(culled, out);
  check_ladder_return(culled, out);
  return out;
}

void TraceInvariantChecker::check_refresh_floor(
    const RunArtifacts& r, std::vector<std::string>& out) const {
  const display::RefreshRateSet ladder{scenario_.rates};
  const double max_hz = static_cast<double>(ladder.max_hz());
  const auto& refresh = r.result.refresh_rate;

  // Ground-truth content rate: the recorder's 1 s buckets, each labeled at
  // its START and covering [t, t + 1 s).  A point above every refresh rate
  // the panel ran during that bucket claims frames the panel never
  // presented.
  const auto& content_points = r.result.content_rate.points();
  for (std::size_t i = 0; i < content_points.size(); ++i) {
    const sim::TracePoint& p = content_points[i];
    const sim::Time hi = p.t + sim::milliseconds(1100);
    const double cap = max_step_over(refresh, p.t, hi, max_hz);
    // The final bucket is partial: its count is scaled by a span as short
    // as 50 ms, which inflates the one-frame fence-post error to 1/span.
    double slack = options_.rate_slack_hz;
    if (i + 1 == content_points.size()) {
      const double span_s =
          std::max(0.05, (sim::Time{r.result.duration.ticks} - p.t).seconds());
      slack += 1.5 / span_s;
    }
    if (p.value > cap + slack) {
      std::ostringstream os;
      os << "I1 refresh floor: content rate " << p.value << " fps at "
         << p.t.ticks << "us exceeds max refresh " << cap
         << " Hz over its window";
      out.push_back(os.str());
    }
  }

  // The meter's view, same law over its own (configurable) window, sampled
  // at evaluation ticks.
  const double w_s =
      static_cast<double>(scenario_.meter_window_ms) / 1000.0;
  if (w_s <= 0.0) return;
  const double slack = options_.rate_slack_hz + 3.0 / w_s;
  const sim::Duration lookback =
      sim::milliseconds(scenario_.meter_window_ms + scenario_.eval_ms);
  for (const sim::TracePoint& p : r.result.measured_content_rate.points()) {
    const double cap = max_step_over(refresh, p.t - lookback, p.t, max_hz);
    if (p.value > cap + slack) {
      std::ostringstream os;
      os << "I1 refresh floor: measured content rate " << p.value
         << " fps at " << p.t.ticks << "us exceeds max refresh " << cap
         << " Hz over its window";
      out.push_back(os.str());
    }
  }
}

void TraceInvariantChecker::check_touch_boost(
    const RunArtifacts& r, std::vector<std::string>& out) const {
  using device::ControlMode;
  // Boost is wired only in these modes (or in an explicit composition that
  // includes the boost stage); fault runs may legitimately drop the very
  // touch event the window keys on (fault.touch_dropped), and capability
  // faults can revoke the boost rung.
  bool boosted_mode = scenario_.mode == ControlMode::kSectionWithBoost ||
                      scenario_.mode == ControlMode::kSectionHysteresis;
  if (scenario_.mode == ControlMode::kPipeline) {
    const auto spec = core::PipelineSpec::parse(scenario_.pipeline, nullptr);
    boosted_mode = spec && spec->contains(core::StageId::kBoost);
  }
  if (!boosted_mode) return;
  if (scenario_.fault_scale != 0.0) return;
  // Under pressure the degradation ladder legitimately sheds the boost
  // (rung 1) before anything else, so the window guarantee is off.
  if (scenario_.pressure_scale != 0.0) return;
  if (!obs::SpanRecorder::compiled_in() || spans_maybe_dropped(r)) return;

  const display::RefreshRateSet ladder{scenario_.rates};
  const int boost_target =
      scenario_.boost_hz > 0 && ladder.supports(scenario_.boost_hz)
          ? scenario_.boost_hz
          : ladder.max_hz();

  // The gesture list is the embedded script, or the seed's Monkey script
  // regenerated exactly as the device does it.
  std::vector<input::TouchGesture> gestures;
  if (scenario_.script) {
    gestures = *scenario_.script;
  } else {
    const auto app = find_app(scenario_.app);
    if (!app) return;
    const sim::Rng root{scenario_.seed};
    sim::Rng monkey = root.fork(device::SimulatedDevice::kMonkeyRngStream);
    gestures = input::generate_monkey_script(
        monkey, app->monkey, scenario_.duration(), apps::kGalaxyS3Screen);
  }
  if (gestures.empty()) return;

  const sim::Duration hold = sim::milliseconds(scenario_.boost_hold_ms);
  for (const obs::Span& sp : r.spans) {
    if (sp.phase != obs::Phase::kGovern) continue;
    // Strictly after the touch-down (same-tick delivery order between the
    // dispatcher and an evaluation tick is unspecified) and within the hold.
    const bool boosted = std::any_of(
        gestures.begin(), gestures.end(), [&](const input::TouchGesture& g) {
          return g.start.ticks < sp.begin.ticks &&
                 sp.begin.ticks <= (g.start + hold).ticks;
        });
    if (boosted && sp.arg < boost_target) {
      std::ostringstream os;
      os << "I2 touch boost: evaluation at " << sp.begin.ticks
         << "us targets " << sp.arg << " Hz inside a boost window (expected >= "
         << boost_target << " Hz)";
      out.push_back(os.str());
    }
  }
}

void TraceInvariantChecker::check_recovery(const RunArtifacts& r,
                                           std::vector<std::string>& out) const {
  if (scenario_.pressure_scale == 0.0) {
    // The pressure plane's zero-cost contract, independent of the fault
    // half: no pressure scale, no pressure/ladder instrumentation.
    std::string name;
    if (has_counter_with_prefix(r.counters, "pressure.", &name) ||
        has_counter_with_prefix(r.counters, "degrade.", &name) ||
        has_counter_with_prefix(r.counters, "policy.degrade.", &name)) {
      out.push_back("I3 recovery: pressure-free run registered counter '" +
                    name + "'");
    }
  }
  if (scenario_.fault_scale == 0.0) {
    // A clean run must not even register fault or recovery instrumentation:
    // the injector is absent and the DPM's recovery plane stays off.
    std::string name;
    if (has_counter_with_prefix(r.counters, "fault.", &name) ||
        has_counter_with_prefix(r.counters, "dpm.retries", &name) ||
        has_counter_with_prefix(r.counters, "dpm.retry_giveups", &name) ||
        has_counter_with_prefix(r.counters, "dpm.watchdog_fallbacks", &name) ||
        has_counter_with_prefix(r.counters, "dpm.safe_mode", &name)) {
      out.push_back("I3 recovery: clean run registered counter '" + name +
                    "'");
    }
    return;
  }

  const auto entries = find_counter(r.counters, "dpm.safe_mode_entries");
  if (!entries) return;  // no recovery plane in this mode (baseline / e3)
  const std::uint64_t giveups =
      find_counter(r.counters, "dpm.retry_giveups").value_or(0);
  const std::uint64_t fallbacks =
      find_counter(r.counters, "dpm.watchdog_fallbacks").value_or(0);
  const std::uint64_t rearms =
      find_counter(r.counters, "dpm.safe_mode_rearms").value_or(0);
  const auto streak =
      static_cast<std::uint64_t>(core::RecoveryConfig{}.safe_mode_after);
  if (*entries * streak > giveups + fallbacks) {
    std::ostringstream os;
    os << "I3 recovery: " << *entries << " safe-mode entries require >= "
       << *entries * streak << " faults, but only " << giveups
       << " give-ups + " << fallbacks << " watchdog fallbacks happened";
    out.push_back(os.str());
  }
  if (rearms > *entries) {
    std::ostringstream os;
    os << "I3 recovery: " << rearms << " safe-mode re-arms exceed " << *entries
       << " entries";
    out.push_back(os.str());
  }
}

void TraceInvariantChecker::check_meter_accounting(
    const RunArtifacts& culled, const RunArtifacts* unculled,
    std::vector<std::string>& out) const {
  const auto frames = find_counter(culled.counters, "meter.frames");
  if (!frames || *frames == 0) return;  // baseline mode runs no meter
  const auto n =
      static_cast<std::uint64_t>(scenario_.grid_spec().sample_count());
  // Every classified frame after the priming capture accounts for the whole
  // grid: compared in the damage, skipped outside it.
  const std::uint64_t budget = (*frames - 1) * n;
  const std::uint64_t compared =
      find_counter(culled.counters, "meter.pixels_compared").value_or(0);
  const std::uint64_t skipped =
      find_counter(culled.counters, "meter.pixels_compare_skipped")
          .value_or(0);
  if (compared + skipped != budget) {
    std::ostringstream os;
    os << "I5 meter work: culled compared " << compared << " + skipped "
       << skipped << " != " << budget << " (" << *frames - 1 << " frames x "
       << n << " samples)";
    out.push_back(os.str());
  }

  if (unculled == nullptr) return;
  const std::uint64_t u_frames =
      find_counter(unculled->counters, "meter.frames").value_or(0);
  const std::uint64_t u_compared =
      find_counter(unculled->counters, "meter.pixels_compared").value_or(0);
  const std::uint64_t u_skipped =
      find_counter(unculled->counters, "meter.pixels_compare_skipped")
          .value_or(0);
  if (u_skipped != 0) {
    std::ostringstream os;
    os << "I5 meter work: unculled reference skipped " << u_skipped
       << " samples";
    out.push_back(os.str());
  }
  // Early-exit compare: at most the whole grid per classified frame.
  if (u_frames >= 1 && u_compared > (u_frames - 1) * n) {
    std::ostringstream os;
    os << "I5 meter work: unculled compared " << u_compared
       << " samples, more than " << (u_frames - 1) * n << " available";
    out.push_back(os.str());
  }
}

void TraceInvariantChecker::check_counter_graph(
    const RunArtifacts& r, std::vector<std::string>& out) const {
  // A counter the run must register: reports its absence as a failure.
  const auto registered = [&](std::string_view name) {
    const auto got = find_counter(r.counters, name);
    if (!got) {
      out.push_back(std::string("I6 counters: '") + std::string(name) +
                    "' was never registered");
    }
    return got;
  };
  const auto expect_eq = [&](std::string_view name, std::uint64_t want,
                             const char* what) {
    const auto got = registered(name);
    if (got && *got != want) {
      std::ostringstream os;
      os << "I6 counters: " << name << " = " << *got << " but " << what
         << " = " << want;
      out.push_back(os.str());
    }
  };

  const std::uint64_t composed = r.result.frames_composed;
  expect_eq("flinger.frames_composed", composed, "result.frames_composed");
  expect_eq("flinger.content_frames", r.result.content_frames,
            "result.content_frames");
  expect_eq("recorder.frames", composed, "result.frames_composed");
  expect_eq("recorder.content_frames", r.result.content_frames,
            "result.content_frames");
  expect_eq("panel.rate_changes", r.result.rate_switches,
            "result.rate_switches");

  const std::uint64_t content =
      find_counter(r.counters, "flinger.content_frames").value_or(0);
  const std::uint64_t redundant =
      find_counter(r.counters, "flinger.redundant_frames").value_or(0);
  if (content + redundant != composed) {
    std::ostringstream os;
    os << "I6 counters: content " << content << " + redundant " << redundant
       << " != composed " << composed;
    out.push_back(os.str());
  }

  const std::uint64_t vsyncs =
      find_counter(r.counters, "panel.vsyncs").value_or(0);
  if (vsyncs < composed) {
    std::ostringstream os;
    os << "I6 counters: " << vsyncs << " vsyncs < " << composed
       << " composed frames";
    out.push_back(os.str());
  }

  // Compose accounting: every logically composed pixel was either
  // physically written or found unchanged and skipped.
  const auto written = registered("flinger.memo.pixels_written");
  const auto skipped = registered("flinger.memo.pixels_skipped");
  if (written && skipped) {
    const std::uint64_t pixels =
        find_counter(r.counters, "flinger.pixels_composed").value_or(0);
    if (*written + *skipped != pixels) {
      std::ostringstream os;
      os << "I6 counters: memo pixels_written " << *written << " + skipped "
         << *skipped << " != pixels_composed " << pixels;
      out.push_back(os.str());
    }
  }

  if (const auto meter_frames = find_counter(r.counters, "meter.frames")) {
    if (*meter_frames != composed) {
      std::ostringstream os;
      os << "I6 counters: meter.frames = " << *meter_frames << " but "
         << composed << " frames were composed";
      out.push_back(os.str());
    }
    const std::uint64_t meaningful =
        find_counter(r.counters, "meter.meaningful_frames").value_or(0);
    if (meaningful > *meter_frames) {
      std::ostringstream os;
      os << "I6 counters: " << meaningful << " meaningful frames > "
         << *meter_frames << " metered frames";
      out.push_back(os.str());
    }
  }
}

void TraceInvariantChecker::check_span_stream(
    const RunArtifacts& r, std::vector<std::string>& out) const {
  if (!obs::SpanRecorder::compiled_in() || r.spans.empty()) return;
  if (spans_maybe_dropped(r)) return;  // ring wrapped: counts are partial

  const auto expect_count = [&](obs::Phase phase, std::uint64_t want,
                                const char* what) {
    const std::uint64_t got = count_phase(r, phase);
    if (got != want) {
      std::ostringstream os;
      os << "I6 spans: " << got << " " << obs::phase_name(phase)
         << " spans but " << what << " = " << want;
      out.push_back(os.str());
    }
  };

  expect_count(obs::Phase::kCompose, r.result.frames_composed,
               "frames composed");
  expect_count(obs::Phase::kPanelPresent, r.result.frames_composed,
               "frames composed");
  if (const auto meter_frames = find_counter(r.counters, "meter.frames")) {
    expect_count(obs::Phase::kMeter, *meter_frames, "meter.frames");
  }
  const std::uint64_t evals =
      find_counter(r.counters, "dpm.evaluations").value_or(0) +
      find_counter(r.counters, "governor.evaluations").value_or(0);
  expect_count(obs::Phase::kGovern, evals, "controller evaluations");
  // The DPM runs the policy pipeline exactly once per evaluation, and the
  // pipeline stamps exactly one arbiter span per evaluate().
  expect_count(obs::Phase::kArbiter,
               find_counter(r.counters, "dpm.evaluations").value_or(0),
               "dpm evaluations");

  const display::RefreshRateSet ladder{scenario_.rates};
  sim::Time prev{};
  for (const obs::Span& sp : r.spans) {
    if (sp.begin.ticks < prev.ticks) {
      std::ostringstream os;
      os << "I6 spans: begin time went backwards at " << sp.begin.ticks
         << "us (previous " << prev.ticks << "us)";
      out.push_back(os.str());
      break;
    }
    prev = sp.begin;
  }
  for (const obs::Span& sp : r.spans) {
    if (sp.phase != obs::Phase::kPanelPresent) continue;
    if (!ladder.supports(static_cast<int>(sp.arg))) {
      std::ostringstream os;
      os << "I6 spans: panel presented at " << sp.arg
         << " Hz, not a ladder rate";
      out.push_back(os.str());
      break;
    }
  }
}

void TraceInvariantChecker::check_ladder_order(
    const RunArtifacts& r, std::vector<std::string>& out) const {
  if (!obs::SpanRecorder::compiled_in() || spans_maybe_dropped(r)) return;
  // Every rung change stamps one kDegrade span (arg = the new rung), and the
  // ladder starts at rung 0 -- so the ordered span stream IS the rung
  // history.  The LadderConfig defaults are the only values the device
  // assembly ever builds the ladder with.
  const core::LadderConfig ladder{};
  int prev = 0;
  sim::Time prev_t{};
  bool first = true;
  for (const obs::Span& sp : r.spans) {
    if (sp.phase != obs::Phase::kDegrade) continue;
    const int rung = static_cast<int>(sp.arg);
    if (rung < 0 || rung > 4) {
      std::ostringstream os;
      os << "I7 ladder: rung " << rung << " at " << sp.begin.ticks
         << "us is outside [0, 4]";
      out.push_back(os.str());
      return;
    }
    const int step = rung - prev;
    if (step != 1 && step != -1) {
      std::ostringstream os;
      os << "I7 ladder: rung jumped " << prev << " -> " << rung << " at "
         << sp.begin.ticks << "us (rungs must change one at a time)";
      out.push_back(os.str());
      return;
    }
    if (!first) {
      const sim::Duration gap{sp.begin.ticks - prev_t.ticks};
      if (gap.ticks < ladder.step_hold.ticks) {
        std::ostringstream os;
        os << "I7 ladder: rung changes " << gap.ticks << "us apart at "
           << sp.begin.ticks << "us, below the " << ladder.step_hold.ticks
           << "us step hold";
        out.push_back(os.str());
        return;
      }
      if (step == -1 && gap.ticks < ladder.recovery_cooldown.ticks) {
        std::ostringstream os;
        os << "I7 ladder: recovery step " << gap.ticks << "us after the "
           << "previous change at " << sp.begin.ticks << "us, below the "
           << ladder.recovery_cooldown.ticks << "us cooldown";
        out.push_back(os.str());
        return;
      }
    }
    prev = rung;
    prev_t = sp.begin;
    first = false;
  }
}

void TraceInvariantChecker::check_ladder_return(
    const RunArtifacts& r, std::vector<std::string>& out) const {
  if (scenario_.pressure_scale == 0.0 || scenario_.pressure_until_ms == 0) {
    return;
  }
  if (!obs::SpanRecorder::compiled_in() || spans_maybe_dropped(r)) return;

  // Bounded recovery window after the last episode can have cleared: the
  // longest episode still live at the horizon drains out, then the ladder
  // climbs down at most four rungs, one per cooldown, each observed at the
  // next evaluation tick.  Plus margin for the boundary tick.
  const core::LadderConfig ladder{};
  const fault::FaultPlan nominal = fault::FaultPlan::pressure_nominal();
  const std::int64_t residual_ms =
      std::max({nominal.thermal_duration.ticks, nominal.brownout_duration.ticks,
                nominal.jitter_duration.ticks}) /
      1000;
  const std::int64_t per_step_ms =
      ladder.recovery_cooldown.ticks / 1000 + scenario_.eval_ms;
  const std::int64_t window_ms = residual_ms + 4 * per_step_ms + 500;
  if (scenario_.pressure_until_ms + window_ms > scenario_.duration_ms) {
    return;  // the run ends inside the window: recovery need not complete
  }
  const sim::Time deadline =
      sim::Time{} + sim::milliseconds(scenario_.pressure_until_ms + window_ms);

  int final_rung = 0;
  sim::Time final_t{};
  for (const obs::Span& sp : r.spans) {
    if (sp.phase != obs::Phase::kDegrade) continue;
    final_rung = static_cast<int>(sp.arg);
    final_t = sp.begin;
    if (sp.begin.ticks > deadline.ticks) {
      std::ostringstream os;
      os << "I8 ladder: rung changed to " << final_rung << " at "
         << sp.begin.ticks << "us, after the recovery deadline "
         << deadline.ticks << "us";
      out.push_back(os.str());
      return;
    }
  }
  if (final_rung != 0) {
    std::ostringstream os;
    os << "I8 ladder: run ended at rung " << final_rung << " (last change at "
       << final_t.ticks << "us); expected a return to rung 0 by "
       << deadline.ticks << "us";
    out.push_back(os.str());
  }
}

}  // namespace ccdem::check
