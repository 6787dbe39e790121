// Robustness envelope: power, quality and recovery behaviour vs injected
// panel/input faults and vs system pressure.
//
// Two planes share one sweep driver.  Each sweeps scaled multiples of its
// nominal FaultPlan over representative workloads and records mean power,
// the display quality vs a clean fixed-60 Hz baseline, and every counter of
// the plane -- for a serial arm AND a work-stealing fleet arm, which must
// agree bit-exactly (fault and pressure injection are part of the
// reproducible contract).
//  * faults (src/fault/, DESIGN.md section 9): switch NAKs and delays,
//    stuck panels, touch loss, meter bit flips, answered by the
//    self-healing control plane; swept over the feed and the game.
//  * pressure (src/core/policy_stages.h, DESIGN.md section 14): thermal
//    throttling, battery brownout and vsync jitter storms, answered by the
//    degradation ladder; swept over the feed, the game and the video
//    player, plus one recovery leg per workload where the pressure horizon
//    ends mid-run and the ladder must be back on rung 0 within the I8
//    recovery window.
//
// Writes BENCH_envelope.json (schema ccdem-bench-envelope-v1, one section
// per plane) and exits non-zero when either plane's gate fails:
// serial/fleet counters diverging, display quality at the nominal (1x)
// rate dropping below 95 %, no fault or pressure activity at nominal, or a
// recovery leg that does not return to rung 0 inside the window.
//
// Usage:  bench_envelope [sim_seconds_per_run] [output.json]
//         CCDEM_BENCH_SECONDS / CCDEM_BENCH_OUT override the defaults
//         (20 s per run, ./BENCH_envelope.json).  Runs shorter than 10 s
//         can round nominal-scale pressure episodes to zero and push the
//         recovery deadline past the end of the run.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_profiles.h"
#include "bench_common.h"
#include "fault/fault_plan.h"
#include "harness/json_writer.h"
#include "metrics/quality.h"
#include "obs/obs.h"

using namespace ccdem;

namespace {

/// Multiples of the plane's nominal plan; 0 is the clean control arm.
constexpr double kScales[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};
constexpr double kNominalScale = 1.0;
/// Recovery legs run at the stress end of the sweep so the ladder actually
/// climbs before the horizon -- recovery from rung 0 proves nothing.
constexpr double kRecoveryScale = 4.0;
constexpr double kQualityGatePct = 95.0;

/// Counters that must be scheduling-independent between the serial and
/// fleet arms (everything is, except pool.* which tracks worker reuse).
bool counters_identical(const obs::Counters& serial,
                        const obs::Counters& fleet) {
  for (const auto& [name, value] : fleet.snapshot().counters) {
    if (name.rfind("pool.", 0) == 0) continue;
    if (serial.value(name) != value) return false;
  }
  for (const auto& [name, value] : serial.snapshot().counters) {
    if (name.rfind("pool.", 0) == 0) continue;
    if (fleet.value(name) != value) return false;
  }
  return true;
}

struct Workload {
  std::string name;
  apps::AppSpec app;
};

/// A feed (touch-driven bursts, long idle stretches where a stuck panel is
/// cheap to hide and shedding boost is nearly free), a game (sustained
/// 30+ fps content where every lost switch or capped rung shows up in
/// delivered quality immediately) and a video player (fixed cadence --
/// jitter storms hit delivered frames directly).
std::vector<Workload> workloads() {
  std::vector<Workload> v;
  v.push_back({"feed", apps::app_by_name("Facebook")});
  v.push_back({"game", apps::app_by_name("Jelly Splash")});
  v.push_back({"video", apps::app_by_name("MX Player")});
  return v;
}

/// One column of a plane's console table.
struct Column {
  const char* label;
  const char* counter;
};

struct Plane {
  std::string name;  ///< JSON section key and console tag
  fault::FaultPlan nominal;
  std::size_t workloads;  ///< sweeps the first `workloads` of workloads()
  std::vector<Column> columns;
  std::vector<const char*> reported;  ///< per-scale JSON counters
  bool recovery_legs;
};

std::vector<Plane> planes() {
  std::vector<Plane> v;
  v.push_back(Plane{
      .name = "faults",
      .nominal = fault::FaultPlan::nominal(),
      .workloads = 2,
      .columns = {{"naks", "fault.switch_naks"},
                  {"stuck", "fault.stuck_episodes"},
                  {"touch drops", "fault.touch_dropped"},
                  {"retries", "dpm.retries"},
                  {"safe modes", "dpm.safe_mode_entries"}},
      .reported = {"fault.switch_naks", "fault.switch_delays",
                   "fault.stuck_episodes", "fault.capability_losses",
                   "fault.touch_dropped", "fault.touch_duplicated",
                   "fault.touch_delayed", "fault.meter_bitflips",
                   "dpm.retries", "dpm.retry_giveups",
                   "dpm.watchdog_fallbacks", "dpm.safe_mode_entries"},
      .recovery_legs = false,
  });
  v.push_back(Plane{
      .name = "pressure",
      .nominal = fault::FaultPlan::pressure_nominal(),
      .workloads = 3,
      .columns = {{"thermal", "pressure.thermal_episodes"},
                  {"brownout", "pressure.brownouts"},
                  {"jitter", "pressure.jitter_storms"},
                  {"sheds", "degrade.sheds"},
                  {"safe modes", "degrade.safe_modes"}},
      .reported = {"pressure.thermal_episodes", "pressure.brownouts",
                   "pressure.jitter_storms", "pressure.vsync_dropped",
                   "pressure.vsync_delayed", "degrade.sheds",
                   "degrade.recoveries", "degrade.caps",
                   "degrade.safe_modes"},
      .recovery_legs = true,
  });
  return v;
}

harness::ExperimentConfig scaled_config(const Plane& p, const Workload& w,
                                        int seconds, double scale) {
  harness::ExperimentConfig c = bench::make_config(
      w.app, harness::ControlMode::kSectionWithBoost, seconds, /*seed=*/1);
  if (scale > 0.0) c.fault = p.nominal.scaled(scale);
  return c;
}

struct AppCell {
  std::string name;
  double power_mw = 0.0;
  double quality_pct = 0.0;
  std::uint64_t rate_switches = 0;
};

struct ScaleRow {
  double scale = 0.0;
  std::vector<AppCell> apps;
  obs::Counters serial_counters;
  bool identical = false;

  [[nodiscard]] double min_quality_pct() const {
    double q = 100.0;
    for (const AppCell& a : apps) q = std::min(q, a.quality_pct);
    return q;
  }
};

/// Recovery leg result: pressure ends mid-run; I8 demands rung 0 again
/// within the bounded window and no further ladder motion after it.
struct RecoveryLeg {
  std::string name;
  std::int64_t deadline_ms = 0;        ///< pressure end + recovery window
  std::int64_t last_change_ms = -1;    ///< begin of the last kDegrade span
  double final_rung = 0.0;
  bool recovered = false;
};

/// Mirrors the I8 window: the longest residual episode plus a few full
/// hysteresis/cooldown rounds of slack.
std::int64_t recovery_window_ms(const harness::ExperimentConfig& c) {
  const std::int64_t eval_ms =
      c.dpm.meter.eval_period.ticks / sim::kTicksPerMillisecond;
  const std::int64_t cooldown_ms =
      c.dpm.ladder.recovery_cooldown.ticks / sim::kTicksPerMillisecond;
  return 1500 + 4 * (cooldown_ms + eval_ms) + 500;
}

RecoveryLeg run_recovery_leg(const Plane& p, const Workload& w, int seconds) {
  harness::ExperimentConfig c = scaled_config(p, w, seconds, kRecoveryScale);
  const std::int64_t half_ticks = sim::seconds(seconds).ticks / 2;
  c.fault.pressure_until = sim::Time{half_ticks};

  obs::ObsSink sink;
  c.obs = &sink;
  (void)harness::run_experiment(c);

  RecoveryLeg leg;
  leg.name = w.name;
  leg.deadline_ms =
      half_ticks / sim::kTicksPerMillisecond + recovery_window_ms(c);
  for (const obs::Span& s : sink.spans.spans()) {
    if (s.phase != obs::Phase::kDegrade) continue;
    leg.last_change_ms = s.begin.ticks / sim::kTicksPerMillisecond;
  }
  leg.final_rung = sink.counters.gauge_value("degrade.rung");
  leg.recovered =
      leg.final_rung == 0.0 &&
      (leg.last_change_ms < 0 || leg.last_change_ms <= leg.deadline_ms);
  return leg;
}

struct PlaneReport {
  std::vector<ScaleRow> rows;
  std::vector<RecoveryLeg> legs;
  bool all_identical = true;
  double quality_at_nominal = 100.0;
  std::uint64_t activity_at_nominal = 0;
  bool all_recovered = true;
  bool gate_passed = false;
};

/// The sweep driver: serial and fleet arms at every scale, judged against
/// the clean references `ideal` (one per workload) and printed as a table,
/// then the recovery legs if the plane has them.
PlaneReport run_plane(const Plane& p, const std::vector<Workload>& loads,
                      const std::vector<harness::ExperimentResult>& ideal,
                      int seconds) {
  PlaneReport rep;
  for (const double scale : kScales) {
    ScaleRow row;
    row.scale = scale;

    std::vector<harness::ExperimentConfig> configs;
    for (std::size_t i = 0; i < p.workloads; ++i) {
      configs.push_back(scaled_config(p, loads[i], seconds, scale));
    }

    // Serial arm: one private sink per run, merged -- the ground truth.
    std::vector<harness::ExperimentResult> serial_results;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      harness::ExperimentConfig c = configs[i];
      obs::ObsSink sink;
      sink.spans.set_enabled(false);
      c.obs = &sink;
      serial_results.push_back(harness::run_experiment(c));
      row.serial_counters.merge(sink.counters);
    }

    // Fleet arm: same configs through the work-stealing runner; the
    // merged counters must match the serial totals exactly.
    harness::FleetRunner fleet;
    (void)fleet.run(configs);
    row.identical =
        counters_identical(row.serial_counters, fleet.stats().counters);

    for (std::size_t i = 0; i < configs.size(); ++i) {
      AppCell cell;
      cell.name = loads[i].name;
      cell.power_mw = serial_results[i].mean_power_mw;
      cell.quality_pct =
          metrics::compare_quality(ideal[i].content_rate,
                                   serial_results[i].content_rate)
              .display_quality_pct;
      cell.rate_switches = serial_results[i].rate_switches;
      row.apps.push_back(std::move(cell));
    }
    rep.all_identical = rep.all_identical && row.identical;
    if (scale == kNominalScale) {
      rep.quality_at_nominal = row.min_quality_pct();
      for (const char* name : p.reported) {
        rep.activity_at_nominal += row.serial_counters.value(name);
      }
    }
    rep.rows.push_back(std::move(row));
  }

  std::vector<std::string> header = {"scale", "min quality %"};
  for (const Column& col : p.columns) header.emplace_back(col.label);
  header.emplace_back("counters");
  harness::TextTable table(header);
  for (const ScaleRow& r : rep.rows) {
    std::vector<std::string> cells = {harness::fmt(r.scale, 2),
                                      harness::fmt(r.min_quality_pct(), 1)};
    for (const Column& col : p.columns) {
      cells.push_back(std::to_string(r.serial_counters.value(col.counter)));
    }
    cells.emplace_back(r.identical ? "identical" : "DIVERGED");
    table.add_row(cells);
  }
  std::cout << "--- " << p.name << " ---\n";
  table.print(std::cout);

  if (p.recovery_legs) {
    for (std::size_t i = 0; i < p.workloads; ++i) {
      rep.legs.push_back(run_recovery_leg(p, loads[i], seconds));
      rep.all_recovered = rep.all_recovered && rep.legs.back().recovered;
    }
    std::cout << "\nrecovery legs (pressure ends at " << seconds / 2
              << " s):\n";
    for (const RecoveryLeg& l : rep.legs) {
      std::cout << "  " << l.name << ": last rung change "
                << (l.last_change_ms < 0 ? std::string("none")
                                         : std::to_string(l.last_change_ms) +
                                               " ms")
                << ", deadline " << l.deadline_ms << " ms, final rung "
                << harness::fmt(l.final_rung, 0) << " -> "
                << (l.recovered ? "recovered" : "STUCK") << "\n";
    }
  }

  rep.gate_passed = rep.all_identical &&
                    rep.quality_at_nominal >= kQualityGatePct &&
                    rep.activity_at_nominal > 0 && rep.all_recovered;
  std::cout << "\n[" << p.name << "] quality at nominal: "
            << harness::fmt(rep.quality_at_nominal, 1) << " % (gate "
            << (rep.gate_passed ? "PASSED" : "FAILED") << ")\n\n";
  return rep;
}

void write_plane(harness::JsonWriter& w, const Plane& p,
                 const PlaneReport& rep) {
  w.key(p.name);
  w.begin_object();
  w.key("scales");
  w.begin_array();
  for (const ScaleRow& r : rep.rows) {
    w.begin_object();
    w.kv("scale", r.scale);
    w.kv("counters_identical", r.identical);
    w.kv("min_quality_pct", r.min_quality_pct());
    w.key("apps");
    w.begin_array();
    for (const AppCell& a : r.apps) {
      w.begin_object();
      w.kv("name", a.name);
      w.kv("power_mw", a.power_mw);
      w.kv("quality_pct", a.quality_pct);
      w.kv("rate_switches", a.rate_switches);
      w.end_object();
    }
    w.end_array();
    w.key("counters");
    w.begin_object();
    for (const char* name : p.reported) {
      w.kv(name, r.serial_counters.value(name));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  if (p.recovery_legs) {
    w.key("recovery");
    w.begin_array();
    for (const RecoveryLeg& l : rep.legs) {
      w.begin_object();
      w.kv("name", l.name);
      w.kv("deadline_ms", l.deadline_ms);
      w.kv("last_rung_change_ms", l.last_change_ms);
      w.kv("final_rung", l.final_rung);
      w.kv("recovered", l.recovered);
      w.end_object();
    }
    w.end_array();
    w.kv("all_recovered", rep.all_recovered);
  }
  w.kv("all_counters_identical", rep.all_identical);
  w.kv("quality_at_nominal_pct", rep.quality_at_nominal);
  w.kv("activity_at_nominal", rep.activity_at_nominal);
  w.kv("gate_passed", rep.gate_passed);
  w.end_object();
}

std::string out_path(int argc, char** argv) {
  if (argc > 2) return argv[2];
  if (const char* env = std::getenv("CCDEM_BENCH_OUT")) return env;
  return "BENCH_envelope.json";
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = bench::run_seconds(argc, argv, 20);
  const std::string path = out_path(argc, argv);
  const std::vector<Workload> loads = workloads();
  const std::vector<Plane> plane_list = planes();

  harness::print_bench_header(
      std::cout, "Envelope: power / quality vs injected faults and pressure",
      std::to_string(seconds) + " s per run, scales 0x-4x nominal");

  // Quality reference: a clean fixed-60 Hz run per workload.  Every swept
  // arm is judged against the content the app would have shown with no
  // rate control, no faults and no pressure at all.
  std::vector<harness::ExperimentResult> ideal;
  for (const Workload& w : loads) {
    ideal.push_back(harness::run_experiment(bench::make_config(
        w.app, harness::ControlMode::kBaseline60, seconds, /*seed=*/1)));
  }

  std::vector<PlaneReport> reports;
  bool gate_passed = true;
  for (const Plane& p : plane_list) {
    reports.push_back(run_plane(p, loads, ideal, seconds));
    gate_passed = gate_passed && reports.back().gate_passed;
  }

  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  harness::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "ccdem-bench-envelope-v1");
  w.kv("generated_by", "bench_envelope");
  w.kv("sim_seconds_per_run", seconds);
  w.kv("quality_gate_pct", kQualityGatePct);
  for (std::size_t i = 0; i < plane_list.size(); ++i) {
    write_plane(w, plane_list[i], reports[i]);
  }
  w.kv("gate_passed", gate_passed);
  w.end_object();

  std::cout << "envelope gate " << (gate_passed ? "PASSED" : "FAILED")
            << "\nwrote " << path << "\n";
  return gate_passed ? 0 : 1;
}
