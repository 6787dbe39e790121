// Wall-clock throughput baseline: how fast the simulator itself runs.
//
// Every other bench in this directory reproduces a *paper* result measured
// in simulated time; this one measures the host-side cost of simulating --
// simulated frames per wall-clock second, pixels composed/compared per
// second, and the per-stage pixel-traffic split -- across four
// representative workloads (static UI, feed scroll, game, video) for
// serial execution, the FleetRunner, and a `reference` arm (tile
// memoization off) equivalent to the pre-memoization hot path.  It writes
// BENCH_throughput.json (schema below, versioned) so the perf trajectory of
// the repo is machine-readable and CI can fail on regressions; see
// DESIGN.md sections 8 and 12.
//
// Usage:  bench_throughput [sim_seconds_per_run] [output.json]
//         CCDEM_BENCH_SECONDS / CCDEM_BENCH_OUT override the defaults
//         (30 s per run, ./BENCH_throughput.json).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_profiles.h"
#include "bench_common.h"
#include "harness/json_writer.h"
#include "obs/obs.h"

using namespace ccdem;

namespace {

/// Seeds per profile: enough runs to steady the wall-clock numbers and to
/// give the FleetRunner real work to spread across cores.
constexpr int kRunsPerProfile = 4;

struct Profile {
  std::string name;
  apps::AppSpec app;
  harness::ControlMode mode;
};

/// The four workload classes the hot path must serve: an almost-idle UI
/// (frames are mostly redundant -- the paper's motivating case), a
/// scroll-heavy feed (large vertical damage bands), a sprite game
/// (scattered small damage at 60 Hz), and video playback (a full-width band
/// redrawn every decoded frame with high inter-frame coherence -- the tile
/// cache's showcase).
std::vector<Profile> profiles() {
  std::vector<Profile> v;
  v.push_back({"static_ui", apps::app_by_name("Auction"),
               harness::ControlMode::kSection});
  {
    apps::AppSpec feed = apps::app_by_name("Facebook");
    feed.monkey.swipe_probability = 0.9;  // drive the feed: swipes, not taps
    v.push_back({"feed_scroll", std::move(feed),
                 harness::ControlMode::kSection});
  }
  v.push_back({"game", apps::app_by_name("Jelly Splash"),
               harness::ControlMode::kSectionWithBoost});
  v.push_back({"video", apps::app_by_name("MX Player"),
               harness::ControlMode::kSection});
  return v;
}

/// Serial frames-per-wall-second of the immediate pre-PR tree, measured by
/// replaying this bench's exact workload recipe against a worktree checked
/// out just before the kernel-dispatch/memoization PR (same machine, same
/// default-configure build, 30 s per run, best of 3).  Kept in the source so
/// regeneration reproduces the comparison instead of losing it.
struct PrePrBaseline {
  const char* profile;
  double frames_per_wall_s;
};
constexpr PrePrBaseline kPrePr[] = {
    {"static_ui", 11333.0},
    {"feed_scroll", 9679.0},
    {"game", 18267.0},
    {"video", 3477.0},
};
constexpr const char* kPrePrNote =
    "serial throughput of the immediate pre-PR tree, replayed with this "
    "bench's recipe (same machine, default-configure build, 30 s runs, best "
    "of 3).  The pre-PR hot path was already damage-scoped and memcpy-bound, "
    "so the kernel/memoization work shifts per-stage pixel traffic (see "
    "pixels_written_per_s / pixels_compared_per_s) more than end-to-end "
    "frames/s -- see DESIGN.md section 12 for the bandwidth analysis.";

double pre_pr_fps(const std::string& profile) {
  for (const PrePrBaseline& b : kPrePr) {
    if (profile == b.profile) return b.frames_per_wall_s;
  }
  return 0.0;
}

/// 1 s smoke numbers for the CI regression gate (best of 3 on the recording
/// machine).  Short runs are setup-dominated, so CI compares equal-length
/// runs against this block, never against the 30 s numbers above.
struct SmokeBaseline {
  const char* profile;
  double frames_per_wall_s;
  double pixels_compared_per_frame;
};
constexpr SmokeBaseline kSmoke[] = {
    {"static_ui", 1166.49, 1813.091},
    {"feed_scroll", 1319.30, 2046.316},
    {"game", 5483.28, 293.425},
    {"video", 2449.57, 468.500},
};

std::vector<harness::ExperimentConfig> make_configs(const Profile& p,
                                                    int seconds,
                                                    bool tile_memo = true) {
  std::vector<harness::ExperimentConfig> configs;
  for (int i = 0; i < kRunsPerProfile; ++i) {
    harness::ExperimentConfig c =
        bench::make_config(p.app, p.mode, seconds, /*seed=*/1 + i);
    c.tile_memo = tile_memo;
    configs.push_back(std::move(c));
  }
  return configs;
}

/// One measured arm (serial, fleet, or reference) over a profile's config
/// set.
struct ArmResult {
  double wall_ms = 0.0;
  std::uint64_t sim_frames = 0;
  double sim_seconds = 0.0;
  obs::Counters counters;

  [[nodiscard]] double per_wall_s(double count) const {
    return wall_ms <= 0.0 ? 0.0 : count / (wall_ms / 1000.0);
  }
  [[nodiscard]] double frames_per_wall_s() const {
    return per_wall_s(static_cast<double>(sim_frames));
  }
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ArmResult run_serial(const std::vector<harness::ExperimentConfig>& configs) {
  ArmResult r;
  obs::ObsSink sink;
  sink.spans.set_enabled(false);  // counters only; spans would skew timing
  const auto t0 = std::chrono::steady_clock::now();
  for (harness::ExperimentConfig c : configs) {
    c.obs = &sink;
    const harness::ExperimentResult res = harness::run_experiment(c);
    r.sim_frames += res.frames_composed;
    r.sim_seconds += res.duration.seconds();
  }
  r.wall_ms = elapsed_ms(t0);
  r.counters = sink.counters;
  return r;
}

ArmResult run_fleet(const std::vector<harness::ExperimentConfig>& configs) {
  ArmResult r;
  harness::FleetRunner fleet;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<harness::ExperimentResult> results = fleet.run(configs);
  r.wall_ms = elapsed_ms(t0);
  for (const harness::ExperimentResult& res : results) {
    r.sim_frames += res.frames_composed;
    r.sim_seconds += res.duration.seconds();
  }
  r.counters = fleet.stats().counters;
  return r;
}

/// Counter totals must be scheduling-independent; only pool.*
/// counters legitimately differ (fleet workers share one device per
/// thread), and the reference arm additionally differs in the memo/meter
/// work counters the memoization exists to change.
bool counters_identical(const obs::Counters& a, const obs::Counters& b,
                        bool ignore_memo_work = false) {
  const auto ignored = [&](const std::string& name) {
    if (name.rfind("pool.", 0) == 0) return true;
    if (ignore_memo_work &&
        (name.rfind("flinger.memo.", 0) == 0 ||
         name.rfind("meter.pixels_", 0) == 0)) {
      return true;
    }
    return false;
  };
  for (const auto& [name, value] : b.snapshot().counters) {
    if (!ignored(name) && a.value(name) != value) return false;
  }
  for (const auto& [name, value] : a.snapshot().counters) {
    if (!ignored(name) && b.value(name) != value) return false;
  }
  return true;
}

void write_arm(harness::JsonWriter& w, const ArmResult& r) {
  const std::uint64_t composed = r.counters.value("flinger.pixels_composed");
  const std::uint64_t written =
      r.counters.value("flinger.memo.pixels_written");
  const std::uint64_t memo_skipped =
      r.counters.value("flinger.memo.pixels_skipped");
  const std::uint64_t compared = r.counters.value("meter.pixels_compared");
  const std::uint64_t skipped =
      r.counters.value("meter.pixels_compare_skipped");
  w.begin_object();
  w.kv("wall_ms", r.wall_ms);
  w.kv("sim_frames", r.sim_frames);
  w.kv("sim_seconds", r.sim_seconds);
  w.kv("frames_per_wall_s", r.frames_per_wall_s());
  w.kv("sim_seconds_per_wall_s", r.per_wall_s(r.sim_seconds));
  w.kv("pixels_composed_per_s", r.per_wall_s(static_cast<double>(composed)));
  w.kv("pixels_written_per_s", r.per_wall_s(static_cast<double>(written)));
  w.kv("pixels_memo_skipped_per_s",
       r.per_wall_s(static_cast<double>(memo_skipped)));
  w.kv("pixels_compared_per_s", r.per_wall_s(static_cast<double>(compared)));
  w.kv("pixels_compare_skipped_per_s",
       r.per_wall_s(static_cast<double>(skipped)));
  // Per-stage share of total pixel traffic (composed + compared); skipped
  // comparisons are work *avoided*, reported for the culling trend line.
  const double traffic = static_cast<double>(composed + compared);
  w.key("stage_shares");
  w.begin_object();
  w.kv("compose", traffic <= 0.0 ? 0.0 : static_cast<double>(composed) / traffic);
  w.kv("meter", traffic <= 0.0 ? 0.0 : static_cast<double>(compared) / traffic);
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : r.counters.snapshot().counters) {
    if (name.rfind("flinger.", 0) == 0 || name.rfind("meter.", 0) == 0 ||
        name.rfind("panel.", 0) == 0) {
      w.kv(name, value);
    }
  }
  w.end_object();
  w.end_object();
}

std::string out_path(int argc, char** argv) {
  if (argc > 2) return argv[2];
  if (const char* env = std::getenv("CCDEM_BENCH_OUT")) return env;
  return "BENCH_throughput.json";
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = bench::run_seconds(argc, argv, 30);
  const std::string path = out_path(argc, argv);

  harness::print_bench_header(
      std::cout, "Wall-clock throughput baseline",
      std::to_string(seconds) + " s per run, " +
          std::to_string(kRunsPerProfile) + " runs per profile");

  struct Row {
    Profile profile;
    ArmResult serial;  // memoization on
    ArmResult fleet;
    ArmResult reference;  // memoization off (pre-PR path)
    bool identical = false;            // serial vs fleet
    bool reference_identical = false;  // reference vs serial, modulo memo work
  };
  std::vector<Row> rows;

  for (const Profile& p : profiles()) {
    // Untimed warm-up run: touches every allocation path once so the timed
    // arms measure steady state, not first-touch page faults.
    (void)harness::run_experiment(
        bench::make_config(p.app, p.mode, /*seconds=*/1));

    Row row;
    row.profile = p;
    row.serial = run_serial(make_configs(p, seconds));
    row.fleet = run_fleet(make_configs(p, seconds));
    row.reference =
        run_serial(make_configs(p, seconds, /*tile_memo=*/false));
    row.identical = counters_identical(row.serial.counters,
                                       row.fleet.counters);
    row.reference_identical =
        counters_identical(row.serial.counters, row.reference.counters,
                           /*ignore_memo_work=*/true);
    rows.push_back(std::move(row));
  }

  harness::TextTable table({"profile", "app", "serial fps", "fleet fps",
                            "ref fps", "speedup", "Mpx written/s",
                            "Mpx compared/s", "counters"});
  for (const Row& r : rows) {
    const double ref_fps = r.reference.frames_per_wall_s();
    table.add_row(
        {r.profile.name, r.profile.app.name,
         harness::fmt(r.serial.frames_per_wall_s(), 0),
         harness::fmt(r.fleet.frames_per_wall_s(), 0),
         harness::fmt(ref_fps, 0),
         harness::fmt(
             ref_fps <= 0.0 ? 0.0 : r.serial.frames_per_wall_s() / ref_fps,
             2),
         harness::fmt(r.serial.per_wall_s(static_cast<double>(
                          r.serial.counters.value(
                              "flinger.memo.pixels_written"))) /
                          1e6,
                      1),
         harness::fmt(r.serial.per_wall_s(static_cast<double>(
                          r.serial.counters.value("meter.pixels_compared"))) /
                          1e6,
                      1),
         r.identical && r.reference_identical ? "identical" : "DIVERGED"});
  }
  table.print(std::cout);

  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  harness::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "ccdem-bench-throughput-v3");
  w.kv("generated_by", "bench_throughput");
  w.kv("sim_seconds_per_run", seconds);
  w.kv("runs_per_profile", kRunsPerProfile);
  w.key("profiles");
  w.begin_array();
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical && r.reference_identical;
    w.begin_object();
    w.kv("name", r.profile.name);
    w.kv("app", r.profile.app.name);
    w.kv("mode", harness::control_mode_name(r.profile.mode));
    w.key("serial");
    write_arm(w, r.serial);
    w.key("fleet");
    write_arm(w, r.fleet);
    w.key("reference");
    write_arm(w, r.reference);
    w.kv("counters_identical", r.identical);
    w.kv("reference_identical", r.reference_identical);
    w.kv("speedup_fleet_over_serial",
         r.serial.wall_ms <= 0.0 || r.fleet.wall_ms <= 0.0
             ? 0.0
             : r.serial.wall_ms / r.fleet.wall_ms);
    w.kv("speedup_vs_reference",
         r.reference.frames_per_wall_s() <= 0.0
             ? 0.0
             : r.serial.frames_per_wall_s() /
                   r.reference.frames_per_wall_s());
    const double pre = pre_pr_fps(r.profile.name);
    w.kv("speedup_vs_pre_pr",
         pre <= 0.0 ? 0.0 : r.serial.frames_per_wall_s() / pre);
    w.end_object();
  }
  w.end_array();
  w.kv("all_counters_identical", all_identical);
  w.key("pre_pr_baseline");
  w.begin_object();
  w.kv("note", kPrePrNote);
  w.key("profiles");
  w.begin_object();
  for (const PrePrBaseline& b : kPrePr) {
    w.key(b.profile);
    w.begin_object();
    w.kv("frames_per_wall_s", b.frames_per_wall_s);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.key("smoke_baseline");
  w.begin_object();
  w.kv("note",
       "same bench at 1 simulated second per run (the CI perf-smoke cap); "
       "setup cost dominates short runs, so the CI gate compares "
       "equal-length runs against this block, not the 30 s numbers");
  w.kv("sim_seconds_per_run", 1);
  w.key("profiles");
  w.begin_object();
  for (const SmokeBaseline& b : kSmoke) {
    w.key(b.profile);
    w.begin_object();
    w.kv("frames_per_wall_s", b.frames_per_wall_s);
    w.kv("pixels_compared_per_frame", b.pixels_compared_per_frame);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.end_object();

  std::cout << "\nwrote " << path << "\n";
  return all_identical ? 0 : 1;
}
