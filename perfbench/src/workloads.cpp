#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <variant>

#include "apps/app_profiles.h"
#include "campaign/aggregates.h"
#include "campaign/bin_format.h"
#include "campaign/campaign.h"
#include "campaign/coordinator.h"
#include "campaign/worker.h"
#include "check/dst.h"
#include "check/oracles.h"
#include "check/scenario.h"
#include "check/scenario_gen.h"
#include "device/simulated_device.h"
#include "harness/experiment.h"
#include "layer_trace.h"
#include "metrics/quality.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace cmp = ccdem::campaign;
namespace chk = ccdem::check;
using Clock = std::chrono::steady_clock;
using ccdem::device::ControlMode;
using ccdem::harness::ExperimentConfig;
using ccdem::harness::ExperimentResult;
using CounterList = std::vector<std::pair<std::string, std::uint64_t>>;

/// Set-up is repeated this many times per process and reported as the
/// median, so one slow page-fault storm does not decide setup_s.
constexpr int kSetupRepeats = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A simulator seed derived from the workload seed: small, positive and
/// distinct per (seed, index).
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t index) {
  return 1 + splitmix64(seed * 1000003ULL + index) % 1000000000ULL;
}

/// Runs `setup` kSetupRepeats times and returns the median duration; the
/// first repeat is timed from process start.
double repeated_setup(const Options& o, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = i == 0 ? o.process_start : Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// Peak resident set in MiB: this process, and with `children` also the
/// largest reaped child (campaign workers).
double peak_rss_mb(bool children) {
  double kb = static_cast<double>(cmp::peak_rss_kb());
  if (children) {
    rusage ru{};
    if (getrusage(RUSAGE_CHILDREN, &ru) == 0) {
      kb = std::max(kb, static_cast<double>(ru.ru_maxrss));
    }
  }
  return kb / 1024.0;
}

bool scheduling_counter(const std::string& name) {
  return name.rfind("pool.", 0) == 0;
}

void fold_trace(Digest& d, const ccdem::sim::Trace& t) {
  d.add(static_cast<std::uint64_t>(t.size()));
  for (const ccdem::sim::TracePoint& p : t.points()) {
    d.add(static_cast<std::int64_t>(p.t.ticks));
    d.add(p.value);
  }
}

void fold_result(Digest& d, const ExperimentResult& r) {
  d.add(r.app_name);
  d.add(static_cast<std::uint64_t>(r.mode));
  d.add(static_cast<std::int64_t>(r.duration.ticks));
  d.add(r.mean_power_mw);
  fold_trace(d, r.power);
  fold_trace(d, r.frame_rate);
  fold_trace(d, r.content_rate);
  fold_trace(d, r.measured_content_rate);
  d.add(r.meter_error_rate);
  d.add(static_cast<std::uint64_t>(r.rate_switches));
  d.add(r.response_mean_ms);
  d.add(r.response_p95_ms);
  d.add(r.response_max_ms);
  d.add(static_cast<std::uint64_t>(r.response_interactions));
  const ccdem::power::EnergyBreakdown& e = r.energy;
  for (double v : {e.soc_base_mj, e.panel_static_mj, e.refresh_mj, e.link_mj,
                   e.auxiliary_mj, e.composition_mj, e.render_mj, e.touch_mj,
                   e.meter_mj, e.rate_switch_mj, e.other_mj}) {
    d.add(v);
  }
  fold_trace(d, r.refresh_rate);
  d.add(r.mean_refresh_hz);
  d.add(static_cast<std::uint64_t>(r.frames_composed));
  d.add(static_cast<std::uint64_t>(r.content_frames));
  d.add(static_cast<std::uint64_t>(r.frames_posted));
  d.add(static_cast<std::uint64_t>(r.touch_events));
  d.add(static_cast<std::uint64_t>(r.final_frame_hash));
  d.add(static_cast<std::uint64_t>(r.frame_stream_hash));
}

void fold_counters(Digest& d, const ccdem::obs::Counters::Snapshot& s) {
  for (const auto& [name, value] : s.counters) {
    if (scheduling_counter(name)) continue;
    d.add(name);
    d.add(static_cast<std::uint64_t>(value));
  }
  for (const auto& [name, value] : s.gauges) {
    d.add(name);
    d.add(value);
  }
}

/// The obs counters the per-layer work ratios are read from.
struct CounterTotals {
  std::map<std::string, std::uint64_t> sums;

  void add(const CounterList& counters) {
    for (const auto& [name, value] : counters) sums[name] += value;
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : static_cast<double>(it->second);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Campaign-only per-layer figures (zero on every other workload).
struct CampaignLayer {
  double shard_ms = 0.0;
  double encode_ns_per_record = 0.0;
  double decode_ns_per_record = 0.0;
  double merge_ms = 0.0;
  double bytes_per_run = 0.0;
  double parallel_efficiency = 0.0;
};

/// Everything a traced run measured, turned into the per-layer metrics.
struct TraceSummary {
  LayerTotals totals;
  /// Wall time of the traced replicas and of their untraced twins.
  double traced_s = 0.0;
  double untraced_s = 0.0;
  CounterTotals counters;
  double arms_per_scenario = 0.0;
  CampaignLayer campaign;
};

void fail(Outcome& out, std::string why) {
  ++out.failed_checks;
  if (out.problems.size() < 20) out.problems.push_back(std::move(why));
}

/// Counts one finished operation; it failed if a check failed since
/// `checks_before` was read.
void count_op(Outcome& out, std::uint64_t checks_before) {
  ++out.attempted;
  if (out.failed_checks > checks_before) ++out.failed;
}

void emit_layer_metrics(Outcome& out, const TraceSummary& s) {
  const LayerTotals& t = s.totals;
  auto m = [&](const std::string& name, double v, const std::string& unit) {
    out.metrics.push_back({name, v, unit});
  };
  const auto runs = static_cast<double>(t.calls[static_cast<int>(Layer::kDevice)]);
  m("device.setup_ms_per_run",
    runs > 0 ? static_cast<double>(t.setup_ns) / runs / 1e6 : 0.0, "ms");
  m("apps.render_ns_per_vsync", t.ns_per_call(Layer::kApps), "ns");
  m("gfx.compose_ns_per_frame", t.ns_per_call(Layer::kGfx), "ns");
  m("core.meter_ns_per_frame", t.ns_per_call(Layer::kCore), "ns");
  m("check.hash_ns_per_frame", t.ns_per_call(Layer::kCheck), "ns");
  m("check.arms_per_scenario", s.arms_per_scenario, "ratio");
  double attributed = 0.0;
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    attributed += t.share(layer);
    const std::string name = kLayerNames[l];
    m(layer == Layer::kSim ? "sim.loop_share" : name + ".share",
      t.share(layer), "share");
    if (layer == Layer::kDevice || layer == Layer::kApps ||
        layer == Layer::kGfx || layer == Layer::kCore ||
        layer == Layer::kCheck) {
      m(name + ".calls", static_cast<double>(t.calls[static_cast<std::size_t>(l)]),
        "count");
    }
  }
  m("unattributed_share", 1.0 - attributed, "share");
  if (attributed < 0.95) {
    fail(out, "per-layer shares cover only " +
                  std::to_string(attributed * 100.0) + "% of traced wall time");
  }
  m("trace_overhead_share", ratio(s.traced_s - s.untraced_s, s.untraced_s),
    "share");

  const CampaignLayer& c = s.campaign;
  m("campaign.shard_ms", c.shard_ms, "ms");
  m("campaign.encode_ns_per_record", c.encode_ns_per_record, "ns");
  m("campaign.decode_ns_per_record", c.decode_ns_per_record, "ns");
  m("campaign.merge_ms", c.merge_ms, "ms");
  m("campaign.bytes_per_run", c.bytes_per_run, "bytes");
  m("campaign.parallel_efficiency", c.parallel_efficiency, "ratio");

  const CounterTotals& k = s.counters;
  const double frames = k.get("flinger.frames_composed");
  m("gfx.redundant_frac",
    frames > 0 ? 1.0 - k.get("flinger.content_frames") / frames : 0.0,
    "ratio");
  m("gfx.frames_base", frames, "count");
  const double memo_base =
      k.get("flinger.memo.pixels_written") + k.get("flinger.memo.pixels_skipped");
  m("gfx.memo_skip_ratio", ratio(k.get("flinger.memo.pixels_skipped"), memo_base),
    "ratio");
  m("gfx.memo_pixels_base", memo_base, "count");
  const double cull_base =
      k.get("meter.pixels_compared") + k.get("meter.pixels_compare_skipped");
  m("core.meter_cull_ratio",
    ratio(k.get("meter.pixels_compare_skipped"), cull_base), "ratio");
  m("core.meter_pixels_base", cull_base, "count");
  m("device.pool_reuse_ratio",
    ratio(k.get("pool.reuses"), k.get("pool.acquires")), "ratio");
  m("device.pool_acquires_base", k.get("pool.acquires"), "count");
}

void add_end_to_end(Outcome& out, double ops_per_s, double sim_s_per_s,
                    const std::vector<double>& op_walls_s, double setup_s,
                    double rss_mb) {
  out.metrics.push_back({"ops_per_wall_s", ops_per_s, "1/s"});
  out.metrics.push_back({"sim_s_per_wall_s", sim_s_per_s, "s/s"});
  out.metrics.push_back({"setup_s", setup_s, "s"});
  out.metrics.push_back({"peak_rss_mb", rss_mb, "MiB"});
  // Per-operation latency moves with the input mix from seed to seed, so
  // it is reported, not gated.
  out.extra.push_back(
      {"samples", static_cast<double>(op_walls_s.size()), "count"});
  out.extra.push_back({"op_ms.p50", median(op_walls_s) * 1e3, "ms"});
  out.extra.push_back({"op_ms.iqr_share", iqr_share(op_walls_s), "share"});
  if (auto p75 = tail_percentile(op_walls_s, 75.0)) {
    out.extra.push_back({"op_ms.p75", *p75 * 1e3, "ms"});
  }
  out.extra.push_back(
      {"failed_frac",
       ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
       "share"});
}

/// True while a time-bounded loop should start another operation: until
/// `min_ops` are done, then while the next one is expected to end no more
/// than half an operation past the deadline.
bool keep_going(Clock::time_point start, double seconds, std::size_t done,
                std::size_t min_ops) {
  if (done < min_ops) return true;
  const double elapsed = seconds_since(start);
  return elapsed + 0.5 * elapsed / static_cast<double>(done) < seconds;
}

// --- replay: one throughput profile through harness::run_experiment ------

struct Profile {
  const char* workload;
  const char* app;
  ControlMode mode;
  double swipe_probability;  // < 0: the profile's own Monkey mix
};

constexpr Profile kProfiles[] = {
    {"replay_static_ui", "Auction", ControlMode::kSection, -1.0},
    {"replay_feed_scroll", "Facebook", ControlMode::kSection, 0.9},
    {"replay_game", "Jelly Splash", ControlMode::kSectionWithBoost, -1.0},
    {"replay_video", "MX Player", ControlMode::kSection, -1.0},
};

/// Paper-length Monkey sessions; every operation is a new session seed.
constexpr std::int64_t kReplaySessionSeconds = 180;
/// Sessions every run completes, whatever the time budget; the digest
/// covers exactly these.
constexpr std::size_t kReplayDigestPrefix = 4;

ExperimentConfig session_config(const Profile& p,
                                const ccdem::apps::AppSpec& app,
                                std::uint64_t seed, std::size_t index) {
  ExperimentConfig c;
  c.app = app;
  c.duration = ccdem::sim::seconds(kReplaySessionSeconds);
  c.seed = derived_seed(seed, index);
  c.mode = p.mode;
  return c;
}

ccdem::apps::AppSpec profile_app(const Profile& p) {
  const std::optional<ccdem::apps::AppSpec> spec =
      ccdem::apps::find_profile(p.app);
  if (!spec) throw std::runtime_error(std::string("no app profile ") + p.app);
  ccdem::apps::AppSpec app = *spec;
  if (p.swipe_probability >= 0.0) {
    app.monkey.swipe_probability = p.swipe_probability;
  }
  return app;
}

struct SessionRun {
  ExperimentResult result;
  ccdem::obs::Counters::Snapshot counters;
  double wall_s = 0.0;
};

/// One untraced session, counters on and spans off (bench_throughput's
/// measurement setting).
SessionRun run_session(ExperimentConfig cfg) {
  ccdem::obs::ObsSink sink;
  sink.spans.set_enabled(false);
  cfg.obs = &sink;
  SessionRun run;
  const Clock::time_point t0 = Clock::now();
  run.result = ccdem::harness::run_experiment(cfg);
  run.wall_s = seconds_since(t0);
  run.counters = sink.counters.snapshot();
  return run;
}

std::uint64_t session_digest(const SessionRun& run) {
  Digest d;
  fold_result(d, run.result);
  fold_counters(d, run.counters);
  return d.value();
}

Outcome replay(const Profile& p, const Options& o) {
  Outcome out;
  ccdem::apps::AppSpec app;
  std::vector<std::uint64_t> warm_digests;
  const double setup_s = repeated_setup(o, [&] {
    app = profile_app(p);
    // Warm-up is one fixed session (the same on every seed, so set-up time
    // does not depend on the seed); its repeats must agree bit for bit.
    const ExperimentConfig warm = session_config(p, app, 0, 0);
    if (auto err = ccdem::device::resolved_pipeline_spec(warm.device_config())
                       .validate()) {
      throw std::runtime_error("invalid pipeline: " + *err);
    }
    warm_digests.push_back(session_digest(run_session(warm)));
  });
  if (std::any_of(warm_digests.begin(), warm_digests.end(),
                  [&](std::uint64_t d) { return d != warm_digests.front(); })) {
    fail(out, "the warm-up session differs between repeats");
  }

  Digest digest;
  std::vector<double> walls;
  TraceSummary trace;
  const auto check = [&](std::size_t i, const SessionRun& run,
                         CounterTotals& counters) {
    const std::uint64_t dg = session_digest(run);
    if (run.result.frames_composed == 0) {
      fail(out, "session " + std::to_string(i) + " composed no frames");
    }
    if (i < kReplayDigestPrefix) digest.add(dg);
    counters.add(run.counters.counters);
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_going(start, o.seconds, i, kReplayDigestPrefix);
       ++i) {
    const ExperimentConfig cfg = session_config(p, app, o.seed, i);
    const std::uint64_t checks_before = out.failed_checks;
    if (!o.trace) {
      const SessionRun run = run_session(cfg);
      check(i, run, trace.counters);
      walls.push_back(run.wall_s);
      count_op(out, checks_before);
      continue;
    }
    // Traced: an untraced twin and a traced replica, alternating which runs
    // first, must agree on every result field and counter.
    ccdem::obs::ObsSink sink;
    sink.spans.set_enabled(false);
    ExperimentConfig traced_cfg = cfg;
    traced_cfg.obs = &sink;
    SessionRun ref;
    ExperimentResult traced;
    const auto run_replica = [&] {
      const std::int64_t before = trace.totals.wall_ns;
      traced = run_traced(traced_cfg, trace.totals);
      trace.traced_s += static_cast<double>(trace.totals.wall_ns - before) / 1e9;
    };
    if (i % 2 == 0) {
      ref = run_session(cfg);
      run_replica();
    } else {
      run_replica();
      ref = run_session(cfg);
    }
    trace.untraced_s += ref.wall_s;
    check(i, ref, trace.counters);
    if (auto d = chk::diff_results(ref.result, traced, "traced")) fail(out, *d);
    if (auto d = chk::diff_counters(ref.counters, sink.counters.snapshot(),
                                    "traced")) {
      fail(out, *d);
    }
    count_op(out, checks_before);
  }
  digest.add(warm_digests.front());
  out.sim_digest = digest.value();
  if (o.trace) {
    emit_layer_metrics(out, trace);
    return out;
  }
  double total = 0.0;
  for (double w : walls) total += w;
  const double n = static_cast<double>(walls.size());
  add_end_to_end(out, ratio(n, total),
                 ratio(n * static_cast<double>(kReplaySessionSeconds), total),
                 walls, setup_s, peak_rss_mb(/*children=*/false));
  return out;
}

// --- dst: ScenarioGen(seed) through check::check_scenario ----------------

constexpr std::size_t kDstScenarios = 400;
/// Scenarios every run completes, whatever the time budget; the digest
/// covers exactly these.
constexpr std::size_t kDstDigestPrefix = 16;

/// Scenario structures -- app, mode, grid, ladder, fault and pressure
/// plans, fleet arm, duration -- come from one fixed ScenarioGen stream,
/// and the workload seed re-seeds each scenario's simulation (Monkey
/// script, app, fault and pressure streams).  Structures drawn from
/// ScenarioGen(seed) itself differ up to 5x in cost per simulated second,
/// which put scenarios/s 23-28% apart across seeds.
constexpr std::uint64_t kDstStructureSeed = 1;

std::vector<chk::Scenario> dst_scenarios(std::uint64_t seed) {
  chk::ScenarioGen gen(kDstStructureSeed);
  std::vector<chk::Scenario> list;
  list.reserve(kDstScenarios);
  for (std::size_t i = 0; i < kDstScenarios; ++i) {
    chk::Scenario s = gen.next();
    s.seed = derived_seed(seed, i);
    std::string err;
    const std::optional<chk::Scenario> back =
        chk::parse_scenario(chk::scenario_to_string(s), &err);
    if (!back || !(*back == s) || !chk::find_app(s.app)) {
      throw std::runtime_error("generated scenario " + std::to_string(i) +
                               " does not round-trip: " + err);
    }
    list.push_back(std::move(s));
  }
  return list;
}

/// The traced twin of check::run_scenario_once's primary (culled, spans on,
/// hashed) arm.
chk::RunArtifacts run_scenario_traced(ExperimentConfig cfg,
                                      LayerTotals& totals) {
  ccdem::obs::ObsSink sink;
  sink.spans.set_enabled(true);
  cfg.obs = &sink;
  cfg.dpm.meter.damage_culling = true;
  cfg.governor.meter.damage_culling = true;
  cfg.tile_memo = true;
  cfg.hash_frames = true;
  chk::RunArtifacts out;
  out.result = run_traced(cfg, totals);
  const Clock::time_point t0 = Clock::now();
  out.counters = sink.counters.snapshot();
  out.spans = sink.spans.spans();
  out.trace_csv = ccdem::obs::trace_csv_to_string(out.spans, out.counters);
  const std::int64_t obs_ns = (Clock::now() - t0).count();
  totals.at(Layer::kObs) += obs_ns;
  totals.wall_ns += obs_ns;
  return out;
}

Outcome dst(const Options& o) {
  Outcome out;
  std::vector<chk::Scenario> list;
  const double setup_s = repeated_setup(o, [&] {
    list = dst_scenarios(o.seed);
    // Warm-up on the heaviest configuration the generator draws (full-grid
    // meter, fleet oracle arm), so the memory high-water mark is set here
    // and does not hinge on whether a seed's run happens to draw one.
    chk::Scenario warm;
    warm.grid = "full";
    warm.fleet = true;
    (void)chk::check_scenario(warm);
  });

  Digest digest;
  std::vector<double> walls;
  double sim_s = 0.0;
  TraceSummary trace;
  double check_s = 0.0;
  double once_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_going(start, o.seconds, i, kDstDigestPrefix);
       ++i) {
    const chk::Scenario& s = list[i % list.size()];
    const std::uint64_t checks_before = out.failed_checks;
    const Clock::time_point t0 = Clock::now();
    const chk::CheckReport report = chk::check_scenario(s);
    const double wall = seconds_since(t0);
    if (!report.ok()) {
      fail(out, "scenario " + std::to_string(i) + ": " +
                    report.failures.front());
    }
    if (i < kDstDigestPrefix) {
      digest.add(chk::scenario_to_string(s));
      digest.add(static_cast<std::uint64_t>(report.failures.size()));
      for (const std::string& f : report.failures) digest.add(f);
    }
    walls.push_back(wall);
    sim_s += static_cast<double>(s.duration_ms) / 1e3;
    if (!o.trace) {
      count_op(out, checks_before);
      continue;
    }

    // Traced: the primary oracle arm untraced and traced, alternating
    // order; results, counters and the serialized trace must agree.
    check_s += wall;
    const ExperimentConfig cfg = s.experiment_config();
    chk::RunArtifacts once;
    chk::RunArtifacts traced;
    const auto run_once = [&] {
      const Clock::time_point t1 = Clock::now();
      once = chk::run_scenario_once(cfg);
      once_s += seconds_since(t1);
    };
    const auto run_replica = [&] {
      const std::int64_t before = trace.totals.wall_ns;
      traced = run_scenario_traced(cfg, trace.totals);
      trace.traced_s += static_cast<double>(trace.totals.wall_ns - before) / 1e9;
    };
    if (i % 2 == 0) {
      run_once();
      run_replica();
    } else {
      run_replica();
      run_once();
    }
    trace.counters.add(once.counters.counters);
    if (auto d = chk::diff_results(once.result, traced.result, "traced")) {
      fail(out, *d);
    }
    if (auto d = chk::diff_counters(once.counters, traced.counters, "traced")) {
      fail(out, *d);
    }
    if (once.trace_csv != traced.trace_csv) {
      fail(out, "traced: serialized obs trace differs");
    }
    count_op(out, checks_before);
  }
  out.sim_digest = digest.value();
  if (o.trace) {
    trace.untraced_s = once_s;
    trace.arms_per_scenario = ratio(check_s, once_s);
    emit_layer_metrics(out, trace);
    return out;
  }
  double total = 0.0;
  for (double w : walls) total += w;
  add_end_to_end(out, ratio(static_cast<double>(walls.size()), total),
                 ratio(sim_s, total), walls, setup_s,
                 peak_rss_mb(/*children=*/false));
  return out;
}

// --- campaign: the paper's matrix through campaign::run_campaign ---------

cmp::CampaignSpec campaign_spec(std::uint64_t seed) {
  cmp::CampaignSpec spec;
  spec.apps.clear();
  for (const ccdem::apps::AppSpec& a : ccdem::apps::all_apps()) {
    spec.apps.push_back(a.name);
  }
  spec.modes = {"section", "section+boost"};
  spec.grids = {"9k"};
  spec.fault_scales = {0.0};
  const std::uint64_t s0 = derived_seed(seed, 0);
  spec.seeds = {s0};
  spec.duration_ms = 30000;
  spec.ab = true;
  // Fine shards keep the two workers balanced (apps vary slowest in the
  // matrix, so coarse shards group the costly games at the end).
  spec.shards = 20;
  if (auto err = spec.validate()) {
    throw std::runtime_error("invalid campaign spec: " + *err);
  }
  return spec;
}

cmp::CampaignOptions campaign_options(const Options& o) {
  cmp::CampaignOptions opt;
  opt.workers = static_cast<int>(o.workers);
  opt.worker.threads = 1;
  return opt;
}

std::optional<std::vector<cmp::Record>> load_records(const fs::path& path) {
  const std::optional<std::string> bytes = cmp::load_file(path);
  if (!bytes) return std::nullopt;
  return cmp::decode_all(*bytes);
}

/// The paper's Fig. 9 / Fig. 11 headline numbers from the +boost records.
void paper_metrics(Outcome& out, const std::vector<cmp::ResultRecord>& recs) {
  struct PerApp {
    double saved_mw = 0.0;
    double quality = 0.0;
    int n = 0;
  };
  std::map<std::string, PerApp> apps;
  for (const cmp::ResultRecord& r : recs) {
    if (r.mode != "section+boost" || !r.has_ab) continue;
    // saved % is relative to the baseline arm: P_base = P / (1 - pct/100).
    const double saved_mw =
        r.mean_power_mw * r.saved_power_pct / (100.0 - r.saved_power_pct);
    PerApp& a = apps[r.app];
    a.saved_mw += saved_mw;
    a.quality += r.quality_pct;
    ++a.n;
  }
  double general = 0.0, games = 0.0;
  int n_general = 0, n_games = 0, good_quality = 0;
  for (const auto& [name, a] : apps) {
    const double saved = a.saved_mw / a.n;
    if (ccdem::apps::app_by_name(name).category ==
        ccdem::apps::AppSpec::Category::kGame) {
      games += saved;
      ++n_games;
    } else {
      general += saved;
      ++n_general;
    }
    if (a.quality / a.n >= 95.0) ++good_quality;
  }
  general = ratio(general, n_general);
  games = ratio(games, n_games);
  out.extra.push_back({"paper.saved_mw.general", general, "mW"});
  out.extra.push_back({"paper.saved_mw.games", games, "mW"});
  out.extra.push_back(
      {"paper.saved_mw_err_pct",
       (std::fabs(general - 120.0) / 120.0 + std::fabs(games - 290.0) / 290.0) /
           2.0 * 100.0,
       "%"});
  out.extra.push_back(
      {"paper.quality_ge95_frac",
       ratio(good_quality, static_cast<double>(apps.size())), "share"});
}

/// Result records of every shard file in `dir`, in scenario-index order.
std::vector<cmp::ResultRecord> shard_results(const cmp::CampaignSpec& spec,
                                             const fs::path& dir,
                                             Digest* digest) {
  std::vector<cmp::ResultRecord> out;
  for (int s = 0; s < spec.shards; ++s) {
    const auto records = load_records(dir / cmp::shard_file_name(s));
    if (!records) continue;
    for (const cmp::Record& r : *records) {
      if (const auto* rr = std::get_if<cmp::ResultRecord>(&r)) {
        if (digest != nullptr) digest->add(cmp::encode_record(r));
        out.push_back(*rr);
      }
    }
  }
  return out;
}

/// Serial, in-process shards, shard-file encode/decode/merge and traced
/// replicas of shard 0: the campaign's per-layer split.
void campaign_layers(Outcome& out, const cmp::CampaignSpec& spec,
                     const Options& o, const fs::path& parallel_dir,
                     double parallel_s, TraceSummary& trace) {
  CampaignLayer& c = trace.campaign;
  const fs::path serial_dir = o.workdir / "campaign_serial";
  fs::remove_all(serial_dir);
  fs::create_directories(serial_dir);
  cmp::WorkerOptions wopt;
  wopt.threads = 1;
  double shard_sum_s = 0.0;
  std::vector<std::string> files;
  std::uint64_t bytes = 0;
  for (int s = 0; s < spec.shards; ++s) {
    const Clock::time_point t0 = Clock::now();
    const cmp::ShardOutcome so = cmp::run_shard(spec, s, serial_dir, wopt);
    shard_sum_s += seconds_since(t0);
    const auto serial =
        cmp::load_file(serial_dir / cmp::shard_file_name(s));
    const auto parallel =
        cmp::load_file(parallel_dir / cmp::shard_file_name(s));
    if (!so.ok || !serial || !parallel || *serial != *parallel) {
      fail(out, "shard " + std::to_string(s) +
                    " differs between the serial and the worker run");
      continue;
    }
    bytes += serial->size();
    files.push_back(*serial);
  }
  c.shard_ms = shard_sum_s / spec.shards * 1e3;
  c.bytes_per_run = ratio(static_cast<double>(bytes),
                          static_cast<double>(spec.size()));
  c.parallel_efficiency = ratio(shard_sum_s, o.workers * parallel_s);

  // Decode, re-encode and merge the real shard files; repeated until the
  // timing is well above clock resolution.
  const auto merged_file =
      load_records(parallel_dir / cmp::aggregates_file_name());
  std::optional<cmp::Aggregates> expected;
  if (merged_file) {
    for (const cmp::Record& r : *merged_file) {
      if (const auto* a = std::get_if<cmp::AggregateRecord>(&r)) {
        expected = cmp::Aggregates::decode(a->payload);
      }
    }
  }
  std::int64_t decode_ns = 0, encode_ns = 0, merge_ns = 0;
  std::uint64_t records = 0;
  int passes = 0;
  const Clock::time_point io_start = Clock::now();
  while (passes < 3 || seconds_since(io_start) < 0.3) {
    cmp::Aggregates merged;
    for (const std::string& file : files) {
      Clock::time_point t0 = Clock::now();
      const auto decoded = cmp::decode_all(file);
      decode_ns += (Clock::now() - t0).count();
      if (!decoded) {
        fail(out, "shard file does not decode");
        return;
      }
      std::vector<cmp::Record> body;
      for (const cmp::Record& r : *decoded) {
        if (!std::holds_alternative<cmp::ShardEndRecord>(r)) body.push_back(r);
      }
      t0 = Clock::now();
      const std::string again = cmp::encode_all(body);
      encode_ns += (Clock::now() - t0).count();
      records += decoded->size();
      t0 = Clock::now();
      for (const cmp::Record& r : body) {
        if (const auto* a = std::get_if<cmp::AggregateRecord>(&r)) {
          if (auto agg = cmp::Aggregates::decode(a->payload)) merged.merge(*agg);
        }
      }
      merge_ns += (Clock::now() - t0).count();
      if (passes > 0) continue;
      if (again != file) fail(out, "shard re-encode differs");
      for (const cmp::Record& r : body) {
        if (const auto* k = std::get_if<cmp::CountersRecord>(&r)) {
          trace.counters.add(k->counters);
        }
      }
    }
    if (passes == 0 && (!expected || !(merged == *expected))) {
      fail(out, "merged shard aggregates differ from aggregates.bin");
    }
    ++passes;
  }
  c.decode_ns_per_record = ratio(static_cast<double>(decode_ns),
                                 static_cast<double>(records));
  c.encode_ns_per_record = ratio(static_cast<double>(encode_ns),
                                 static_cast<double>(records));
  c.merge_ms = static_cast<double>(merge_ns) / passes / 1e6;
  const std::int64_t io_ns = (decode_ns + encode_ns + merge_ns) / passes;

  // The first scenarios replayed as a worker runs them (controlled then
  // baseline arm on one pooled device), untraced and traced on twin devices.
  const std::vector<cmp::ResultRecord> recorded =
      shard_results(spec, parallel_dir, nullptr);
  ccdem::device::SimulatedDevice plain(/*use_buffer_pool=*/true);
  ccdem::device::SimulatedDevice traced_dev(/*use_buffer_pool=*/true);
  for (std::uint64_t idx = 0; idx < std::min<std::uint64_t>(8, spec.size());
       ++idx) {
    const std::uint64_t checks_before = out.failed_checks;
    const chk::Scenario sc = spec.scenario_at(idx);
    ExperimentConfig arms[2] = {sc.experiment_config(), sc.experiment_config()};
    arms[1].mode = ControlMode::kBaseline60;
    ExperimentResult ref[2], traced[2];
    for (int a = 0; a < 2; ++a) {
      ccdem::obs::ObsSink ref_sink, traced_sink;
      ref_sink.spans.set_enabled(false);
      traced_sink.spans.set_enabled(false);
      ExperimentConfig rc = arms[a], tc = arms[a];
      rc.obs = &ref_sink;
      tc.obs = &traced_sink;
      const auto run_ref = [&] {
        const Clock::time_point t0 = Clock::now();
        ref[a] = ccdem::harness::run_experiment_on(plain, rc);
        trace.untraced_s += seconds_since(t0);
      };
      const auto run_rep = [&] {
        const std::int64_t before = trace.totals.wall_ns;
        traced[a] = run_traced(tc, trace.totals, &traced_dev);
        trace.traced_s +=
            static_cast<double>(trace.totals.wall_ns - before) / 1e9;
      };
      if (idx % 2 == 0) {
        run_ref();
        run_rep();
      } else {
        run_rep();
        run_ref();
      }
      if (auto d = chk::diff_results(ref[a], traced[a], "traced")) {
        fail(out, *d);
      }
      if (auto d = chk::diff_counters(ref_sink.counters.snapshot(),
                                      traced_sink.counters.snapshot(),
                                      "traced", {"pool."})) {
        fail(out, *d);
      }
    }
    cmp::ResultRecord rec = cmp::make_result_record(idx, sc, traced[0]);
    rec.has_ab = true;
    rec.saved_power_pct =
        traced[1].mean_power_mw > 0.0
            ? (traced[1].mean_power_mw - traced[0].mean_power_mw) /
                  traced[1].mean_power_mw * 100.0
            : 0.0;
    rec.quality_pct = ccdem::metrics::compare_quality(traced[1].content_rate,
                                                      traced[0].content_rate)
                          .display_quality_pct;
    if (idx >= recorded.size() || !(recorded[idx] == rec)) {
      fail(out, "traced replica of scenario " + std::to_string(idx) +
                    " differs from its shard record");
    }
    count_op(out, checks_before);
  }
  trace.totals.at(Layer::kCampaign) += io_ns;
  trace.totals.wall_ns += io_ns;
  fs::remove_all(serial_dir);
}

/// The merged aggregate payload run_campaign wrote to aggregates.bin.
std::optional<std::string> aggregate_payload(const fs::path& dir) {
  const auto records = load_records(dir / cmp::aggregates_file_name());
  if (!records) return std::nullopt;
  for (const cmp::Record& r : *records) {
    if (const auto* a = std::get_if<cmp::AggregateRecord>(&r)) {
      return a->payload;
    }
  }
  return std::nullopt;
}

Outcome campaign(const Options& o) {
  Outcome out;
  cmp::CampaignSpec spec;
  const cmp::CampaignOptions opt = campaign_options(o);
  const double setup_s = repeated_setup(o, [&] {
    spec = campaign_spec(o.seed);
    // Warm the whole path (fork, shard files, merge) on a fixed two-run
    // campaign, the same on every seed.
    cmp::CampaignSpec warm = spec;
    warm.apps = {"Facebook", "Jelly Splash"};
    warm.modes = {"section+boost"};
    warm.seeds = {1};
    warm.shards = 2;
    const fs::path dir = o.workdir / "warmup";
    fs::remove_all(dir);
    const cmp::CampaignResult r = cmp::run_campaign(warm, dir, opt);
    if (!r.complete) throw std::runtime_error("warm-up campaign: " + r.error);
    fs::remove_all(dir);
  });

  std::vector<double> walls;
  std::optional<std::string> first_aggregate;
  TraceSummary trace;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; keep_going(start, o.seconds, i, 1); ++i) {
    const fs::path dir = o.workdir / ("campaign_" + std::to_string(i));
    const std::uint64_t checks_before = out.failed_checks;
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    const cmp::CampaignResult res = cmp::run_campaign(spec, dir, opt);
    const double wall = seconds_since(t0);
    walls.push_back(wall);
    const std::uint64_t lost = spec.size() - std::min(res.runs, spec.size());
    if (!res.complete || lost != 0) {
      fail(out, "campaign incomplete (" + std::to_string(lost) +
                    " runs missing or quarantined): " + res.error);
    }
    const std::optional<std::string> aggregate = aggregate_payload(dir);
    if (!aggregate) {
      fail(out, "no merged aggregate");
    } else if (!first_aggregate) {
      first_aggregate = aggregate;
      Digest digest;
      digest.add(*aggregate);
      const std::vector<cmp::ResultRecord> recs =
          shard_results(spec, dir, &digest);
      out.sim_digest = digest.value();
      if (recs.size() != spec.size()) {
        fail(out, "shard files hold " + std::to_string(recs.size()) +
                      " results, expected " + std::to_string(spec.size()));
      }
      for (std::size_t j = 0; j < recs.size(); ++j) {
        if (recs[j].scenario_index != j || !recs[j].has_ab) {
          fail(out, "result record " + std::to_string(j) + " out of order");
          break;
        }
      }
      paper_metrics(out, recs);
      if (o.trace) campaign_layers(out, spec, o, dir, wall, trace);
    } else if (*aggregate != *first_aggregate) {
      fail(out, "merged aggregate differs between repeats");
    }
    // Runs are the operations: the missing or quarantined ones failed, and
    // so did every run of a campaign whose output failed a check.
    out.attempted += spec.size();
    out.failed += out.failed_checks > checks_before + (lost != 0 ? 1 : 0)
                      ? spec.size()
                      : lost;
    fs::remove_all(dir);
    if (o.trace) break;
  }
  if (o.trace) {
    emit_layer_metrics(out, trace);
    return out;
  }
  // A campaign's wall time is set by its slowest worker, so one slow
  // worker moves a single campaign a lot: report the median campaign.
  const double per_campaign = static_cast<double>(spec.size());
  const double med_wall = median(walls);
  add_end_to_end(out, ratio(per_campaign, med_wall),
                 ratio(per_campaign * static_cast<double>(spec.duration_ms) / 1e3,
                       med_wall),
                 walls, setup_s, peak_rss_mb(/*children=*/true));
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Profile& p : kProfiles) v.emplace_back(p.workload);
    v.emplace_back("dst");
    v.emplace_back("campaign");
    return v;
  }();
  return names;
}

Outcome run_workload(const Options& options) {
  Outcome out;
  if (options.workload == "dst") {
    out = dst(options);
  } else if (options.workload == "campaign") {
    out = campaign(options);
  } else {
    const auto* p = std::find_if(
        std::begin(kProfiles), std::end(kProfiles),
        [&](const Profile& x) { return options.workload == x.workload; });
    if (p == std::end(kProfiles)) {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    out = replay(*p, options);
  }
  out.correct = out.failed_checks == 0;
  return out;
}

}  // namespace perfbench
