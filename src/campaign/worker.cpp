#include "campaign/worker.h"

#include <signal.h>  // NOLINT(modernize-deprecated-headers): sigaction

#include <algorithm>
#include <cassert>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <sstream>

#include "campaign/aggregates.h"
#include "campaign/io_util.h"
#include "check/dst.h"
#include "device/control_mode.h"
#include "harness/experiment.h"
#include "harness/fleet.h"
#include "obs/obs.h"
#include "sim/key_value.h"

namespace ccdem::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* kProgressSchema = "ccdem-campaign-progress-v1";
constexpr const char* kFailSchema = "ccdem-campaign-fail-v1";

ShardOutcome fail_outcome(std::string why) {
  ShardOutcome out;
  out.error = std::move(why);
  return out;
}

volatile std::sig_atomic_t g_drain_requested = 0;

void request_drain(int) { g_drain_requested = 1; }

/// Installs the drain handler for SIGTERM and restores the previous
/// disposition on scope exit, so run_shard can be called in-process (tests)
/// without leaking handler state.
class ScopedSigterm {
 public:
  ScopedSigterm() {
    g_drain_requested = 0;
    struct sigaction sa = {};
    sa.sa_handler = request_drain;
    sigemptyset(&sa.sa_mask);
    installed_ = sigaction(SIGTERM, &sa, &prev_) == 0;
  }
  ~ScopedSigterm() {
    if (installed_) sigaction(SIGTERM, &prev_, nullptr);
  }
  ScopedSigterm(const ScopedSigterm&) = delete;
  ScopedSigterm& operator=(const ScopedSigterm&) = delete;

 private:
  struct sigaction prev_ = {};
  bool installed_ = false;
};

}  // namespace

std::string shard_fail_name(int shard) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "shard_%04d.fail", shard);
  return buf;
}

std::string progress_to_string(int shard,
                               const std::vector<std::uint64_t>& inflight) {
  std::ostringstream os;
  os << "schema = " << kProgressSchema << "\n";
  os << "shard = " << shard << "\n";
  os << "inflight =";
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    os << (i == 0 ? " " : ",") << inflight[i];
  }
  os << "\n";
  return os.str();
}

std::optional<std::vector<std::uint64_t>> parse_progress(
    const std::string& text) {
  const auto entries = sim::kv::read(text);
  if (!entries) return std::nullopt;
  bool saw_schema = false;
  std::optional<std::vector<std::uint64_t>> inflight;
  for (const sim::kv::Entry& e : *entries) {
    if (e.key == "schema") {
      if (e.value != kProgressSchema) return std::nullopt;
      saw_schema = true;
    } else if (e.key == "shard") {
      if (!sim::kv::parse_u64(e.value)) return std::nullopt;
    } else if (e.key == "inflight") {
      inflight.emplace();
      if (e.value.empty()) continue;  // nothing in flight
      for (const std::string& item : sim::kv::split_list(e.value)) {
        const auto idx = sim::kv::parse_u64(item);
        if (!idx) return std::nullopt;
        inflight->push_back(*idx);
      }
    } else {
      return std::nullopt;
    }
  }
  if (!saw_schema || !inflight) return std::nullopt;
  return inflight;
}

std::string fail_to_string(const FailSidecar& f) {
  std::ostringstream os;
  os << "schema = " << kFailSchema << "\n";
  os << "index = " << f.index << "\n";
  os << "reason = " << f.reason << "\n";
  return os.str();
}

std::optional<FailSidecar> parse_fail(const std::string& text) {
  const auto entries = sim::kv::read(text);
  if (!entries) return std::nullopt;
  bool saw_schema = false, saw_index = false;
  FailSidecar f;
  for (const sim::kv::Entry& e : *entries) {
    if (e.key == "schema") {
      if (e.value != kFailSchema) return std::nullopt;
      saw_schema = true;
    } else if (e.key == "index") {
      const auto idx = sim::kv::parse_u64(e.value);
      if (!idx) return std::nullopt;
      f.index = *idx;
      saw_index = true;
    } else if (e.key == "reason") {
      f.reason = e.value;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_schema || !saw_index) return std::nullopt;
  return f;
}

std::vector<RungResidency> compute_residency(const sim::Trace& refresh,
                                             sim::Duration duration) {
  std::vector<RungResidency> out;
  const auto& pts = refresh.points();
  if (pts.empty() || duration.ticks <= 0) return out;
  const sim::Time end{duration.ticks};
  // Step-hold semantics matching Trace::time_weighted_mean: time before the
  // first point is weighted with the first point's value.
  std::map<int, double> secs;
  sim::Time cursor{0};
  double value = pts.front().value;
  for (const sim::TracePoint& p : pts) {
    if (p.t >= end) break;
    if (p.t > cursor) {
      secs[static_cast<int>(std::lround(value))] += (p.t - cursor).seconds();
      cursor = p.t;
    }
    value = p.value;  // same-timestamp points: last one wins
  }
  if (cursor < end) {
    secs[static_cast<int>(std::lround(value))] += (end - cursor).seconds();
  }
  out.reserve(secs.size());
  for (const auto& [hz, s] : secs) out.push_back(RungResidency{hz, s});
  return out;
}

ResultRecord make_result_record(std::uint64_t index,
                                const check::Scenario& sc,
                                const harness::ExperimentResult& r) {
  ResultRecord rec;
  rec.scenario_index = index;
  rec.app = sc.app;
  rec.mode = device::control_mode_keyword(sc.mode);
  rec.seed = sc.seed;
  rec.duration_ms = sc.duration_ms;
  rec.mean_power_mw = r.mean_power_mw;
  rec.mean_refresh_hz = r.mean_refresh_hz;
  rec.meter_error_rate = r.meter_error_rate;
  rec.response_mean_ms = r.response_mean_ms;
  rec.frames_composed = r.frames_composed;
  rec.content_frames = r.content_frames;
  rec.frames_posted = r.frames_posted;
  rec.rate_switches = r.rate_switches;
  rec.final_frame_hash = r.final_frame_hash;
  rec.residency = compute_residency(r.refresh_rate, sc.duration());
  return rec;
}

ShardOutcome run_shard(const CampaignSpec& spec, int shard,
                       const fs::path& dir, const WorkerOptions& options) {
  const ShardRange range = shard_range(spec, shard);
  const fs::path final_path = dir / shard_file_name(shard);
  const fs::path tmp_path = final_path.string() + ".tmp";
  const fs::path progress_path = dir / shard_progress_name(shard);
  const fs::path fail_path = dir / shard_fail_name(shard);

  // The scenario indices this invocation actually runs.
  std::vector<std::uint64_t> pending;
  pending.reserve(range.size());
  for (std::uint64_t i = range.begin; i < range.end; ++i) {
    if (!std::binary_search(options.skip.begin(), options.skip.end(), i)) {
      pending.push_back(i);
    }
  }

  ScopedSigterm sigterm_guard;

  io::FdOStream os(tmp_path);
  if (!os) return fail_outcome("cannot open " + tmp_path.string());
  BinWriter writer(os);

  Aggregates agg;
  obs::Counters total_counters;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, options.chunk);

  // Finishes the `.tmp` file (counters, aggregate, checksummed end marker)
  // without renaming it, and records `remaining` -- the indices this
  // invocation never ran -- in the `.progress` sidecar.  Shared by the
  // normal completion path (remaining empty, file renamed by the caller
  // below) and the SIGTERM drain.
  const auto finalize = [&]() -> std::optional<ShardOutcome> {
    CountersRecord counters;
    counters.counters = total_counters.snapshot().counters;
    writer.write(counters);
    agg.add_counters(counters);
    writer.write(AggregateRecord{agg.encode()});
    writer.write_end();
    os.flush();
    if (!os) {
      return fail_outcome("write failed for " + tmp_path.string());
    }
    os.close();
    return std::nullopt;
  };

  const auto drain = [&](std::vector<std::uint64_t> remaining)
      -> ShardOutcome {
    if (auto failed = finalize()) return *failed;
    if (std::string err;
        !save_file_atomic(progress_path, progress_to_string(shard, remaining),
                          &err)) {
      return fail_outcome(err);
    }
    ShardOutcome out;
    out.ok = true;
    out.interrupted = true;
    out.results = writer.results_written();
    out.bytes = writer.bytes_written();
    return out;
  };
  const auto remaining_from = [&](std::uint64_t next) {
    return std::vector<std::uint64_t>(
        pending.begin() + static_cast<std::ptrdiff_t>(next), pending.end());
  };

  for (std::uint64_t off = 0; off < pending.size(); off += chunk) {
    if (g_drain_requested) return drain(remaining_from(off));
    const std::uint64_t n =
        std::min<std::uint64_t>(chunk, pending.size() - off);
    const std::vector<std::uint64_t> inflight(
        pending.begin() + static_cast<std::ptrdiff_t>(off),
        pending.begin() + static_cast<std::ptrdiff_t>(off + n));
    if (std::string err;
        !save_file_atomic(progress_path, progress_to_string(shard, inflight),
                          &err)) {
      return fail_outcome(err);
    }

    std::vector<check::Scenario> scenarios;
    scenarios.reserve(inflight.size());
    for (const std::uint64_t idx : inflight) {
      if (options.run_hook) options.run_hook(idx);
      scenarios.push_back(spec.scenario_at(idx));
    }

    if (spec.oracles) {
      for (std::size_t j = 0; j < scenarios.size(); ++j) {
        const check::CheckReport report =
            check::check_scenario(scenarios[j]);
        if (!report.ok()) {
          FailSidecar f;
          f.index = inflight[j];
          f.reason = report.failures.front();
          std::string err;
          if (!save_file_atomic(fail_path, fail_to_string(f), &err)) {
            return fail_outcome(err);
          }
          ShardOutcome out;
          out.error = "oracle failure at scenario " + std::to_string(f.index);
          out.failed_index = f.index;
          out.failure = f.reason;
          return out;
        }
      }
    }

    if (spec.record_spans) {
      // Serial, one sink per run, spans on.
      for (std::size_t j = 0; j < scenarios.size(); ++j) {
        obs::ObsSink sink;
        harness::ExperimentConfig cfg = scenarios[j].experiment_config();
        cfg.obs = &sink;
        const harness::ExperimentResult res = harness::run_experiment(cfg);
        ResultRecord rec =
            make_result_record(inflight[j], scenarios[j], res);
        if (spec.ab) {
          obs::ObsSink bsink;
          harness::ExperimentConfig bcfg = cfg;
          bcfg.mode = device::ControlMode::kBaseline60;
          bcfg.obs = &bsink;
          const harness::ExperimentResult base = harness::run_experiment(bcfg);
          rec.has_ab = true;
          rec.saved_power_pct =
              base.mean_power_mw > 0.0
                  ? (base.mean_power_mw - res.mean_power_mw) /
                        base.mean_power_mw * 100.0
                  : 0.0;
          rec.quality_pct =
              metrics::compare_quality(base.content_rate, res.content_rate)
                  .display_quality_pct;
          total_counters.merge(bsink.counters);
        }
        writer.write(rec);
        agg.add(rec);
        writer.write(SpansRecord{sink.spans.spans()});
        total_counters.merge(sink.counters);
        if (options.kill_after_runs != 0 &&
            writer.results_written() >= options.kill_after_runs) {
          os.flush();
          std::raise(SIGKILL);
        }
        // The in-flight record is on disk; a requested drain stops here
        // (unless it was the last record anyway -- then finish normally).
        if (g_drain_requested && off + j + 1 < pending.size()) {
          return drain(remaining_from(off + j + 1));
        }
      }
      continue;
    }

    // Fleet path: one sweep per chunk; with A/B, the baseline arm rides in
    // the same sweep (configs [c0, b0, c1, b1, ...], results in order).
    std::vector<harness::ExperimentConfig> configs;
    configs.reserve(scenarios.size() * (spec.ab ? 2 : 1));
    for (const check::Scenario& sc : scenarios) {
      harness::ExperimentConfig cfg = sc.experiment_config();
      configs.push_back(cfg);
      if (spec.ab) {
        cfg.mode = device::ControlMode::kBaseline60;
        configs.push_back(cfg);
      }
    }
    harness::FleetRunner fleet(options.threads);
    const std::vector<harness::ExperimentResult> results = fleet.run(configs);
    total_counters.merge(fleet.stats().counters);

    for (std::size_t j = 0; j < scenarios.size(); ++j) {
      const std::size_t stride = spec.ab ? 2 : 1;
      const harness::ExperimentResult& res = results[j * stride];
      ResultRecord rec = make_result_record(inflight[j], scenarios[j], res);
      if (spec.ab) {
        const harness::ExperimentResult& base = results[j * stride + 1];
        rec.has_ab = true;
        rec.saved_power_pct =
            base.mean_power_mw > 0.0
                ? (base.mean_power_mw - res.mean_power_mw) /
                      base.mean_power_mw * 100.0
                : 0.0;
        rec.quality_pct =
            metrics::compare_quality(base.content_rate, res.content_rate)
                .display_quality_pct;
      }
      writer.write(rec);
      agg.add(rec);
      if (options.kill_after_runs != 0 &&
          writer.results_written() >= options.kill_after_runs) {
        os.flush();
        std::raise(SIGKILL);
      }
    }
    // The whole chunk's records are on disk; a drain stops before the next
    // fleet sweep starts.
    if (g_drain_requested && off + chunk < pending.size()) {
      return drain(remaining_from(off + chunk));
    }
  }

  if (auto failed = finalize()) return *failed;

  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return fail_outcome("rename to " + final_path.string() +
                        " failed: " + ec.message());
  }
  fs::remove(progress_path, ec);  // best-effort

  ShardOutcome out;
  out.ok = true;
  out.results = writer.results_written();
  out.bytes = writer.bytes_written();
  return out;
}

}  // namespace ccdem::campaign
