#include "campaign/coordinator.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <variant>

#include "check/minimizer.h"
#include "harness/experiment.h"
#include "harness/json_writer.h"

namespace ccdem::campaign {

namespace fs = std::filesystem;

namespace {

void log_line(std::ostream* log, const std::string& s) {
  if (log != nullptr) *log << s << "\n";
}

std::string crash_reason(int status) {
  if (WIFSIGNALED(status)) {
    return "crashed (signal " + std::to_string(WTERMSIG(status)) + ")";
  }
  return "worker exited with code " +
         std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
}

struct ShardVerify {
  bool ok = false;
  std::string error;
  Aggregates agg;
  std::uint64_t results = 0;
  std::uint64_t bytes = 0;
};

/// Streams a shard file in O(1) memory: recompute the aggregate from the
/// records, demand the verified end marker, and cross-check the recomputed
/// aggregate against the one the worker embedded.
ShardVerify verify_shard_file(const fs::path& path) {
  ShardVerify v;
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    v.error = "cannot open " + path.string();
    return v;
  }
  BinReader reader(is);
  Aggregates recomputed;
  std::optional<Aggregates> embedded;
  while (auto rec = reader.next()) {
    if (const auto* r = std::get_if<ResultRecord>(&*rec)) {
      recomputed.add(*r);
    } else if (const auto* c = std::get_if<CountersRecord>(&*rec)) {
      recomputed.add_counters(*c);
    } else if (const auto* a = std::get_if<AggregateRecord>(&*rec)) {
      std::string err;
      embedded = Aggregates::decode(a->payload, &err);
      if (!embedded) {
        v.error = path.string() + ": bad aggregate record: " + err;
        return v;
      }
    }
  }
  if (!reader.ok()) {
    v.error = path.string() + ": " + reader.error();
    return v;
  }
  if (!reader.complete()) {
    v.error = path.string() + ": truncated (no verified end marker)";
    return v;
  }
  if (!embedded) {
    v.error = path.string() + ": missing aggregate record";
    return v;
  }
  if (!(*embedded == recomputed)) {
    v.error = path.string() + ": embedded aggregate disagrees with records";
    return v;
  }
  v.ok = true;
  v.agg = std::move(recomputed);
  v.results = reader.results_seen();
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  v.bytes = ec ? 0 : static_cast<std::uint64_t>(size);
  return v;
}

pid_t fork_worker(const CampaignSpec& spec, int shard, const fs::path& dir,
                  const WorkerOptions& wopts) {
  std::fflush(nullptr);  // no double-flush of buffered output in the child
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const ShardOutcome out = run_shard(spec, shard, dir, wopts);
  _exit(out.ok ? kWorkerExitOk : kWorkerExitError);
}

/// Re-runs one scenario in a forked child; false = it killed the child.
bool survives_in_isolation(const CampaignSpec& spec, std::uint64_t index,
                           const WorkerOptions& wopts) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return true;  // cannot isolate; presume innocent
  if (pid == 0) {
    if (wopts.run_hook) wopts.run_hook(index);
    const check::Scenario sc = spec.scenario_at(index);
    (void)harness::run_experiment(sc.experiment_config());
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Minimizer predicate for crashing scenarios: every candidate runs in its
/// own forked child (with the original index's run_hook, so hook-simulated
/// crashes reproduce), and an abnormal exit counts as "still fails".
check::FailurePredicate fork_crash_predicate(std::uint64_t index,
                                             const WorkerOptions& wopts) {
  return [index, hook = wopts.run_hook](
             const check::Scenario& sc) -> std::optional<std::string> {
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) return std::nullopt;
    if (pid == 0) {
      if (hook) hook(index);
      (void)harness::run_experiment(sc.experiment_config());
      _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return std::nullopt;
    return crash_reason(status);
  };
}

void quarantine_scenario(const CampaignSpec& spec, Manifest& manifest,
                         std::uint64_t index, const std::string& reason,
                         const fs::path& dir, const CampaignOptions& options,
                         CampaignResult& result) {
  const check::Scenario sc = spec.scenario_at(index);
  check::Scenario min_sc = sc;
  std::vector<std::string> failures = {reason};
  check::MinimizeOptions mo;
  mo.max_attempts = 60;  // a campaign should not stall on one repro
  const check::MinimizeResult mr = check::minimize_scenario(
      sc, fork_crash_predicate(index, options.worker), mo);
  if (!mr.failure.empty()) {
    min_sc = mr.scenario;
    failures.push_back(mr.failure);
  }
  const fs::path repro = dir / ("scenario_" + std::to_string(index) + ".repro");
  if (std::string err; save_file_atomic(
          repro, check::repro_to_string(min_sc, failures), &err)) {
    result.repro_files.push_back(repro.string());
  } else {
    log_line(options.log, "repro write failed: " + err);
  }
  manifest.quarantined.push_back(Manifest::Quarantine{index, reason});
  log_line(options.log, "quarantined scenario " + std::to_string(index) +
                            ": " + reason);
}

}  // namespace

std::string manifest_file_name() { return "manifest.txt"; }
std::string aggregates_file_name() { return "aggregates.bin"; }
std::string summary_file_name() { return "summary.json"; }

long peak_rss_kb() {
#if defined(__linux__)
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
#endif
  return 0;
}

CampaignResult run_campaign(const CampaignSpec& spec, const fs::path& dir,
                            const CampaignOptions& options) {
  CampaignResult result;
  if (const auto why = spec.validate()) {
    result.error = "invalid campaign: " + *why;
    return result;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path manifest_path = dir / manifest_file_name();

  Manifest manifest;
  if (options.resume) {
    const auto text = load_file(manifest_path);
    if (!text) {
      result.error = "resume: no manifest at " + manifest_path.string();
      return result;
    }
    std::string err;
    auto m = Manifest::parse(*text, &err);
    if (!m) {
      result.error = "resume: " + err;
      return result;
    }
    if (m->fingerprint != spec.fingerprint()) {
      result.error = "resume: manifest fingerprint mismatch (different "
                     "campaign matrix)";
      return result;
    }
    // The fingerprint pins the spec text, not the manifest's own rows.
    if (m->shards != spec.shards || m->scenarios != spec.size()) {
      result.error = "resume: manifest shard or scenario count differs from "
                     "the campaign spec";
      return result;
    }
    manifest = std::move(*m);
  } else {
    manifest = Manifest::fresh(spec);
  }

  auto save_manifest = [&]() -> bool {
    std::string err;
    if (!save_file_atomic(manifest_path, manifest.to_string(), &err)) {
      result.error = err;
      return false;
    }
    return true;
  };
  if (!save_manifest()) return result;

  struct Running {
    pid_t pid;
    int shard;
  };
  std::vector<Running> running;
  // Per-invocation launch counts: the persisted attempts survive resume for
  // audit, but the retry budget resets with each invocation.
  std::vector<int> launches(static_cast<std::size_t>(manifest.shards), 0);
  const int max_workers = std::max(1, options.workers);

  auto next_pending = [&]() -> int {
    for (int s = 0; s < manifest.shards; ++s) {
      if (manifest.shard_rows[static_cast<std::size_t>(s)].done) continue;
      if (launches[static_cast<std::size_t>(s)] >
          options.max_shard_retries) {
        continue;  // budget spent this invocation
      }
      bool in_flight = false;
      for (const Running& r : running) in_flight |= r.shard == s;
      if (!in_flight) return s;
    }
    return -1;
  };

  while (true) {
    while (static_cast<int>(running.size()) < max_workers) {
      const int s = next_pending();
      if (s < 0) break;
      auto& row = manifest.shard_rows[static_cast<std::size_t>(s)];
      WorkerOptions w = options.worker;
      w.skip = manifest.quarantined_in(shard_range(spec, s));
      if (options.kill_shard != s || row.attempts > 0) w.kill_after_runs = 0;
      ++row.attempts;
      ++launches[static_cast<std::size_t>(s)];
      if (!save_manifest()) return result;
      const pid_t pid = fork_worker(spec, s, dir, w);
      if (pid < 0) {
        result.error = "fork failed";
        return result;
      }
      running.push_back(Running{pid, s});
      log_line(options.log, "shard " + std::to_string(s) + " launched (pid " +
                                std::to_string(pid) + ", attempt " +
                                std::to_string(row.attempts) + ")");
    }
    if (running.empty()) break;

    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) {
      result.error = "waitpid failed";
      return result;
    }
    const auto it = std::find_if(running.begin(), running.end(),
                                 [&](const Running& r) { return r.pid == pid; });
    if (it == running.end()) continue;  // not one of ours
    const int s = it->shard;
    running.erase(it);
    auto& row = manifest.shard_rows[static_cast<std::size_t>(s)];

    if (WIFEXITED(status) && WEXITSTATUS(status) == kWorkerExitOk) {
      ShardVerify v = verify_shard_file(dir / shard_file_name(s));
      if (v.ok) {
        row.done = true;
        row.file = shard_file_name(s);
        row.results = v.results;
        row.bytes = v.bytes;
        if (!save_manifest()) return result;
        log_line(options.log, "shard " + std::to_string(s) + " done (" +
                                  std::to_string(v.results) + " results, " +
                                  std::to_string(v.bytes) + " bytes)");
      } else {
        log_line(options.log,
                 "shard " + std::to_string(s) + " verify failed: " + v.error);
      }
      continue;
    }

    // The worker died (signal) or failed internally.
    log_line(options.log,
             "shard " + std::to_string(s) + " " + crash_reason(status));
    const auto text = load_file(dir / shard_progress_name(s));
    const auto inflight = text ? parse_progress(*text) : std::nullopt;
    if (!inflight) continue;
    for (const std::uint64_t idx : *inflight) {
      if (idx >= spec.size()) {
        log_line(options.log, "shard " + std::to_string(s) +
                                  ": progress sidecar names scenario " +
                                  std::to_string(idx) +
                                  " outside the matrix; ignored");
        continue;
      }
      if (manifest.is_quarantined(idx)) continue;
      if (!survives_in_isolation(spec, idx, options.worker)) {
        quarantine_scenario(spec, manifest, idx, crash_reason(status), dir,
                            options, result);
        launches[static_cast<std::size_t>(s)] = 0;
        if (!save_manifest()) return result;
        break;  // one culprit per death; a re-run flushes out the rest
      }
    }
  }

  for (const Manifest::Quarantine& q : manifest.quarantined) {
    result.quarantined.push_back(q.index);
  }
  std::sort(result.quarantined.begin(), result.quarantined.end());

  if (!manifest.all_done()) {
    int first_pending = -1;
    for (int s = 0; s < manifest.shards; ++s) {
      if (!manifest.shard_rows[static_cast<std::size_t>(s)].done) {
        first_pending = s;
        break;
      }
    }
    result.error = "shard " + std::to_string(first_pending) +
                   " exhausted its retry budget; resume to continue";
    result.peak_rss_kb = peak_rss_kb();
    return result;
  }

  // Merge: stream the shard files in shard-index order (the fixed fold
  // order the merge laws require) -- O(shards) coordinator state.
  Aggregates merged;
  for (int s = 0; s < manifest.shards; ++s) {
    const auto& row = manifest.shard_rows[static_cast<std::size_t>(s)];
    ShardVerify v = verify_shard_file(dir / row.file);
    if (!v.ok) {
      result.error = v.error;
      return result;
    }
    merged.merge(v.agg);
  }

  const std::string bin =
      encode_all({Record{AggregateRecord{merged.encode()}}});
  if (std::string err;
      !save_file_atomic(dir / aggregates_file_name(), bin, &err)) {
    result.error = err;
    return result;
  }

  std::ostringstream js;
  {
    harness::JsonWriter w(js);
    w.begin_object();
    w.kv("schema", "ccdem-campaign-summary-v1");
    w.kv("scenarios", manifest.scenarios);
    w.kv("quarantined",
         static_cast<std::uint64_t>(manifest.quarantined.size()));
    w.key("aggregates");
    merged.write_json(w);
    w.end_object();
    js << "\n";
  }
  if (std::string err;
      !save_file_atomic(dir / summary_file_name(), js.str(), &err)) {
    result.error = err;
    return result;
  }

  result.complete = true;
  result.runs = merged.runs;
  result.aggregates = std::move(merged);
  result.peak_rss_kb = peak_rss_kb();
  return result;
}

}  // namespace ccdem::campaign
