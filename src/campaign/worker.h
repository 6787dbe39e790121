// Campaign shard worker: run one contiguous scenario range, stream results
// into a `ccdem-bin-v1` shard file.
//
// A worker is a pure function of (spec, shard index) -- the coordinator
// forks one process per in-flight shard and trusts nothing but the shard
// file it leaves behind.  The worker runs its range in chunks through a
// FleetRunner (one chunk = one fleet sweep; there is no other run path),
// folds every result into the shard's streaming Aggregates in
// scenario-index order, and finishes the file with the merged counter
// snapshot, the encoded aggregate and the checksummed end marker.  A run's
// spans or DST verdict are not recorded: every run is a pure function of
// `spec.scenario_at(i)`, so they are one replay of that scenario away.  The
// file is written to a `.tmp` name and renamed only after the end marker,
// so a crashed worker leaves either nothing or a file that fails
// BinReader::complete() -- never a silently short result set.
//
// Crash forensics: before each chunk the worker atomically rewrites a
// `.progress` sidecar naming the in-flight scenario indices.  When a worker
// dies, the coordinator re-runs exactly those scenarios in isolation to
// find the guilty one (coordinator.h).
//
// Graceful termination: run_shard installs a SIGTERM handler (restored on
// return) that requests a drain.  At the next chunk boundary the worker
// finishes the in-flight chunk's records, writes the counters/aggregate/end
// marker onto the `.tmp` file (decodable, but never renamed -- the shard is
// not done), rewrites `.progress` with the unfinished indices, and returns
// ok so the process exits 0 instead of dying mid-record.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/bin_format.h"
#include "campaign/campaign.h"
#include "sim/trace.h"

namespace ccdem::harness {
struct ExperimentResult;
}

namespace ccdem::campaign {

/// Worker process exit codes the coordinator distinguishes.
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitError = 1;  ///< I/O or internal failure

struct WorkerOptions {
  /// Fleet threads per worker process (0 = one per hardware core).
  unsigned threads = 0;
  /// Scenarios per fleet sweep; also the crash-isolation window (a dead
  /// worker costs at most one chunk of re-runs).
  std::uint64_t chunk = 16;
  /// Quarantined scenario indices to skip (from the manifest).
  std::vector<std::uint64_t> skip;
  /// Test hook: raise(SIGKILL) after this many results are written
  /// (0 = never).  Exercises the mid-shard-death resume path in CI.
  std::uint64_t kill_after_runs = 0;
  /// Test hook: called with each scenario index before it runs, in the
  /// worker AND in the coordinator's isolation/minimization children -- a
  /// hook that aborts on index k simulates a scenario that kills its
  /// process wherever it executes.
  std::function<void(std::uint64_t)> run_hook;
};

struct ShardOutcome {
  bool ok = false;
  std::string error;  ///< single line when !ok
  /// SIGTERM drain: the worker finished its in-flight chunk, closed the
  /// `.tmp` file with the checksummed end marker (complete-decodable but
  /// NOT renamed), and listed the unfinished indices in the `.progress`
  /// sidecar.  `ok` is true -- the worker exits 0 -- and a relaunch
  /// re-runs the shard.
  bool interrupted = false;
  std::uint64_t results = 0;
  std::uint64_t bytes = 0;
};

/// Runs shard `shard` of `spec` and writes `dir/shard_NNNN.bin`.
[[nodiscard]] ShardOutcome run_shard(const CampaignSpec& spec, int shard,
                                     const std::filesystem::path& dir,
                                     const WorkerOptions& options = {});

/// The scenario indices named by a `.progress` sidecar, or std::nullopt on
/// malformed text.
[[nodiscard]] std::optional<std::vector<std::uint64_t>> parse_progress(
    const std::string& text);
[[nodiscard]] std::string progress_to_string(
    int shard, const std::vector<std::uint64_t>& inflight);

/// Ascending-hz per-rung residency of a refresh-rate step trace over
/// [0, duration) -- the same step-hold reading as Trace::time_weighted_mean.
[[nodiscard]] std::vector<RungResidency> compute_residency(
    const sim::Trace& refresh, sim::Duration duration);

/// The per-run record the shard file carries for matrix index `index`.
[[nodiscard]] ResultRecord make_result_record(
    std::uint64_t index, const check::Scenario& sc,
    const harness::ExperimentResult& r);

}  // namespace ccdem::campaign
