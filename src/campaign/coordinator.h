// Campaign coordinator: shard the matrix across worker processes, survive
// their deaths, merge their shard files into streaming aggregates.
//
// The coordinator fork()s one process per in-flight shard (no exec, so the
// test hooks in WorkerOptions survive into the child) and trusts only what
// lands on disk: a worker that exits cleanly must leave a shard file whose
// streamed records reproduce its embedded aggregate, or the shard is
// re-run.  After every state change the manifest is rewritten atomically,
// so killing the coordinator *or* any worker costs at most the shards that
// were in flight -- a later invocation with `resume` picks up from the
// manifest (the embedded fingerprint refuses a different matrix).
//
// Crash isolation reuses src/check: when a worker dies, the scenarios named
// by its `.progress` sidecar are re-run one-by-one in isolated forked
// children; the one that dies again is minimized (fork-per-candidate
// predicate, so even a crashing candidate only costs a child, never the
// coordinator) and written as a self-contained `.repro`, then quarantined
// in the manifest so the re-run skips it.
//
// Memory stays O(shards): results stream through BinReader record-by-record
// and fold into one Aggregates per shard; nothing per-run is retained.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/aggregates.h"
#include "campaign/campaign.h"
#include "campaign/worker.h"

namespace ccdem::campaign {

struct CampaignOptions {
  /// Concurrent worker processes.
  int workers = 2;
  /// Per-shard worker settings (threads, chunk, test hooks).
  WorkerOptions worker{};
  /// Resume from `dir`'s manifest instead of starting fresh; refuses a
  /// manifest whose fingerprint does not match `spec`.
  bool resume = false;
  /// Extra launches a shard gets after a crash before the campaign gives
  /// up and returns incomplete (per invocation, not persisted).
  int max_shard_retries = 2;
  /// Test hook: apply worker.kill_after_runs only to this shard's first
  /// launch (-1 = no shard is killed).
  int kill_shard = -1;
  /// Optional progress stream (one line per shard event).
  std::ostream* log = nullptr;
};

struct CampaignResult {
  /// True when every shard is done (quarantined scenarios excluded).
  bool complete = false;
  std::string error;  ///< why the campaign stopped early, when !complete
  std::uint64_t runs = 0;
  Aggregates aggregates;
  std::vector<std::uint64_t> quarantined;
  std::vector<std::string> repro_files;  ///< .repro paths written this run
  /// Coordinator peak RSS (VmHWM) in kB; 0 where unsupported.
  long peak_rss_kb = 0;
};

/// File names the coordinator writes into the campaign directory.
[[nodiscard]] std::string manifest_file_name();    // manifest.txt
[[nodiscard]] std::string aggregates_file_name();  // aggregates.bin
[[nodiscard]] std::string summary_file_name();     // summary.json

/// Runs (or resumes) the campaign in `dir`.  On success the directory
/// holds the done shard files, `aggregates.bin` (a one-record ccdem-bin-v1
/// file with the merged aggregate -- byte-identical however the campaign
/// was interrupted and resumed) and `summary.json` (its JSON rendering).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const std::filesystem::path& dir,
                                          const CampaignOptions& options = {});

/// Current process peak RSS in kB (Linux VmHWM; 0 elsewhere).
[[nodiscard]] long peak_rss_kb();

}  // namespace ccdem::campaign
