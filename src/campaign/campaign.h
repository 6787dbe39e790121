// Campaign description and checkpoint manifest.
//
// A campaign is a scenario matrix -- the cartesian product
// app x mode x grid x fault-scale x pressure-scale x seed -- plus
// per-run settings (duration, A/B arm), sharded
// into contiguous index ranges that worker processes execute independently.
// Everything is pure data in the repo's strict key=value dialect
// (sim/key_value.h), so a campaign can be described, resumed and audited
// without recompiling.
//
// The manifest (`ccdem-campaign-manifest-v1`) is the coordinator's
// checkpoint: it embeds the canonical spec (resume refuses a different
// matrix via the fingerprint, and a manifest whose shard or scenario count
// disagrees with the spec), one row per shard (pending/done + the shard
// file's result/byte counts), and the quarantine list of scenario indices
// that crashed their worker and were excluded after minimization.
// The coordinator rewrites it atomically (tmp + rename) after every state
// change, so a killed coordinator or worker costs at most the shards that
// were in flight.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "check/scenario.h"

namespace ccdem::campaign {

struct CampaignSpec {
  std::vector<std::string> apps = {"Facebook"};
  /// Control-mode keywords ("section+boost", "naive", ...).  "pipeline"
  /// is rejected (explicit stage specs have no campaign axis yet) and
  /// "baseline" is rejected when `ab` is set (run_ab supplies that arm).
  std::vector<std::string> modes = {"section+boost"};
  std::vector<std::string> grids = {"9k"};
  std::vector<double> fault_scales = {0.0};
  /// Pressure-episode scales (check::Scenario::pressure_scale axis).  The
  /// default single 0 keeps every existing spec's canonical text -- and so
  /// its fingerprint -- unchanged: the key is only serialized when the axis
  /// is non-trivial.
  std::vector<double> pressure_scales = {0.0};
  std::vector<std::uint64_t> seeds = {1};
  std::int64_t duration_ms = 2000;
  /// Run a baseline-60 A/B arm per scenario (adds quality/savings to the
  /// aggregates at the cost of a second run per scenario).
  bool ab = false;
  int shards = 4;

  /// Matrix size (product of the axes).
  [[nodiscard]] std::uint64_t size() const;
  /// The scenario at matrix index `i` (seed varies fastest, then
  /// fault-scale, pressure-scale, grid, mode; app varies slowest).
  [[nodiscard]] check::Scenario scenario_at(std::uint64_t i) const;

  /// Canonical `ccdem-campaign-v1` text; parse(to_string()) == *this.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<CampaignSpec> parse(
      const std::string& text, std::string* error = nullptr);
  /// Rejects empty axes, unknown apps/modes/grids, negative scales, ...
  [[nodiscard]] std::optional<std::string> validate() const;
  /// FNV-1a of the canonical text; the resume compatibility check.
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] bool operator==(const CampaignSpec&) const = default;
};

/// Contiguous scenario-index range [begin, end) owned by one shard.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const { return end - begin; }
};

[[nodiscard]] ShardRange shard_range(const CampaignSpec& spec, int shard);
[[nodiscard]] std::string shard_file_name(int shard);      // shard_0007.bin
[[nodiscard]] std::string shard_progress_name(int shard);  // shard_0007.progress

struct Manifest {
  std::uint64_t fingerprint = 0;
  std::uint64_t scenarios = 0;
  int shards = 0;

  struct Shard {
    bool done = false;
    std::string file;  ///< set when done
    std::uint64_t results = 0;
    std::uint64_t bytes = 0;
    int attempts = 0;  ///< worker launches so far
    [[nodiscard]] bool operator==(const Shard&) const = default;
  };
  std::vector<Shard> shard_rows;

  struct Quarantine {
    std::uint64_t index = 0;
    std::string reason;  ///< single line ("worker crashed (signal 6)", ...)
    [[nodiscard]] bool operator==(const Quarantine&) const = default;
  };
  std::vector<Quarantine> quarantined;

  /// The campaign's canonical spec text, embedded verbatim.
  std::string spec_text;

  [[nodiscard]] static Manifest fresh(const CampaignSpec& spec);
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] bool is_quarantined(std::uint64_t index) const;
  /// Quarantined indices inside `range`, ascending.
  [[nodiscard]] std::vector<std::uint64_t> quarantined_in(
      ShardRange range) const;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Manifest> parse(
      const std::string& text, std::string* error = nullptr);

  [[nodiscard]] bool operator==(const Manifest&) const = default;
};

/// Write-then-rename, so readers never observe a half-written file.
[[nodiscard]] bool save_file_atomic(const std::filesystem::path& path,
                                    const std::string& content,
                                    std::string* error = nullptr);
[[nodiscard]] std::optional<std::string> load_file(
    const std::filesystem::path& path);

/// Shortest decimal text that strtod's back to exactly `v`, in fixed
/// notation when that is no longer than scientific (100 -> "100",
/// 1e22 -> "1e+22"); the canonical double rendering for spec/manifest files.
[[nodiscard]] std::string format_double(double v);

}  // namespace ccdem::campaign
