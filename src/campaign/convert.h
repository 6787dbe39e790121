// Converter over ccdem-bin-v1 shard files: a per-run results CSV, built on
// demand, off the campaign's hot path.
//
// A shard file carries each run's scalar results and the shard's counter
// snapshot, so a human-readable table is a *derived* artifact: decode the
// result records, print them.  Nothing on the campaign hot path pays for
// float printing.  A run's spans are not stored; replay its scenario
// instead (`campaign_report repro <spec> <index>`, then `trace_viewer`),
// which reproduces the run exactly.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>

#include "campaign/bin_format.h"

namespace ccdem::campaign {

/// Per-run results CSV: one row per ResultRecord, header first, scenario
/// index order as stored.  Numeric columns use the shortest round-trip
/// rendering (campaign::format_double).  Returns an error string on
/// malformed input, std::nullopt on success.
[[nodiscard]] std::optional<std::string> bin_to_results_csv(
    const std::filesystem::path& bin_path, std::ostream& os);

}  // namespace ccdem::campaign
