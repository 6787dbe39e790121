// Differential oracles: the same scenario run several ways must agree.
//
// Each oracle replays one experiment config through an independent
// implementation of some subsystem and diffs everything observable:
//  * determinism  -- the same config twice; the serialized obs trace must be
//                    byte-identical (this is also what makes .repro replay
//                    exact),
//  * unculled     -- the damage-culled meter vs the full-grid reference
//                    (set_damage_culling(false)); results and counters must
//                    match except the meter.pixels_* work counters,
//  * spans-off    -- recording spans must not change a single counter or
//                    result (observability is passive),
//  * fleet        -- the work-stealing FleetRunner vs the serial run
//                    (identical modulo the pool.* reuse counters),
//  * section ref  -- SectionTable/policy decisions vs a brute-force
//                    reimplementation of Equation (1).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "harness/experiment.h"
#include "obs/counters.h"
#include "obs/span_recorder.h"

namespace ccdem::check {

/// Everything observable from one experiment run.
struct RunArtifacts {
  harness::ExperimentResult result;
  obs::Counters::Snapshot counters;
  std::vector<obs::Span> spans;
  /// Serialized span stream + counter snapshot (the golden-trace CSV
  /// format); byte-compared by the determinism oracle.
  std::string trace_csv;
};

/// How run_scenario_once runs the config.  The defaults are the primary
/// oracle arm; pass the fields that differ by name, e.g.
/// `{.spans = false, .hash_frames = false}`.
struct RunOptions {
  bool damage_culling = true;
  bool spans = true;
  /// Fold every composed frame into ExperimentResult::frame_stream_hash, so
  /// the diffs below prove frame-stream identity, not just end-state
  /// agreement.  Arms that read only other results (the I4 quality and I8
  /// steady-state arms compare content-rate traces) turn it off.
  bool hash_frames = true;
};

/// Runs the config against a fresh device + private ObsSink and captures
/// the artifacts.  The config's own obs pointer is ignored.
[[nodiscard]] RunArtifacts run_scenario_once(harness::ExperimentConfig cfg,
                                             const RunOptions& opt = {});

/// Exact comparison of two results (traces pointwise, scalars bitwise).
/// Returns a description of the first difference, or std::nullopt.
[[nodiscard]] std::optional<std::string> diff_results(
    const harness::ExperimentResult& a, const harness::ExperimentResult& b,
    const std::string& what);

/// Compares two counter snapshots; names matching any prefix in
/// `exclude_prefixes` are ignored on both sides.
[[nodiscard]] std::optional<std::string> diff_counters(
    const obs::Counters::Snapshot& a, const obs::Counters::Snapshot& b,
    const std::string& what,
    const std::vector<std::string>& exclude_prefixes = {});

/// Brute-force Equation (1) reference check over the scenario's ladder and
/// alpha: SectionTable::rate_for / section_index_for and the ceil-rate
/// policy must match an independent O(sections^2) evaluation on a dense
/// content-rate sweep including every threshold boundary.
[[nodiscard]] std::optional<std::string> check_section_reference(
    const Scenario& s);

}  // namespace ccdem::check
