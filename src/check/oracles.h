// Differential oracles: the same scenario run several ways must agree.
//
// Each oracle replays one experiment config a second way and diffs
// everything observable:
//  * determinism  -- the same config twice; the serialized obs trace must be
//                    byte-identical (this is also what makes .repro replay
//                    exact),
//  * replay       -- one reference run that changes three choices at once:
//                    the full-grid meter scan instead of the damage-culled
//                    one (unless the scenario plans meter faults), span
//                    recording off, and a FleetRunner worker instead of a
//                    fresh device when the scenario sets `fleet`; results
//                    and counters must match except the meter.pixels_* work
//                    counters and the pool.* reuse counters,
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
  /// Run as a one-config FleetRunner sweep: a pooled device on the worker's
  /// own sink.  Fleet workers record no spans, so `spans` is moot here.
  bool fleet = false;
};

/// Runs the config against a fresh device (or a fleet worker's pooled one)
/// and a private ObsSink and captures the artifacts.  The config's own obs
/// pointer is ignored.
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
