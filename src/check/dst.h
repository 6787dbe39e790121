// DST driver: run one Scenario through every oracle and invariant, or fuzz
// a whole seeded campaign.
//
// check_scenario() is the single entry the tests, the corpus replayer and
// the minimizer predicate all share: it expands the scenario, runs the real
// SimulatedDevice, and applies
//   * the differential oracles (oracles.h): determinism, the reference
//     replay (unculled meter unless meter faults are planned, spans off
//     and -- for fleet scenarios -- a FleetRunner worker, all in one run),
//     Equation (1) brute-force reference,
//   * the trace invariants (invariants.h),
//   * the display-quality gate (I4): on clean proposed-system runs, a
//     baseline-60 Hz arm with the same seed/script is run and
//     metrics::compare_quality must stay above the gate.
//
// run_fuzz() drives a ScenarioGen over check_scenario and greedily
// minimizes every failure, so what comes out is ready to be written as a
// `.repro` file (scenario.h's repro_to_string).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "check/minimizer.h"
#include "check/scenario.h"
#include "check/scenario_gen.h"

namespace ccdem::check {

struct CheckOptions {
  bool oracle_determinism = true;
  /// One reference replay with spans off, the meter unculled unless the
  /// scenario plans meter faults, and on a FleetRunner worker when the
  /// scenario's `fleet` flag is set; it also feeds I5's unculled accounting.
  bool oracle_replay = true;
  bool oracle_reference = true;
  bool invariants = true;
  /// I4: clean proposed-system scenarios get a baseline-60 quality arm.
  bool quality_arm = true;
  /// Minimum metrics display quality (delivered/actual %, see I4).  This is
  /// a liveness floor, not the paper's headline figure: a randomized
  /// scenario may legitimately combine an aggressive alpha with a sparse
  /// ladder.
  double quality_gate_pct = 30.0;
  /// I8 steady-state arm: pressured scenarios whose episodes end mid-run
  /// with enough tail get a pressure-free arm; the post-recovery tail's
  /// delivered quality relative to that arm must stay above the gate and
  /// the tail's mean refresh rate within the tolerance (a ladder stuck on a
  /// high rung shows up as a parked-low refresh rate).
  bool pressure_recovery_arm = true;
  double recovery_quality_pct = 85.0;
  double recovery_rate_tolerance_hz = 12.0;
  InvariantOptions invariant_options{};
};

struct CheckReport {
  std::vector<std::string> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// One line per failure, for logs and `.repro` headers.
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] CheckReport check_scenario(const Scenario& s,
                                         const CheckOptions& options = {});

/// Adapts check_scenario into the minimizer's predicate: returns the first
/// failure message, or std::nullopt when the candidate passes.
[[nodiscard]] FailurePredicate make_failure_predicate(CheckOptions options);

struct FuzzOptions {
  std::uint64_t seed = 1;
  int scenarios = 50;
  ScenarioGen::Options gen{};
  CheckOptions check{};
  bool minimize = true;
  MinimizeOptions minimize_options{};
  /// Stop the campaign after this many distinct failing scenarios.
  int max_failures = 3;
  /// Optional progress stream (one line per scenario).
  std::ostream* log = nullptr;
};

struct FuzzFailure {
  std::uint64_t index = 0;     ///< 0-based position in the campaign
  Scenario scenario;           ///< as sampled
  std::vector<std::string> failures;
  Scenario minimized;          ///< == scenario when minimization is off
  std::string minimized_failure;
  int shrink_attempts = 0;
};

struct FuzzReport {
  int scenarios_run = 0;
  std::vector<FuzzFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace ccdem::check
