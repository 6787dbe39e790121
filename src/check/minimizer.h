// Greedy scenario minimizer: shrink a failing Scenario while it keeps
// failing.
//
// The predicate runs the scenario through whatever check caught the original
// failure and returns the failure message, or std::nullopt when the
// candidate passes.  Any failure counts -- standard delta-debugging
// practice: the minimal input may fail differently than the original, and
// that smaller failure is the one worth debugging first.
//
// Shrinking is a fixpoint of cheap-first passes:
//   1. halve the duration (the single biggest replay-cost lever),
//   2. replay on a fresh device instead of a fleet worker, zero the fault
//      plan / single fault classes,
//   3. walk the mode ladder down (hysteresis -> boost -> plain section),
//   4. materialize the Monkey script into the scenario and delta-debug the
//      gesture list (so the final repro carries its own, minimal script),
//   5. drop or shrink the scene override (state-graph shrinking: drop
//      states, halve dwells, straighten transitions into self-loops; for
//      burst video, thin the motion list and halve the burst and gap),
//   6. reset tuning scalars to defaults and thin the rate ladder.
// Every accepted step re-validates with the predicate, so the result is
// always a genuinely failing scenario.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "check/scenario.h"

namespace ccdem::check {

/// Runs one candidate; a returned string means "still fails (with this
/// message)".
using FailurePredicate =
    std::function<std::optional<std::string>(const Scenario&)>;

struct MinimizeOptions {
  /// Hard cap on predicate invocations (each one replays an experiment).
  int max_attempts = 500;
  /// Durations are not halved below this floor.
  std::int64_t min_duration_ms = 250;
};

struct MinimizeResult {
  Scenario scenario;    ///< smallest failing scenario found
  std::string failure;  ///< its failure message
  int attempts = 0;     ///< predicate invocations spent
  int accepted = 0;     ///< shrink steps that kept failing
};

/// `failing` must fail the predicate (it is re-run first; if it passes, the
/// result is `failing` itself with an empty failure message).
[[nodiscard]] MinimizeResult minimize_scenario(const Scenario& failing,
                                               const FailurePredicate& predicate,
                                               const MinimizeOptions& options = {});

}  // namespace ccdem::check
