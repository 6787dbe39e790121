// TraceInvariantChecker: properties every run must satisfy, checked against
// the observability artifacts (span stream, counter snapshot, result traces)
// of a scenario run.
//
// Unlike the differential oracles (oracles.h), which need a second run to
// compare against, these are single-run laws:
//  I1 refresh floor   -- a panel refreshing at h Hz cannot deliver content
//                        faster than h; every content-rate sample is bounded
//                        by the max refresh rate over its trailing window
//                        (plus boundary slack).
//  I2 touch boost     -- in boost-enabled modes on clean runs, every
//                        controller evaluation inside a gesture's hold
//                        window must target at least the boost rate.
//  I3 recovery        -- safe-mode entries are monotone in fault streaks:
//                        entries x safe_mode_after <= give-ups + watchdog
//                        fallbacks, re-arms <= entries, and a clean run
//                        registers no fault or recovery counter at all.
//  I5 meter work      -- damage culling is an optimisation, not a model
//                        change: per classified frame the culled meter's
//                        compared + skipped samples account for exactly the
//                        whole grid, and the unculled reference never skips.
//  I6 counter/spans   -- the counter graph is consistent (flinger ==
//                        recorder == result scalars, content + redundant ==
//                        composed, vsyncs >= frames) and the span stream
//                        matches it one span per phase occurrence, in
//                        nondecreasing time, presenting only ladder rates.
//  I7 ladder order    -- the degradation ladder sheds and recovers one rung
//                        at a time, never skipping, with every consecutive
//                        rung change at least step_hold apart and down-steps
//                        at least recovery_cooldown apart.
//  I8 ladder return   -- once pressure episodes stop arriving
//                        (pressure_until_ms) and the run is long enough, the
//                        ladder returns to rung 0 within a bounded recovery
//                        window and stays there.
//
// (I4, the display-quality gate, lives in dst.cpp: it needs a second
// baseline-mode run to compare against -- as does I8's steady-state
// quality/energy arm, which diffs the post-recovery tail against the
// unpressured run.)
//
// check() returns every violation found, not just the first, so a fuzz
// failure report shows the full blast radius of a bug.
#pragma once

#include <string>
#include <vector>

#include "check/oracles.h"
#include "check/scenario.h"

namespace ccdem::check {

struct InvariantOptions {
  /// Slack on the refresh-floor bound (window boundary effects: a frame at
  /// each edge, rate-switch retiming with fast_rate_up).
  double rate_slack_hz = 3.0;
};

class TraceInvariantChecker {
 public:
  explicit TraceInvariantChecker(Scenario scenario,
                                 InvariantOptions options = {});

  /// Checks every invariant against the primary (damage-culled) run;
  /// `unculled` -- the reference replay, when it ran unculled -- additionally
  /// gets the I5 reference-path accounting check.  Returns all violations
  /// (empty = pass).
  [[nodiscard]] std::vector<std::string> check(
      const RunArtifacts& culled, const RunArtifacts* unculled = nullptr) const;

 private:
  void check_refresh_floor(const RunArtifacts& r,
                           std::vector<std::string>& out) const;
  void check_touch_boost(const RunArtifacts& r,
                         std::vector<std::string>& out) const;
  void check_recovery(const RunArtifacts& r,
                      std::vector<std::string>& out) const;
  void check_meter_accounting(const RunArtifacts& culled,
                              const RunArtifacts* unculled,
                              std::vector<std::string>& out) const;
  void check_counter_graph(const RunArtifacts& r,
                           std::vector<std::string>& out) const;
  void check_span_stream(const RunArtifacts& r,
                         std::vector<std::string>& out) const;
  void check_ladder_order(const RunArtifacts& r,
                          std::vector<std::string>& out) const;
  void check_ladder_return(const RunArtifacts& r,
                           std::vector<std::string>& out) const;

  Scenario scenario_;
  InvariantOptions options_;
};

}  // namespace ccdem::check
