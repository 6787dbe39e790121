// ScenarioGen: seeded whole-experiment sampler for the DST fuzzer.
//
// Samples complete Scenarios -- app profile, control mode, grid density,
// section-table shape, rate ladder, fault plan, fleet replay -- from one
// Xoshiro stream, so a fuzz campaign is a pure function of its seed: the
// nth scenario of seed S is the same on every machine and every run, which
// is what lets CI failures be reproduced locally by seed alone.
#pragma once

#include <cstdint>
#include <vector>

#include "check/scenario.h"
#include "sim/rng.h"

namespace ccdem::check {

class ScenarioGen {
 public:
  struct Options {
    std::int64_t min_duration_ms = 1500;
    std::int64_t max_duration_ms = 5000;
    /// Probability a scenario's reference replay runs on a fleet worker.
    double fleet_p = 0.25;
    /// Probability a scenario carries a fault plan.
    double fault_p = 0.45;
    /// Probability a scenario carries pressure episodes (independent of the
    /// fault plan, so pressure-only, fault-only and combined runs all
    /// appear).
    double pressure_p = 0.35;
    /// Probability a scenario targets the DSL scene space: the app is
    /// re-pointed at a scene-demo profile and usually carries a randomized
    /// ccdem-scene-v1 override (UI state graphs, burst video).  Drawn last,
    /// so raising it never perturbs pre-scene sequences.
    double scene_p = 0.25;
  };

  explicit ScenarioGen(std::uint64_t seed) : ScenarioGen(seed, Options{}) {}
  ScenarioGen(std::uint64_t seed, Options options);

  /// The next sampled scenario (deterministic in construction seed + call
  /// index).
  [[nodiscard]] Scenario next();

  [[nodiscard]] std::uint64_t generated() const { return generated_; }

 private:
  sim::Rng rng_;
  Options options_;
  std::vector<std::string> app_pool_;
  std::vector<std::string> scene_pool_;
  std::uint64_t generated_ = 0;
};

}  // namespace ccdem::check
