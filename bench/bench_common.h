// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts an optional first argument (seconds of simulated time
// per run) and honours the CCDEM_BENCH_SECONDS environment variable, so the
// full suite can be shortened for smoke runs.  Paper runs are ~3 minutes per
// app; the defaults here are shorter because the statistics stabilise well
// before that in simulation.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/app_profiles.h"
#include "harness/experiment.h"
#include "harness/fleet.h"
#include "harness/report.h"
#include "metrics/stats.h"

namespace ccdem::bench {

inline int run_seconds(int argc, char** argv, int fallback = 30) {
  if (argc > 1) {
    const int v = std::atoi(argv[1]);
    if (v > 0) return v;
  }
  if (const char* env = std::getenv("CCDEM_BENCH_SECONDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

inline harness::ExperimentConfig make_config(const apps::AppSpec& app,
                                             harness::ControlMode mode,
                                             int seconds,
                                             std::uint64_t seed = 1) {
  harness::ExperimentConfig c;
  c.app = app;
  c.duration = sim::seconds(seconds);
  c.seed = seed;
  c.mode = mode;
  return c;
}

/// Full evaluation of one app: baseline, section-only and section+boost
/// under the same Monkey script.
struct AppEval {
  apps::AppSpec app;
  harness::ExperimentResult baseline;
  harness::ExperimentResult section;
  harness::ExperimentResult boost;
  metrics::QualityReport q_section;
  metrics::QualityReport q_boost;

  [[nodiscard]] double saved_section_mw() const {
    return baseline.mean_power_mw - section.mean_power_mw;
  }
  [[nodiscard]] double saved_boost_mw() const {
    return baseline.mean_power_mw - boost.mean_power_mw;
  }
  [[nodiscard]] double saved_section_pct() const {
    return saved_section_mw() / baseline.mean_power_mw * 100.0;
  }
  [[nodiscard]] double saved_boost_pct() const {
    return saved_boost_mw() / baseline.mean_power_mw * 100.0;
  }
  [[nodiscard]] bool is_game() const {
    return app.category == apps::AppSpec::Category::kGame;
  }
};

/// Evaluates the full 30-app fleet (3 runs per app) on all cores; results
/// are bit-identical to running the same configs one by one.  Pass `stats`
/// to receive the fleet's run/buffer-reuse counters.
inline std::vector<AppEval> evaluate_all(int seconds, std::uint64_t seed = 1,
                                         harness::FleetStats* stats = nullptr) {
  const std::vector<apps::AppSpec> apps_list = apps::all_apps();
  std::vector<harness::ExperimentConfig> configs;
  configs.reserve(apps_list.size() * 3);
  for (const apps::AppSpec& app : apps_list) {
    configs.push_back(
        make_config(app, harness::ControlMode::kBaseline60, seconds, seed));
    configs.push_back(
        make_config(app, harness::ControlMode::kSection, seconds, seed));
    configs.push_back(make_config(
        app, harness::ControlMode::kSectionWithBoost, seconds, seed));
  }
  harness::FleetRunner fleet;
  std::vector<harness::ExperimentResult> results = fleet.run(configs);
  if (stats != nullptr) *stats = fleet.stats();

  std::vector<AppEval> out;
  out.reserve(apps_list.size());
  for (std::size_t i = 0; i < apps_list.size(); ++i) {
    AppEval e;
    e.app = apps_list[i];
    e.baseline = std::move(results[i * 3]);
    e.section = std::move(results[i * 3 + 1]);
    e.boost = std::move(results[i * 3 + 2]);
    e.q_section = metrics::compare_quality(e.baseline.content_rate,
                                           e.section.content_rate);
    e.q_boost = metrics::compare_quality(e.baseline.content_rate,
                                         e.boost.content_rate);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace ccdem::bench
