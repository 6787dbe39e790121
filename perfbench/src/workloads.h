// The benchmark's workloads: what each one generates, runs, times and
// checks.  See perfbench/METRICS.md for every metric's definition.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for campaign directories (inside the checkout).
  std::filesystem::path workdir;
  /// Campaign worker processes (the host's core count, at most 2).
  unsigned workers = 1;
  std::chrono::steady_clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  /// Operations run, and those during which any check failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every failed check, inside an operation or not; `correct` is false
  /// when any failed.
  std::uint64_t failed_checks = 0;
  /// The contract metrics: end-to-end without --trace, per-layer with it.
  std::vector<Metric> metrics;
  /// Report-only figures (tail percentiles, failed_frac, paper numbers).
  std::vector<Metric> extra;
  /// Fold of every result scalar, frame hash and counter (pool.* excluded)
  /// over the workload's fixed input prefix; identical on every run of one
  /// commit with one seed.
  std::uint64_t sim_digest = 0;
  /// One line per failed check.
  std::vector<std::string> problems;
};

/// Workload names in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
