// FleetRunner: parallel experiment sweeps over long-lived devices.
//
// Experiments are pure functions of their config (every stochastic source
// is seeded), so a fleet of them -- the 30-app sweeps behind Figs. 9-11 and
// Table 1 -- can run on all cores with bit-identical results to a serial
// run.  Unlike a naive thread-per-run scheme, each worker owns ONE
// device::SimulatedDevice for its whole lifetime: run_experiment_on()
// reconfigures it per run, and the device's gfx::BufferPool recycles the
// framebuffer and meter-snapshot storage (several MB per device assembly)
// across runs.  Pooled storage is always re-initialised before use, so
// reuse cannot leak state between runs.
//
// The calling thread is worker 0 and run() spawns only the other workers,
// so a one-config sweep -- DST's reference replay of a fleet-flagged
// scenario (check/dst.h) -- runs on a pooled device without a new thread
// stack or allocator arena.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/experiment.h"
#include "obs/counters.h"

namespace ccdem::harness {

/// Counters aggregated over all workers after a sweep.
struct FleetStats {
  unsigned workers = 0;
  std::uint64_t runs_completed = 0;
  /// Frames composed across every run (work actually done).
  std::uint64_t frames_composed = 0;
  /// Buffer-pool traffic: `buffer_reuses` of the `buffer_acquires` were
  /// served from recycled storage, i.e. heap allocations avoided.
  std::uint64_t buffer_acquires = 0;
  std::uint64_t buffer_reuses = 0;
  std::uint64_t buffer_allocations = 0;
  /// Observability counters merged (summed) across every worker's sink.
  /// Merging is commutative, so the totals are independent of scheduling
  /// and equal a serial run's -- except the pool.* counters, which depend
  /// on how runs share a worker's device.
  obs::Counters counters;
};

class FleetRunner {
 public:
  /// `max_threads` 0 = one worker per hardware core (capped at the number
  /// of configs in each run() call).
  explicit FleetRunner(unsigned max_threads = 0)
      : max_threads_(max_threads) {}

  /// Runs every config and returns results in input order, bit-identical
  /// to calling run_experiment() sequentially.  Work is claimed from a
  /// shared queue, so an expensive config does not stall the others; the
  /// calling thread works too, next to `workers - 1` spawned threads.
  [[nodiscard]] std::vector<ExperimentResult> run(
      const std::vector<ExperimentConfig>& configs);

  /// Stats of the most recent run() call.
  [[nodiscard]] const FleetStats& stats() const { return stats_; }

 private:
  unsigned max_threads_;
  FleetStats stats_;
};

}  // namespace ccdem::harness
