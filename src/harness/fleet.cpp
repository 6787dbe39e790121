#include "harness/fleet.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "device/simulated_device.h"

namespace ccdem::harness {

std::vector<ExperimentResult> FleetRunner::run(
    const std::vector<ExperimentConfig>& configs) {
  std::vector<ExperimentResult> results(configs.size());
  stats_ = FleetStats{};
  if (configs.empty()) return results;

  unsigned threads = max_threads_ != 0 ? max_threads_
                                       : std::thread::hardware_concurrency();
  threads = std::max(1u, std::min<unsigned>(
                             threads, static_cast<unsigned>(configs.size())));
  stats_.workers = threads;

  // Work stealing via a shared index; each run is independent and each
  // worker's device (and pool) is touched by that worker only.
  std::atomic<std::size_t> next{0};
  std::mutex stats_mu;
  auto worker = [&] {
    device::SimulatedDevice dev(/*use_buffer_pool=*/true);
    // Each worker owns a private sink (a caller-provided config.obs is not
    // thread-safe across workers, so it is overridden).  Spans stay off:
    // a sweep's ring buffers would only hold each worker's last run.
    obs::ObsSink sink;
    sink.spans.set_enabled(false);
    std::uint64_t runs = 0;
    std::uint64_t frames = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= configs.size()) break;
      ExperimentConfig cfg = configs[i];
      cfg.obs = &sink;
      results[i] = run_experiment_on(dev, cfg);
      ++runs;
      frames += results[i].frames_composed;
    }
    const gfx::BufferPool& pool = *dev.buffer_pool();
    std::lock_guard<std::mutex> lock(stats_mu);
    stats_.runs_completed += runs;
    stats_.frames_composed += frames;
    stats_.buffer_acquires += pool.acquires();
    stats_.buffer_reuses += pool.reuses();
    stats_.buffer_allocations += pool.allocations();
    stats_.counters.merge(sink.counters);
  };

  // The calling thread is worker 0, so a one-config sweep spawns no thread.
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(worker);
  worker();
  for (std::thread& t : helpers) t.join();
  return results;
}

}  // namespace ccdem::harness
