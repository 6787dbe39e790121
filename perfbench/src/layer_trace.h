// Per-layer host wall time of one experiment run, measured from outside.
//
// run_traced() repeats harness::run_experiment_on step by step and splits
// the run's wall time at the layer boundaries the device exposes publicly:
//   device  configure + install_app + start_control + script scheduling,
//           then finish, result collection and (fresh devices) teardown;
//   apps    between a kApp VsyncObserver registered before install_app and
//           one registered after it (every app and overlay renders there);
//   gfx     from the end of the app phase to a FrameListener added right
//           after install_app: latch + compose, plus the power, recorder
//           and latency listeners configure() registers ahead of it;
//   check   Framebuffer::fast_hash of every composed frame, in hashed runs
//           (it replaces the harness's own frame-stream hasher);
//   core    from that listener to one added after start_control, which
//           brackets the controller's on_frame (content-rate meter);
//   sim     everything else inside run_until: the event queue, policy
//           evaluations, input dispatch and Monsoon sampling.
// Nothing in src/ changes, and the hooks only read: the traced result and
// counters must equal an untraced run's, which workloads.cpp checks.
#pragma once

#include <array>
#include <cstdint>

#include "device/simulated_device.h"
#include "harness/experiment.h"

namespace perfbench {

/// kObs (serializing a DST arm's span stream) and kCampaign (shard-file
/// encode, decode and merge) are charged by workloads.cpp, not by run_traced.
enum class Layer : int {
  kDevice, kApps, kGfx, kCheck, kCore, kSim, kObs, kCampaign
};
inline constexpr int kLayerCount = 8;
inline constexpr const char* kLayerNames[kLayerCount] = {
    "device", "apps", "gfx", "check", "core", "sim", "obs", "campaign"};

/// Attributed host time per layer, summed over traced runs.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> ns{};
  /// device: runs; apps: vsyncs; gfx, check, core: composed frames.
  std::array<std::uint64_t, kLayerCount> calls{};
  /// The setup part of ns[device].
  std::int64_t setup_ns = 0;
  /// Wall time of everything traced, attributed or not.
  std::int64_t wall_ns = 0;

  [[nodiscard]] std::int64_t& at(Layer l) { return ns[static_cast<int>(l)]; }
  [[nodiscard]] std::uint64_t& calls_at(Layer l) {
    return calls[static_cast<int>(l)];
  }
  [[nodiscard]] double share(Layer l) const {
    return wall_ns > 0 ? static_cast<double>(ns[static_cast<int>(l)]) /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
  [[nodiscard]] double ns_per_call(Layer l) const {
    const auto c = calls[static_cast<int>(l)];
    return c > 0 ? static_cast<double>(ns[static_cast<int>(l)]) /
                       static_cast<double>(c)
                 : 0.0;
  }
};

/// Runs `config` exactly as harness::run_experiment_on would (on `reuse`, or
/// on a fresh device built and destroyed inside the timed span when null)
/// and adds its layer split to `totals`.
[[nodiscard]] ccdem::harness::ExperimentResult run_traced(
    const ccdem::harness::ExperimentConfig& config, LayerTotals& totals,
    ccdem::device::SimulatedDevice* reuse = nullptr);

}  // namespace perfbench
