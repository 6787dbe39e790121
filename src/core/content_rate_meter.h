// ContentRateMeter: measures the paper's central metric.
//
// The content rate is "the number of contents per second" -- the frame rate
// minus the redundant frame rate.  The meter listens to every composition,
// samples the framebuffer on a sparse grid, and compares against the
// previous frame's retained samples (paper section 3.1: double buffering +
// grid-based comparison).  A sliding window (default 1 s, matching the
// per-second definition) turns per-frame meaningful/redundant
// classifications into a rate.
//
// Host-side cost is damage-scoped: the compositor composes in place and
// writes the screen only inside FrameInfo::damage, so the current frame can
// only differ from the last one there.  Grid points outside the damage are
// provably unchanged and are skipped (counted in
// meter.pixels_compare_skipped); an empty-damage frame is classified
// redundant without touching a single pixel.  The *modeled* comparison cost
// (compare_cost_per_frame_ms) deliberately stays a function of the full
// grid size -- it represents the instrumented device of the paper, not this
// simulator's shortcut -- so classifications, rates, and power results are
// bit-identical with culling on or off.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/grid_sampler.h"
#include "core/metering_cost_model.h"
#include "gfx/buffer_pool.h"
#include "gfx/surface_flinger.h"
#include "obs/obs.h"
#include "sim/time.h"

namespace ccdem::core {

/// How the previous frame is retained for comparison.
enum class MeterMode {
  /// Store only the sampled grid pixels of the previous frame (cheap; the
  /// default).  Comparison results are identical to full-frame mode because
  /// only grid points are ever compared.
  kSampledSnapshot,
  /// Store the entire previous frame -- the paper's literal architecture
  /// ("the framebuffer data are stored at an extra buffer").  Costs a
  /// damage-sized copy per composition; kept for fidelity and for workloads
  /// that need the previous frame for other purposes (e.g. the OLED
  /// emission model could diff luma).
  kFullFrame,
};

/// Corrupts the meter's retained grid samples before a comparison (fault
/// layer: readback/bus bit flips).  Declared here so core stays independent
/// of the fault library; the injector implements it.
class SampleFault {
 public:
  virtual ~SampleFault() = default;
  virtual void corrupt_samples(sim::Time t,
                               std::vector<gfx::Rgb888>& samples) = 0;
};

class ContentRateMeter final : public gfx::FrameListener {
 public:
  /// `pool` (optional) recycles the sample snapshots (and, in full-frame
  /// mode, the retained framebuffer) across meter lifetimes.
  ContentRateMeter(gfx::Size screen, GridSpec grid,
                   sim::Duration window = sim::seconds(1),
                   MeterMode mode = MeterMode::kSampledSnapshot,
                   gfx::BufferPool* pool = nullptr);
  ~ContentRateMeter() override;

  /// FrameListener: classifies the composed frame and updates the window.
  void on_frame(const gfx::FrameInfo& info, const gfx::Framebuffer& fb) override;

  /// Attaches an observability sink (may be null to detach).  Registers the
  /// meter's counters and emits a meter span (with the cost model's modeled
  /// comparison duration) per classified frame.
  void set_obs(obs::ObsSink* obs);

  /// Corrupts retained grid samples ahead of each comparison (fault layer;
  /// sampled-snapshot mode only).  Null -- the default -- costs the hot
  /// path nothing but one pointer test.  Not owned.
  void set_sample_fault(SampleFault* fault) { sample_fault_ = fault; }

  /// When true (default), classification reads only the grid points inside
  /// the frame's damage region; when false it rescans the full grid every
  /// frame (the pre-culling reference path).  Verdicts are identical either
  /// way -- the property tests assert it -- only the host work differs.
  void set_damage_culling(bool on) { damage_culling_ = on; }
  [[nodiscard]] bool damage_culling() const { return damage_culling_; }

  /// Content rate over the sliding window ending at `now` (fps).
  [[nodiscard]] double content_rate(sim::Time now) const;
  /// Frame rate (all compositions) over the same window (fps).
  [[nodiscard]] double frame_rate(sim::Time now) const;
  /// Redundant frame rate = frame rate - content rate.
  [[nodiscard]] double redundant_rate(sim::Time now) const;

  /// Lifetime counters.
  [[nodiscard]] std::uint64_t total_frames() const { return total_frames_; }
  [[nodiscard]] std::uint64_t meaningful_frames() const {
    return meaningful_frames_;
  }
  [[nodiscard]] std::uint64_t redundant_frames() const {
    return total_frames_ - meaningful_frames_;
  }

  /// Ground-truth agreement counters (the compositor's exact changed-pixel
  /// flag vs the meter's grid decision); drives Fig. 6's error rate.
  [[nodiscard]] std::uint64_t misclassified_frames() const {
    return misclassified_;
  }
  [[nodiscard]] double error_rate() const {
    return total_frames_ == 0
               ? 0.0
               : static_cast<double>(misclassified_) /
                     static_cast<double>(total_frames_);
  }

  /// Accumulated device-model comparison time and energy (cost accounting).
  [[nodiscard]] double total_compare_ms() const { return total_compare_ms_; }
  [[nodiscard]] double compare_cost_per_frame_ms() const {
    return cost_model_.duration_ms(
        static_cast<std::int64_t>(sampler_.sample_count()));
  }
  [[nodiscard]] const MeteringCostModel& cost_model() const {
    return cost_model_;
  }
  [[nodiscard]] const GridSampler& sampler() const { return sampler_; }
  [[nodiscard]] MeterMode mode() const { return mode_; }

  /// Full-frame mode only: the retained previous frame.
  [[nodiscard]] const gfx::Framebuffer& previous_frame() const;

 private:
  /// Drops window observations with t <= now - window and keeps the running
  /// counts in step -- the single source of truth for the window edge.
  /// Const because the rate queries (logically read-only) call it; the
  /// window state is mutable bookkeeping.
  void expire(sim::Time now) const;
  [[nodiscard]] bool classify_sampled(const gfx::Framebuffer& fb,
                                      const gfx::Region& damage, bool primed);
  [[nodiscard]] bool classify_full_frame(const gfx::Framebuffer& fb,
                                         const gfx::Region& damage,
                                         bool primed);

  GridSampler sampler_;
  MeteringCostModel cost_model_;
  sim::Duration window_;
  MeterMode mode_;
  gfx::BufferPool* pool_ = nullptr;
  bool damage_culling_ = true;
  /// Sampled mode: the previous frame's grid samples.  Damage culling
  /// updates only the covered points in place; the uncovered ones are
  /// already correct because the frame cannot differ outside its damage.
  std::vector<gfx::Rgb888> samples_;
  /// Sampled mode, unculled path only: scratch for the full fresh capture.
  std::vector<gfx::Rgb888> scratch_;
  /// Full-frame mode: the retained previous frame.
  gfx::Framebuffer retained_;
  bool have_prev_ = false;
  SampleFault* sample_fault_ = nullptr;

  struct Obs {
    sim::Time t;
    bool meaningful;
  };
  /// Window state is mutable so the const rate queries can expire through
  /// the same code path on_frame uses (see expire()).
  mutable std::deque<Obs> window_obs_;
  mutable std::uint64_t window_frames_ = 0;      // == window_obs_.size()
  mutable std::uint64_t window_meaningful_ = 0;  // meaningful obs in window
  std::uint64_t total_frames_ = 0;
  std::uint64_t meaningful_frames_ = 0;
  std::uint64_t misclassified_ = 0;
  double total_compare_ms_ = 0.0;
  /// Grid points actually read by the most recent classification (damage
  /// culling or the unculled path's early exit make this smaller than
  /// sample_count()).
  std::int64_t last_compared_ = 0;
  /// Grid points the damage proof let the last classification skip.
  std::int64_t last_skipped_ = 0;

  obs::ObsSink* obs_ = nullptr;
  std::uint64_t* ctr_frames_ = nullptr;
  std::uint64_t* ctr_meaningful_ = nullptr;
  std::uint64_t* ctr_pixels_compared_ = nullptr;
  std::uint64_t* ctr_pixels_skipped_ = nullptr;
  std::uint64_t* ctr_misclassified_ = nullptr;
};

}  // namespace ccdem::core
