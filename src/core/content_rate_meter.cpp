#include "core/content_rate_meter.h"

#include <cassert>
#include <utility>

namespace ccdem::core {

ContentRateMeter::ContentRateMeter(gfx::Size screen, GridSpec grid,
                                   sim::Duration window, MeterMode mode,
                                   gfx::BufferPool* pool)
    : sampler_(screen, grid), window_(window), mode_(mode), pool_(pool) {
  assert(window.ticks > 0);
  if (mode_ == MeterMode::kFullFrame) {
    retained_ = gfx::Framebuffer(screen, pool_);
  } else if (pool_ != nullptr) {
    // Pre-size the retained snapshot and the unculled path's scratch from
    // the pool; the priming capture writes every element before any
    // comparison reads them.
    samples_ = pool_->acquire_reserved(sampler_.sample_count());
    scratch_ = pool_->acquire_reserved(sampler_.sample_count());
  }
}

ContentRateMeter::~ContentRateMeter() {
  if (pool_ != nullptr && mode_ != MeterMode::kFullFrame) {
    pool_->release(std::move(samples_));
    pool_->release(std::move(scratch_));
  }
}

const gfx::Framebuffer& ContentRateMeter::previous_frame() const {
  assert(mode_ == MeterMode::kFullFrame);
  return retained_;
}

void ContentRateMeter::set_obs(obs::ObsSink* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    ctr_frames_ = ctr_meaningful_ = ctr_pixels_compared_ =
        ctr_pixels_skipped_ = ctr_misclassified_ = nullptr;
    return;
  }
  ctr_frames_ = &obs_->counters.counter("meter.frames");
  ctr_meaningful_ = &obs_->counters.counter("meter.meaningful_frames");
  ctr_pixels_compared_ = &obs_->counters.counter("meter.pixels_compared");
  ctr_pixels_skipped_ =
      &obs_->counters.counter("meter.pixels_compare_skipped");
  ctr_misclassified_ = &obs_->counters.counter("meter.misclassified_frames");
}

bool ContentRateMeter::classify_sampled(const gfx::Framebuffer& fb,
                                        const gfx::Region& damage,
                                        bool primed) {
  last_compared_ = 0;
  last_skipped_ = 0;
  if (!primed) {
    // Priming capture: take the full grid so every retained point is valid;
    // the frame is meaningful by definition (first content shown).
    sampler_.sample(fb, samples_);
    return true;
  }
  if (!damage_culling_) {
    // Reference path (pre-culling behaviour, bit-identical): full fresh
    // capture, early-exit compare, then the capture becomes the retained
    // snapshot.
    sampler_.sample(fb, scratch_);
    assert(scratch_.size() == samples_.size());
    bool meaningful = false;
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      ++last_compared_;
      if (scratch_[i] != samples_[i]) {
        meaningful = true;
        break;
      }
    }
    std::swap(samples_, scratch_);
    return meaningful;
  }
  // Damage-scoped pass: grid points outside the damage cannot have changed
  // (the compositor wrote nothing outside it), so only covered points are
  // read -- and refreshed in place, which keeps the whole snapshot equal to
  // a full capture.  An empty damage region classifies the frame redundant
  // without touching any pixel.
  bool meaningful = false;
  for (const gfx::Rect& r : damage.rects()) {
#if defined(CCDEM_CANARY_BUG)
    // Mutation-smoke canary (-DCCDEM_CANARY_BUG=ON, never a release build):
    // drop the damage rect's rightmost pixel column, so grid points under it
    // are neither compared nor refreshed in the retained snapshot.  The DST
    // harness must catch the divergence from the unculled reference.
    gfx::Rect cr = r;
    cr.width -= 1;
    const GridSampler::ScanResult res =
        sampler_.update_in_rect(fb, cr, samples_);
#else
    const GridSampler::ScanResult res =
        sampler_.update_in_rect(fb, r, samples_);
#endif
    last_compared_ += res.compared;
    meaningful |= res.differed;
  }
  last_skipped_ =
      static_cast<std::int64_t>(sampler_.sample_count()) - last_compared_;
  return meaningful;
}

bool ContentRateMeter::classify_full_frame(const gfx::Framebuffer& fb,
                                           const gfx::Region& damage,
                                           bool primed) {
  last_compared_ = 0;
  last_skipped_ = 0;
  if (!primed) {
    retained_.blit(fb, fb.bounds(), gfx::Point{0, 0});
    return true;
  }
  if (!damage_culling_) {
    // Reference path: compare every grid point (early exit), then retain a
    // full copy of the current frame.
    bool meaningful = false;
    for (const gfx::Point& p : sampler_.points()) {
      ++last_compared_;
      if (fb.at(p.x, p.y) != retained_.at(p.x, p.y)) {
        meaningful = true;
        break;
      }
    }
    retained_.blit(fb, fb.bounds(), gfx::Point{0, 0});
    return meaningful;
  }
  // Damage-scoped: compare covered grid points, then reconcile the retained
  // frame by copying only the damage, so retained_ stays byte-identical to
  // the current frame.
  bool meaningful = false;
  for (const gfx::Rect& r : damage.rects()) {
    const GridSampler::ScanResult res =
        sampler_.compare_in_rect(fb, retained_, r);
    last_compared_ += res.compared;
    meaningful |= res.differed;
  }
  for (const gfx::Rect& r : damage.rects()) {
    retained_.blit(fb, r, gfx::Point{r.x, r.y});
  }
  last_skipped_ =
      static_cast<std::int64_t>(sampler_.sample_count()) - last_compared_;
  return meaningful;
}

void ContentRateMeter::on_frame(const gfx::FrameInfo& info,
                                const gfx::Framebuffer& fb) {
  const bool primed = have_prev_;
  if (sample_fault_ != nullptr && primed &&
      mode_ == MeterMode::kSampledSnapshot) {
    sample_fault_->corrupt_samples(info.composed_at, samples_);
  }
  bool meaningful = mode_ == MeterMode::kFullFrame
                        ? classify_full_frame(fb, info.damage, primed)
                        : classify_sampled(fb, info.damage, primed);
  // The very first composed frame necessarily shows new content.
  if (!primed) meaningful = true;
  have_prev_ = true;

  ++total_frames_;
  if (meaningful) ++meaningful_frames_;
  const bool misclassified =
      meaningful != info.content_changed && total_frames_ > 1;
  if (misclassified) ++misclassified_;
  total_compare_ms_ += compare_cost_per_frame_ms();

  if (obs_ != nullptr) {
    ++*ctr_frames_;
    if (meaningful) ++*ctr_meaningful_;
    if (misclassified) ++*ctr_misclassified_;
    *ctr_pixels_compared_ += static_cast<std::uint64_t>(last_compared_);
    *ctr_pixels_skipped_ += static_cast<std::uint64_t>(last_skipped_);
  }
  CCDEM_OBS_SPAN(
      obs_, obs::Phase::kMeter, info.composed_at,
      sim::seconds_f(compare_cost_per_frame_ms() / 1000.0), info.seq,
      last_compared_);

  window_obs_.push_back({info.composed_at, meaningful});
  ++window_frames_;
  if (meaningful) ++window_meaningful_;
  expire(info.composed_at);
}

void ContentRateMeter::expire(sim::Time now) const {
  const sim::Time cutoff = now - window_;
  while (!window_obs_.empty() && window_obs_.front().t <= cutoff) {
    --window_frames_;
    if (window_obs_.front().meaningful) --window_meaningful_;
    window_obs_.pop_front();
  }
}

double ContentRateMeter::content_rate(sim::Time now) const {
  expire(now);
  return static_cast<double>(window_meaningful_) / window_.seconds();
}

double ContentRateMeter::frame_rate(sim::Time now) const {
  expire(now);
  return static_cast<double>(window_frames_) / window_.seconds();
}

double ContentRateMeter::redundant_rate(sim::Time now) const {
  return frame_rate(now) - content_rate(now);
}

}  // namespace ccdem::core
