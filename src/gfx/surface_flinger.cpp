#include "gfx/surface_flinger.h"

#include <algorithm>
#include <cassert>

#include "gfx/compare.h"

namespace ccdem::gfx {

namespace {

/// Pixels of one frame's composition, by outcome.
struct Writes {
  std::uint64_t written = 0;  ///< copied into the screen
  std::uint64_t skipped = 0;  ///< already equal there, not copied
};

/// Composes one dirty rect of `s` (`screen_rect`: screen space, clipped to
/// the screen, non-empty) in place into `target`, the screen buffer, and
/// adds the written pieces to `damage`.
void compose_rect(const Surface& s, Rect screen_rect, Framebuffer& target,
                  Region& damage, Writes& writes) {
  // The rect is walked tile by tile, and a piece is written only when the
  // surface bytes differ from the screen.  The screen holds frame N-1, so
  // "matches the screen" is "already displayed" until an earlier rect of
  // this same frame overwrote it, in which case matching the screen still
  // yields the correct final frame.  Before the first write of a frame the
  // screen is exactly frame N-1, so "some piece was written" is exactly
  // "some latched pixel differs from frame N-1": content_changed stays
  // exact.
  constexpr int kTile = SurfaceFlinger::kTileSize;
  const Framebuffer& src = s.buffer();
  const int sx = s.screen_rect().x;
  const int sy = s.screen_rect().y;

  const int tx0 = screen_rect.x / kTile;
  const int tx1 = (screen_rect.right() - 1) / kTile;
  const int ty0 = screen_rect.y / kTile;
  const int ty1 = (screen_rect.bottom() - 1) / kTile;

  // Written pieces are merged back into maximal rects before they reach the
  // copy and the damage region: adjacent writes in a tile row grow `run`,
  // and full-width runs stack vertically into `block`.  A fully-written rect
  // therefore costs one copy and one damage rect, not one per tile.
  Rect run{};    // pending horizontal run within the current tile row
  Rect block{};  // pending vertical stack of flushed runs
  const auto emit = [&](const Rect& r) {
    if (r.empty()) return;
    kernels::copy_rows(
        target.pixels_mut().data(), target.width(), src.pixels().data(),
        src.width(),
        kernels::CopyWindow{Point{r.x - sx, r.y - sy}, Point{r.x, r.y},
                            Size{r.width, r.height}});
    damage.add(r);
    writes.written += static_cast<std::uint64_t>(r.area());
  };
  const auto flush_run = [&]() {
    if (run.empty()) return;
    if (block.x == run.x && block.width == run.width &&
        block.bottom() == run.y) {
      block.height += run.height;
    } else {
      emit(block);
      block = run;
    }
    run = Rect{};
  };

  for (int ty = ty0; ty <= ty1; ++ty) {
    for (int tx = tx0; tx <= tx1; ++tx) {
      const Rect tr =
          Rect{tx * kTile, ty * kTile, kTile, kTile}.intersect(screen_rect);
      const bool equal = kernels::rows_equal_offset(
          src.pixels().data(), src.width(), tr.translated(-sx, -sy),
          target.pixels().data(), target.width(), Point{tr.x, tr.y});
      if (equal) {
        flush_run();
        writes.skipped += static_cast<std::uint64_t>(tr.area());
      } else if (!run.empty() && run.y == tr.y && run.height == tr.height &&
                 run.right() == tr.x) {
        run.width += tr.width;
      } else {
        flush_run();
        run = tr;
      }
    }
    flush_run();
  }
  emit(block);
}

}  // namespace

SurfaceFlinger::SurfaceFlinger(Size screen, BufferPool* pool)
    : screen_(screen), pool_(pool), screen_fb_(screen, pool) {
  assert(!screen.empty());
}

Surface* SurfaceFlinger::create_surface(std::string name, Rect screen_rect,
                                        int z_order) {
  auto s =
      std::make_unique<Surface>(std::move(name), screen_rect, z_order, pool_);
  Surface* raw = s.get();
  surfaces_.push_back(std::move(s));
  std::stable_sort(surfaces_.begin(), surfaces_.end(),
                   [](const auto& a, const auto& b) {
                     return a->z_order() < b->z_order();
                   });
  return raw;
}

void SurfaceFlinger::remove_surface(Surface* s) {
  std::erase_if(surfaces_, [s](const auto& p) { return p.get() == s; });
}

void SurfaceFlinger::set_obs(obs::ObsSink* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    ctr_frames_ = ctr_content_ = ctr_redundant_ = ctr_pixels_ = ctr_latched_ =
        ctr_written_ = ctr_skipped_ = nullptr;
    return;
  }
  ctr_frames_ = &obs_->counters.counter("flinger.frames_composed");
  ctr_content_ = &obs_->counters.counter("flinger.content_frames");
  ctr_redundant_ = &obs_->counters.counter("flinger.redundant_frames");
  ctr_pixels_ = &obs_->counters.counter("flinger.pixels_composed");
  ctr_latched_ = &obs_->counters.counter("flinger.surfaces_latched");
  // Physical-write accounting: every composed pixel is either written or
  // skipped.  The names keep the "flinger.memo." prefix of the tile-hash
  // memo they used to account for, so existing readers still find them.
  ctr_written_ = &obs_->counters.counter("flinger.memo.pixels_written");
  ctr_skipped_ = &obs_->counters.counter("flinger.memo.pixels_skipped");
}

bool SurfaceFlinger::on_vsync(sim::Time t) {
  bool any_pending = false;
  for (const auto& s : surfaces_) {
    if (s->visible() && s->has_pending_frame()) {
      any_pending = true;
      break;
    }
  }
  if (!any_pending) return false;

  FrameInfo info;
  info.seq = ++frame_seq_;
  info.composed_at = t;

  Writes writes;
  Region damage;
  for (const auto& s : surfaces_) {
    if (!s->visible() || !s->has_pending_frame()) continue;
    ++info.surfaces_latched;

    // Compose rect by rect so only pixels actually drawn are compared and
    // charged -- scattered sprite updates do not pay for the area between
    // them.  The pending region is read in place and consumed afterwards.
    for (const Rect& local_rect : s->pending_dirty_region().rects()) {
      const Rect screen_rect =
          local_rect.translated(s->screen_rect().x, s->screen_rect().y)
              .intersect(Rect::of(screen_));
      // Logical composition work is charged whether or not the pixels turn
      // out to be redundant -- the app drew them; the compare only decides
      // whether they must physically land.
      info.composed_pixels += screen_rect.area();
      if (screen_rect.empty()) continue;
      compose_rect(*s, screen_rect, screen_fb_, damage, writes);
    }
    s->acquire_frame();
  }
  info.content_changed = writes.written > 0;
  info.damage = std::move(damage);

  if (info.content_changed) ++content_frames_;

  if (obs_ != nullptr) {
    ++*ctr_frames_;
    ++*(info.content_changed ? ctr_content_ : ctr_redundant_);
    *ctr_pixels_ += static_cast<std::uint64_t>(info.composed_pixels);
    *ctr_latched_ += static_cast<std::uint64_t>(info.surfaces_latched);
    *ctr_written_ += writes.written;
    *ctr_skipped_ += writes.skipped;
  }
  CCDEM_OBS_SPAN(obs_, obs::Phase::kCompose, t, sim::Duration{}, info.seq,
                 info.composed_pixels);

  for (FrameListener* l : listeners_) l->on_frame(info, screen_fb_);
  return true;
}

}  // namespace ccdem::gfx
