#include "gfx/region.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ccdem::gfx {

std::int64_t Region::area() const {
  std::int64_t a = 0;
  for (const Rect& r : rects_) a += r.area();
  return a;
}

Rect Region::bounds() const {
  Rect b{};
  for (const Rect& r : rects_) b = b.join(r);
  return b;
}

namespace {

/// Working storage of add() and coalesce_one(), reused across calls so a
/// warm region adds and coalesces without touching the heap.  One instance
/// per thread: regions live on FleetRunner worker threads too.
struct Scratch {
  std::vector<Rect> pending;         // pieces of the new rect not yet covered
  std::vector<Rect> next;            // pending after one more existing rect
  std::vector<std::int64_t> areas;   // rects_[i].area(), for coalesce_one
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

void Region::add(Rect r) {
  if (r.empty()) return;
  // Subtract the parts of `r` already covered, then insert the remainder.
  Scratch& s = scratch();
  std::vector<Rect>& pending = s.pending;
  std::vector<Rect>& next = s.next;
  pending.clear();
  pending.push_back(r);
  for (const Rect& existing : rects_) {
    next.clear();
    for (const Rect& p : pending) {
      const Rect overlap = p.intersect(existing);
      if (overlap.empty()) {
        next.push_back(p);
        continue;
      }
      // Split p \ overlap into up to four bands (top, bottom, left, right).
      if (overlap.y > p.y) {
        next.push_back(Rect{p.x, p.y, p.width, overlap.y - p.y});
      }
      if (overlap.bottom() < p.bottom()) {
        next.push_back(
            Rect{p.x, overlap.bottom(), p.width, p.bottom() - overlap.bottom()});
      }
      if (overlap.x > p.x) {
        next.push_back(
            Rect{p.x, overlap.y, overlap.x - p.x, overlap.height});
      }
      if (overlap.right() < p.right()) {
        next.push_back(Rect{overlap.right(), overlap.y,
                            p.right() - overlap.right(), overlap.height});
      }
    }
    pending.swap(next);
    if (pending.empty()) return;  // fully covered already
  }
  for (const Rect& p : pending) {
    if (!p.empty()) rects_.push_back(p);
  }
  while (rects_.size() > kMaxRects) coalesce_one();
}

void Region::add(const Region& other) {
  for (const Rect& r : other.rects_) add(r);
}

void Region::clip(Rect clip_rect) {
  std::vector<Rect> out;
  out.reserve(rects_.size());
  for (const Rect& r : rects_) {
    const Rect c = r.intersect(clip_rect);
    if (!c.empty()) out.push_back(c);
  }
  rects_ = std::move(out);
}

void Region::translate(int dx, int dy) {
  for (Rect& r : rects_) r = r.translated(dx, dy);
}

bool Region::contains(Point p) const {
  for (const Rect& r : rects_) {
    if (r.contains(p)) return true;
  }
  return false;
}

bool Region::intersects(Rect r) const {
  for (const Rect& existing : rects_) {
    if (!existing.intersect(r).empty()) return true;
  }
  return false;
}

void Region::coalesce_one() {
  assert(rects_.size() >= 2);
  std::vector<std::int64_t>& areas = scratch().areas;
  areas.clear();
  for (const Rect& r : rects_) areas.push_back(r.area());
  std::size_t best_i = 0, best_j = 1;
  std::int64_t best_waste = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < rects_.size(); ++i) {
    for (std::size_t j = i + 1; j < rects_.size(); ++j) {
      const std::int64_t waste =
          rects_[i].join(rects_[j]).area() - areas[i] - areas[j];
      if (waste < best_waste) {
        best_waste = waste;
        best_i = i;
        best_j = j;
      }
    }
  }
  Rect joined = rects_[best_i].join(rects_[best_j]);
  // Remove the higher index first so the lower index stays valid.
  rects_.erase(rects_.begin() + static_cast<std::ptrdiff_t>(best_j));
  rects_.erase(rects_.begin() + static_cast<std::ptrdiff_t>(best_i));
  // The join may now overlap other rects; absorb them into the join rather
  // than re-splitting (splitting could *grow* the rect count and prevent
  // the budget loop from terminating).  Each pass removes at least one
  // rect, so this strictly shrinks the set.
  bool absorbed = true;
  while (absorbed) {
    absorbed = false;
    for (auto it = rects_.begin(); it != rects_.end();) {
      if (!joined.intersect(*it).empty()) {
        joined = joined.join(*it);
        it = rects_.erase(it);
        absorbed = true;
      } else {
        ++it;
      }
    }
  }
  rects_.push_back(joined);
}

}  // namespace ccdem::gfx
