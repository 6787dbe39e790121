#include "gfx/region.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "sim/rng.h"

// Counts every global operator new in this test binary, so a test can
// assert that a code path does not allocate.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ccdem::gfx {
namespace {

TEST(Region, StartsEmpty) {
  Region r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.area(), 0);
  EXPECT_TRUE(r.bounds().empty());
}

TEST(Region, SingleRect) {
  Region r(Rect{1, 2, 3, 4});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.area(), 12);
  EXPECT_EQ(r.bounds(), (Rect{1, 2, 3, 4}));
}

TEST(Region, EmptyRectIgnored) {
  Region r;
  r.add(Rect{0, 0, 0, 5});
  EXPECT_TRUE(r.empty());
}

TEST(Region, DisjointRectsAreExact) {
  Region r;
  r.add(Rect{0, 0, 10, 10});
  r.add(Rect{100, 100, 10, 10});
  EXPECT_EQ(r.area(), 200);
  // The bounding box is much larger than the actual covered area -- the
  // whole point of multi-rect tracking.
  EXPECT_EQ(r.bounds().area(), 110 * 110);
}

TEST(Region, OverlapNotDoubleCounted) {
  Region r;
  r.add(Rect{0, 0, 10, 10});
  r.add(Rect{5, 5, 10, 10});
  EXPECT_EQ(r.area(), 100 + 100 - 25);
}

TEST(Region, FullyContainedAddIsNoop) {
  Region r;
  r.add(Rect{0, 0, 20, 20});
  r.add(Rect{5, 5, 5, 5});
  EXPECT_EQ(r.area(), 400);
}

TEST(Region, IdenticalAddIsIdempotent) {
  Region r;
  r.add(Rect{3, 3, 7, 7});
  r.add(Rect{3, 3, 7, 7});
  EXPECT_EQ(r.area(), 49);
}

TEST(Region, ContainsPoints) {
  Region r;
  r.add(Rect{0, 0, 10, 10});
  r.add(Rect{20, 20, 10, 10});
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_TRUE(r.contains({25, 25}));
  EXPECT_FALSE(r.contains({15, 15}));  // in bounds gap
}

TEST(Region, Intersects) {
  Region r(Rect{0, 0, 10, 10});
  EXPECT_TRUE(r.intersects(Rect{5, 5, 10, 10}));
  EXPECT_FALSE(r.intersects(Rect{20, 20, 5, 5}));
}

TEST(Region, ClipRestricts) {
  Region r;
  r.add(Rect{0, 0, 10, 10});
  r.add(Rect{20, 0, 10, 10});
  r.clip(Rect{0, 0, 15, 15});
  EXPECT_EQ(r.area(), 100);
  EXPECT_FALSE(r.contains({22, 2}));
}

TEST(Region, Translate) {
  Region r(Rect{0, 0, 5, 5});
  r.translate(10, 20);
  EXPECT_TRUE(r.contains({12, 22}));
  EXPECT_FALSE(r.contains({2, 2}));
}

TEST(Region, AddRegionMerges) {
  Region a(Rect{0, 0, 10, 10});
  Region b;
  b.add(Rect{5, 0, 10, 10});
  b.add(Rect{30, 30, 2, 2});
  a.add(b);
  EXPECT_EQ(a.area(), 150 + 4);
}

TEST(Region, CoalescesBeyondMaxRects) {
  Region r;
  // 4 * kMaxRects disjoint unit rects along a diagonal.
  for (int i = 0; i < static_cast<int>(Region::kMaxRects) * 4; ++i) {
    r.add(Rect{i * 3, i * 3, 1, 1});
  }
  EXPECT_LE(r.rects().size(), Region::kMaxRects);
  // Coverage may grow (coalescing joins) but never shrinks below the input.
  EXPECT_GE(r.area(), static_cast<std::int64_t>(Region::kMaxRects) * 4);
  // Every original point is still covered.
  for (int i = 0; i < static_cast<int>(Region::kMaxRects) * 4; ++i) {
    EXPECT_TRUE(r.contains({i * 3, i * 3}));
  }
}

TEST(Region, RectsStayDisjointUnderRandomAdds) {
  sim::Rng rng(21);
  Region r;
  for (int i = 0; i < 200; ++i) {
    r.add(Rect{static_cast<int>(rng.uniform_int(0, 90)),
               static_cast<int>(rng.uniform_int(0, 90)),
               static_cast<int>(rng.uniform_int(1, 20)),
               static_cast<int>(rng.uniform_int(1, 20))});
  }
  const auto& rects = r.rects();
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      EXPECT_TRUE(rects[i].intersect(rects[j]).empty())
          << "rects " << i << " and " << j << " overlap";
    }
  }
  EXPECT_LE(r.area(), r.bounds().area());
}

TEST(Region, AreaNeverExceedsBoundsUnderCoalescing) {
  sim::Rng rng(22);
  Region r;
  for (int i = 0; i < 100; ++i) {
    r.add(Rect{static_cast<int>(rng.uniform_int(0, 700)),
               static_cast<int>(rng.uniform_int(0, 1200)),
               static_cast<int>(rng.uniform_int(1, 60)),
               static_cast<int>(rng.uniform_int(1, 60))});
    EXPECT_LE(r.area(), r.bounds().area());
    EXPECT_LE(r.rects().size(), Region::kMaxRects);
  }
}

// The previous Region::add / coalesce_one over a plain vector: a fresh
// vector of pending pieces per existing rect, areas recomputed per pair.
// Kept as the reference for rect order and coalesce tie-breaks, which feed
// the compositor's damage and so the meter's work counters and goldens.
void reference_coalesce_one(std::vector<Rect>& rects) {
  std::size_t best_i = 0, best_j = 1;
  std::int64_t best_waste = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      const Rect joined = rects[i].join(rects[j]);
      const std::int64_t waste =
          joined.area() - rects[i].area() - rects[j].area();
      if (waste < best_waste) {
        best_waste = waste;
        best_i = i;
        best_j = j;
      }
    }
  }
  Rect joined = rects[best_i].join(rects[best_j]);
  rects.erase(rects.begin() + static_cast<std::ptrdiff_t>(best_j));
  rects.erase(rects.begin() + static_cast<std::ptrdiff_t>(best_i));
  bool absorbed = true;
  while (absorbed) {
    absorbed = false;
    for (auto it = rects.begin(); it != rects.end();) {
      if (!joined.intersect(*it).empty()) {
        joined = joined.join(*it);
        it = rects.erase(it);
        absorbed = true;
      } else {
        ++it;
      }
    }
  }
  rects.push_back(joined);
}

void reference_add(std::vector<Rect>& rects, Rect r) {
  if (r.empty()) return;
  std::vector<Rect> pending{r};
  for (const Rect& existing : rects) {
    std::vector<Rect> next;
    for (const Rect& p : pending) {
      const Rect overlap = p.intersect(existing);
      if (overlap.empty()) {
        next.push_back(p);
        continue;
      }
      if (overlap.y > p.y) {
        next.push_back(Rect{p.x, p.y, p.width, overlap.y - p.y});
      }
      if (overlap.bottom() < p.bottom()) {
        next.push_back(
            Rect{p.x, overlap.bottom(), p.width, p.bottom() - overlap.bottom()});
      }
      if (overlap.x > p.x) {
        next.push_back(Rect{p.x, overlap.y, overlap.x - p.x, overlap.height});
      }
      if (overlap.right() < p.right()) {
        next.push_back(Rect{overlap.right(), overlap.y,
                            p.right() - overlap.right(), overlap.height});
      }
    }
    pending = std::move(next);
    if (pending.empty()) return;
  }
  for (const Rect& p : pending) {
    if (!p.empty()) rects.push_back(p);
  }
  while (rects.size() > Region::kMaxRects) reference_coalesce_one(rects);
}

TEST(Region, MatchesReferenceRectForRectUnderSpriteStreams) {
  // Game-like frames: sprites erase a box at the old position and draw one
  // at a nearby new position, so boxes overlap their predecessors and each
  // other, and every frame exceeds kMaxRects.  Odd seeds keep accumulating
  // across frames (a surface re-posted before composition); even seeds
  // start each frame empty (the canvas hands its region over per frame).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim::Rng rng(seed);
    const int sprites = static_cast<int>(rng.uniform_int(6, 12));
    const int half = static_cast<int>(rng.uniform_int(4, 44));
    std::vector<Point> pos;
    for (int i = 0; i < sprites; ++i) {
      pos.push_back(Point{static_cast<int>(rng.uniform_int(0, 720)),
                          static_cast<int>(rng.uniform_int(0, 1280))});
    }
    Region region;
    std::vector<Rect> ref;
    const auto box = [half](Point p) {
      return Rect{p.x - half, p.y - half, 2 * half + 1, 2 * half + 1};
    };
    for (int frame = 0; frame < 40; ++frame) {
      if (seed % 2 == 0) {
        region.clear();
        ref.clear();
      }
      std::vector<Rect> adds;
      for (Point& p : pos) {
        adds.push_back(box(p));
        p.x += static_cast<int>(rng.uniform_int(-half, half));
        p.y += static_cast<int>(rng.uniform_int(-half, half));
      }
      for (const Point& p : pos) adds.push_back(box(p));
      // Now and then a stray rect: a HUD strip or a degenerate add.
      if (rng.uniform_int(0, 3) == 0) adds.push_back(Rect{0, 0, 720, 56});
      if (rng.uniform_int(0, 5) == 0) adds.push_back(Rect{5, 5, 0, 9});
      for (std::size_t k = 0; k < adds.size(); ++k) {
        region.add(adds[k]);
        reference_add(ref, adds[k]);
        ASSERT_EQ(region.rects(), ref)
            << "seed " << seed << " frame " << frame << " add " << k;
      }
    }
  }
}

TEST(Region, WarmAddAndCoalesceDoNotAllocate) {
  // One game frame: eight erase boxes and eight overlapping draw boxes, so
  // the region splits pieces and coalesces past kMaxRects.  The first pass
  // sizes the region and the per-thread scratch; a repeat of the same frame
  // must then add and coalesce without touching the heap.
  std::vector<Rect> frame;
  for (int i = 0; i < 8; ++i) {
    frame.push_back(Rect{40 + 80 * i, 100 + 130 * i, 89, 89});
  }
  for (int i = 0; i < 8; ++i) {
    frame.push_back(Rect{60 + 80 * i, 120 + 125 * i, 89, 89});
  }
  frame.push_back(Rect{0, 0, 720, 56});
  Region region;
  for (const Rect& r : frame) region.add(r);
  ASSERT_EQ(region.rects().size(), Region::kMaxRects);
  region.clear();
  const std::size_t before = g_allocations;
  for (const Rect& r : frame) region.add(r);
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(region.rects().size(), Region::kMaxRects);
}

TEST(Region, AddRegionMatchesReference) {
  sim::Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    Region a, b;
    std::vector<Rect> ref;
    for (int i = 0; i < 20; ++i) {
      const Rect r{static_cast<int>(rng.uniform_int(0, 200)),
                   static_cast<int>(rng.uniform_int(0, 200)),
                   static_cast<int>(rng.uniform_int(1, 50)),
                   static_cast<int>(rng.uniform_int(1, 50))};
      if (i % 2 == 0) {
        a.add(r);
        reference_add(ref, r);
      } else {
        b.add(r);
      }
    }
    for (const Rect& r : b.rects()) reference_add(ref, r);
    a.add(b);
    ASSERT_EQ(a.rects(), ref) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ccdem::gfx
