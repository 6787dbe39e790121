// Parameterized property tests for grid sampling across every grid
// configuration of Fig. 6 and several screen geometries.
#include "core/grid_sampler.h"

#include <gtest/gtest.h>

#include "core/metering_cost_model.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "sim/rng.h"

namespace ccdem::core {
namespace {

using Param = std::tuple<int /*sweep index*/>;

class GridProperty : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] GridSpec grid() const {
    return GridSpec::figure6_sweep()[static_cast<std::size_t>(GetParam())];
  }
  static constexpr gfx::Size kScreen{720, 1280};
};

TEST_P(GridProperty, SampleCountMatchesSpec) {
  const GridSampler s(kScreen, grid());
  EXPECT_EQ(static_cast<std::int64_t>(s.sample_count()),
            grid().sample_count());
}

TEST_P(GridProperty, PointsAreUniqueAndInBounds) {
  const GridSampler s(kScreen, grid());
  std::set<std::pair<int, int>> seen;
  for (std::size_t k = 0; k < s.sample_count(); ++k) {
    const gfx::Point p = s.point(k);
    EXPECT_TRUE(gfx::Rect::of(kScreen).contains(p));
    EXPECT_TRUE(seen.insert({p.x, p.y}).second) << "duplicate sample point";
  }
}

TEST_P(GridProperty, SelfComparisonNeverDiffers) {
  const GridSampler s(kScreen, grid());
  gfx::Framebuffer fb(kScreen);
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    fb.set(static_cast<int>(rng.uniform_int(0, kScreen.width - 1)),
           static_cast<int>(rng.uniform_int(0, kScreen.height - 1)),
           gfx::Rgb888::from_packed(static_cast<std::uint32_t>(rng.next_u64())));
  }
  gfx::PixelVector snap;
  s.sample(fb, snap);
  const GridSampler::ScanResult res = s.compare_and_refresh(fb, snap);
  EXPECT_FALSE(res.differed);
  EXPECT_EQ(res.compared, static_cast<std::int64_t>(s.sample_count()));
}

TEST_P(GridProperty, EverySampledPixelChangeIsDetected) {
  const GridSampler s(kScreen, grid());
  gfx::Framebuffer fb(kScreen);
  gfx::PixelVector snap;
  s.sample(fb, snap);
  sim::Rng rng(4);
  // Flip 32 randomly chosen sample points, one at a time.  The pass stops
  // at the flipped point and refreshes the snapshot, so restoring the pixel
  // is a difference at the same point, after which the grid agrees again.
  for (int i = 0; i < 32; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(s.sample_count()) - 1));
    const gfx::Point p = s.point(k);
    const gfx::Rgb888 old = fb.at(p.x, p.y);
    const gfx::Rgb888 flipped{static_cast<std::uint8_t>(old.r + 1), old.g,
                              old.b};
    fb.set(p.x, p.y, flipped);
    GridSampler::ScanResult res = s.compare_and_refresh(fb, snap);
    EXPECT_TRUE(res.differed) << "sample " << k;
    EXPECT_EQ(res.compared, static_cast<std::int64_t>(k) + 1);
    EXPECT_EQ(snap[k], flipped);
    fb.set(p.x, p.y, old);
    res = s.compare_and_refresh(fb, snap);
    EXPECT_TRUE(res.differed) << "sample " << k;
    EXPECT_EQ(res.compared, static_cast<std::int64_t>(k) + 1);
    EXPECT_FALSE(s.compare_and_refresh(fb, snap).differed);
  }
}

/// The unculled meter step before compare_and_refresh, kept as its oracle:
/// a full capture (gathered point by point here), an early-exit compare,
/// then the capture becomes the snapshot.
GridSampler::ScanResult capture_compare_swap(const GridSampler& s,
                                             const gfx::Framebuffer& fb,
                                             gfx::PixelVector& snap) {
  gfx::PixelVector fresh(s.sample_count());
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    const gfx::Point p = s.point(k);
    fresh[k] = fb.at(p.x, p.y);
  }
  GridSampler::ScanResult res;
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    ++res.compared;
    if (fresh[k] != snap[k]) {
      res.differed = true;
      break;
    }
  }
  std::swap(snap, fresh);
  return res;
}

/// Flips one bit of one channel of one random sample, as
/// FaultInjector::corrupt_samples does.
void flip_random_bit(gfx::PixelVector& snap, sim::Rng& rng) {
  const auto k = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(snap.size()) - 1));
  const auto bit = static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
  switch (rng.uniform_int(0, 2)) {
    case 0: snap[k].r ^= bit; break;
    case 1: snap[k].g ^= bit; break;
    default: snap[k].b ^= bit; break;
  }
}

TEST_P(GridProperty, CompareAndRefreshMatchesCaptureCompareSwap) {
  const GridSampler s(kScreen, grid());
  const auto n = static_cast<std::int64_t>(s.sample_count());
  const int cols = grid().cols;
  gfx::Framebuffer fb(kScreen);
  sim::Rng rng(6);
  for (int y = 0; y < kScreen.height; ++y) {
    for (gfx::Rgb888& px : fb.row(y)) {
      px = gfx::Rgb888::from_packed(static_cast<std::uint32_t>(rng.next_u64()));
    }
  }
  gfx::PixelVector snap;
  s.sample(fb, snap);

  // Runs both passes from the same snapshot and requires the same verdict,
  // compared count and refreshed snapshot; the snapshot then carries on.
  const auto check = [&](const char* what, std::int64_t want_compared) {
    gfx::PixelVector want = snap;
    const GridSampler::ScanResult ref = capture_compare_swap(s, fb, want);
    const GridSampler::ScanResult got = s.compare_and_refresh(fb, snap);
    EXPECT_EQ(got.differed, ref.differed) << what;
    EXPECT_EQ(got.compared, ref.compared) << what;
    EXPECT_EQ(got.compared, want_compared) << what;
    EXPECT_TRUE(snap == want) << what;
  };
  // Changes the frame at grid point k.
  const auto change_point = [&](std::int64_t k) {
    const gfx::Point p = s.point(static_cast<std::size_t>(k));
    const gfx::Rgb888 c = fb.at(p.x, p.y);
    fb.set(p.x, p.y, gfx::Rgb888{c.r, c.g, static_cast<std::uint8_t>(c.b ^ 1)});
  };

  check("identical frame", n);
  change_point(0);
  check("first point", 1);
  const std::int64_t mid = (n / cols / 2) * cols + cols / 2;
  change_point(mid);
  check("mid-row point", mid + 1);
  change_point(n - 1);
  check("last point", n);
  // A frame that differs in a later row as well: the first point decides
  // the count, and every later point is still refreshed.
  change_point(mid);
  change_point(n - 1);
  fb.fill_rect(gfx::Rect{0, kScreen.height - 40, kScreen.width, 40},
               gfx::colors::kYellow);
  check("mid-row and bottom band", mid + 1);
  check("settled", n);

  // Retained snapshots with bit flips, over frames that change in random
  // small rects or not at all.
  for (int step = 0; step < 24; ++step) {
    const int flips = static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) flip_random_bit(snap, rng);
    if (rng.chance(0.5)) {
      fb.fill_rect(
          gfx::Rect{static_cast<int>(rng.uniform_int(0, kScreen.width - 1)),
                    static_cast<int>(rng.uniform_int(0, kScreen.height - 1)),
                    static_cast<int>(rng.uniform_int(1, 64)),
                    static_cast<int>(rng.uniform_int(1, 64))},
          gfx::Rgb888::from_packed(static_cast<std::uint32_t>(rng.next_u64())));
    }
    gfx::PixelVector want = snap;
    const GridSampler::ScanResult ref = capture_compare_swap(s, fb, want);
    const GridSampler::ScanResult got = s.compare_and_refresh(fb, snap);
    ASSERT_EQ(got.differed, ref.differed) << "step " << step;
    ASSERT_EQ(got.compared, ref.compared) << "step " << step;
    ASSERT_TRUE(snap == want) << "step " << step;
  }
}

TEST_P(GridProperty, SampleExtractionRoundTrips) {
  const GridSampler s(kScreen, grid());
  gfx::Framebuffer fb(kScreen);
  sim::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    fb.set(static_cast<int>(rng.uniform_int(0, kScreen.width - 1)),
           static_cast<int>(rng.uniform_int(0, kScreen.height - 1)),
           gfx::colors::kRed);
  }
  gfx::PixelVector snap;
  s.sample(fb, snap);
  ASSERT_EQ(snap.size(), s.sample_count());
  for (std::size_t k = 0; k < snap.size(); ++k) {
    const gfx::Point p = s.point(k);
    EXPECT_EQ(snap[k], fb.at(p.x, p.y));
  }
}

TEST_P(GridProperty, PointsFollowTheAxisCenters) {
  // point(k) is row-major over the per-axis centre tables, which the meter's
  // full-frame reference loop walks directly.
  const GridSampler s(kScreen, grid());
  const auto& xs = s.column_centers();
  const auto& ys = s.row_centers();
  ASSERT_EQ(xs.size(), static_cast<std::size_t>(grid().cols));
  ASSERT_EQ(ys.size(), static_cast<std::size_t>(grid().rows));
  std::size_t k = 0;
  for (const int y : ys) {
    for (const int x : xs) {
      ASSERT_EQ(s.point(k), (gfx::Point{x, y})) << "point " << k;
      ++k;
    }
  }
}

TEST_P(GridProperty, IndexRangeMatchesBruteForceScan) {
  // index_range() is the geometric core of culling: for random rects,
  // including ones hanging off every screen edge, it must select exactly
  // the grid points whose centre the rect contains.  Trials shrink with the
  // grid so each parameter scans a similar number of points.
  const GridSampler s(kScreen, grid());
  const int cols = grid().cols;
  const auto points = static_cast<std::int64_t>(s.sample_count());
  const std::int64_t trials =
      std::clamp<std::int64_t>(8'000'000 / points, 8, 2000);
  sim::Rng rng(99);
  for (std::int64_t trial = 0; trial < trials; ++trial) {
    gfx::Rect r = gfx::Rect::of(kScreen);
    if (trial > 0) {
      r = gfx::Rect{static_cast<int>(rng.uniform_int(-40, kScreen.width)),
                    static_cast<int>(rng.uniform_int(-40, kScreen.height)),
                    static_cast<int>(rng.uniform_int(0, 160)),
                    static_cast<int>(rng.uniform_int(0, 160))};
    }
    const GridSampler::IndexRange range = s.index_range(r);
    std::int64_t expected = 0;
    for (std::int64_t k = 0; k < points; ++k) {
      const bool inside = r.contains(s.point(static_cast<std::size_t>(k)));
      if (inside) ++expected;
      const int col = static_cast<int>(k % cols);
      const int row = static_cast<int>(k / cols);
      ASSERT_EQ(inside, col >= range.col_begin && col < range.col_end &&
                            row >= range.row_begin && row < range.row_end)
          << "trial " << trial << " point " << k;
    }
    ASSERT_EQ(range.count(), expected) << "trial " << trial;
  }
}

TEST_P(GridProperty, CostIsMonotoneAcrossSweep) {
  const MeteringCostModel cost;
  const auto sweep = GridSpec::figure6_sweep();
  const int i = GetParam();
  if (i == 0) return;
  EXPECT_GT(cost.duration_ms(sweep[static_cast<std::size_t>(i)].sample_count()),
            cost.duration_ms(
                sweep[static_cast<std::size_t>(i - 1)].sample_count()));
}

INSTANTIATE_TEST_SUITE_P(Figure6Sweep, GridProperty, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0: return std::string("grid2K");
                             case 1: return std::string("grid4K");
                             case 2: return std::string("grid9K");
                             case 3: return std::string("grid36K");
                             default: return std::string("full921K");
                           }
                         });

}  // namespace
}  // namespace ccdem::core
