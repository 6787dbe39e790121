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
  std::vector<gfx::Rgb888> snap;
  s.sample(fb, snap);
  EXPECT_FALSE(s.differs(fb, snap));
}

TEST_P(GridProperty, EverySampledPixelChangeIsDetected) {
  const GridSampler s(kScreen, grid());
  gfx::Framebuffer fb(kScreen);
  std::vector<gfx::Rgb888> snap;
  s.sample(fb, snap);
  sim::Rng rng(4);
  // Flip 32 randomly chosen sample points, one at a time.
  for (int i = 0; i < 32; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(s.sample_count()) - 1));
    const gfx::Point p = s.point(k);
    const gfx::Rgb888 old = fb.at(p.x, p.y);
    fb.set(p.x, p.y, gfx::Rgb888{static_cast<std::uint8_t>(old.r + 1),
                                 old.g, old.b});
    EXPECT_TRUE(s.differs(fb, snap)) << "sample " << k;
    fb.set(p.x, p.y, old);
    EXPECT_FALSE(s.differs(fb, snap));
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
  std::vector<gfx::Rgb888> snap;
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
