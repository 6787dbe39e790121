#include "core/grid_sampler.h"

#include <gtest/gtest.h>

namespace ccdem::core {
namespace {

constexpr gfx::Size kScreen{720, 1280};

TEST(GridSpec, PaperConfigurations) {
  EXPECT_EQ(GridSpec::grid_2k().sample_count(), 36 * 64);
  EXPECT_EQ(GridSpec::grid_4k().sample_count(), 48 * 85);
  EXPECT_EQ(GridSpec::grid_9k().sample_count(), 72 * 128);
  EXPECT_EQ(GridSpec::grid_36k().sample_count(), 144 * 256);
  EXPECT_EQ(GridSpec::full_720p().sample_count(), 921'600);
  EXPECT_EQ(GridSpec::figure6_sweep().size(), 5u);
}

TEST(GridSpec, Label) {
  EXPECT_EQ(GridSpec::grid_9k().label(), "9K (72x128)");
}

TEST(GridSampler, SampleCountMatchesGrid) {
  const GridSampler s(kScreen, GridSpec::grid_9k());
  EXPECT_EQ(s.sample_count(), 72u * 128u);
}

TEST(GridSampler, PointsInsideScreen) {
  const GridSampler s(kScreen, GridSpec::grid_2k());
  for (std::size_t k = 0; k < s.sample_count(); ++k) {
    EXPECT_TRUE(gfx::Rect::of(kScreen).contains(s.point(k)));
  }
}

TEST(GridSampler, FullResolutionSamplesEveryPixel) {
  const gfx::Size small{8, 8};
  const GridSampler s(small, GridSpec{8, 8});
  EXPECT_EQ(s.sample_count(), 64u);
  // Every pixel is its own cell; the centre is the pixel itself.
  EXPECT_EQ(s.point(0), (gfx::Point{0, 0}));
  EXPECT_EQ(s.point(63), (gfx::Point{7, 7}));
  // Sampling reads the very last pixel of the buffer (the sanitized suite
  // catches any load past its end).
  gfx::Framebuffer fb(small);
  fb.set(7, 7, gfx::colors::kRed);
  gfx::PixelVector out;
  s.sample(fb, out);
  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(out[63], gfx::colors::kRed);
  EXPECT_EQ(out[62], gfx::colors::kBlack);
}

TEST(GridSampler, CellCentersAreCentered) {
  const gfx::Size screen{100, 100};
  const GridSampler s(screen, GridSpec{10, 10});
  // First cell spans [0, 10); its centre pixel is (5, 5).
  EXPECT_EQ(s.point(0), (gfx::Point{5, 5}));
  // Last cell spans [90, 100); centre (95, 95).
  EXPECT_EQ(s.point(s.sample_count() - 1), (gfx::Point{95, 95}));
}

TEST(GridSampler, SampleExtractsPixels) {
  gfx::Framebuffer fb(100, 100, gfx::colors::kBlack);
  fb.set(5, 5, gfx::colors::kRed);
  const GridSampler s(fb.size(), GridSpec{10, 10});
  gfx::PixelVector out;
  s.sample(fb, out);
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0], gfx::colors::kRed);
  EXPECT_EQ(out[1], gfx::colors::kBlack);
}

TEST(GridSampler, CompareAndRefreshDetectsSampledChange) {
  gfx::Framebuffer fb(100, 100);
  const GridSampler s(fb.size(), GridSpec{10, 10});
  gfx::PixelVector prev;
  s.sample(fb, prev);
  EXPECT_FALSE(s.compare_and_refresh(fb, prev).differed);
  fb.set(5, 5, gfx::colors::kRed);  // a sampled pixel: grid point 0
  const GridSampler::ScanResult res = s.compare_and_refresh(fb, prev);
  EXPECT_TRUE(res.differed);
  EXPECT_EQ(res.compared, 1);
  EXPECT_EQ(prev[0], gfx::colors::kRed);  // refreshed
  EXPECT_FALSE(s.compare_and_refresh(fb, prev).differed);
}

TEST(GridSampler, MissesChangeBetweenSamplePoints) {
  gfx::Framebuffer fb(100, 100);
  const GridSampler s(fb.size(), GridSpec{10, 10});
  gfx::PixelVector prev;
  s.sample(fb, prev);
  fb.set(0, 0, gfx::colors::kRed);  // (0,0) is not a sampled centre
  EXPECT_FALSE(s.compare_and_refresh(fb, prev).differed);
}

TEST(GridSampler, DenseGridCatchesWhatSparseMisses) {
  gfx::Framebuffer fb(720, 1280);
  const GridSampler sparse(fb.size(), GridSpec::grid_2k());
  const GridSampler dense(fb.size(), GridSpec::full_720p());
  gfx::PixelVector prev_sparse, prev_dense;
  sparse.sample(fb, prev_sparse);
  dense.sample(fb, prev_dense);
  // A 3x3 blob positioned to dodge the sparse grid's 20x20 cells.
  fb.fill_rect(gfx::Rect{0, 0, 3, 3}, gfx::colors::kWhite);
  EXPECT_FALSE(sparse.compare_and_refresh(fb, prev_sparse).differed);
  EXPECT_TRUE(dense.compare_and_refresh(fb, prev_dense).differed);
}

}  // namespace
}  // namespace ccdem::core
