// Equivalence of the meter's two retention modes: sampled-snapshot (cheap,
// default) and full-frame (the paper's literal extra-buffer architecture).
// Both compare only grid points, so their classifications must be
// bit-identical on any frame sequence.
#include <gtest/gtest.h>

#include "core/content_rate_meter.h"
#include "sim/rng.h"

namespace ccdem::core {
namespace {

constexpr gfx::Size kScreen{100, 100};

gfx::FrameInfo frame_at(sim::Tick t, gfx::Region damage = {}) {
  gfx::FrameInfo info;
  info.composed_at = sim::Time{t};
  info.content_changed = true;  // ground truth not under test here
  info.damage = std::move(damage);
  return info;
}

TEST(MeterModes, ClassificationsMatchOnRandomSequence) {
  ContentRateMeter sampled(kScreen, GridSpec{10, 10}, sim::seconds(1),
                           MeterMode::kSampledSnapshot);
  ContentRateMeter full(kScreen, GridSpec{10, 10}, sim::seconds(1),
                        MeterMode::kFullFrame);
  gfx::Framebuffer fb(kScreen);
  sim::Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    // Randomly mutate 0-3 pixels anywhere (on or off grid), plus a direct
    // grid-centre hit every fifth frame so both hit and miss paths occur.
    // Every touched pixel is reported as damage (compositor contract).
    gfx::Region damage;
    const auto mutations = rng.uniform_int(0, 3);
    for (int m = 0; m < mutations; ++m) {
      const int x = static_cast<int>(rng.uniform_int(0, 99));
      const int y = static_cast<int>(rng.uniform_int(0, 99));
      fb.set(x, y, gfx::Rgb888::from_packed(
                       static_cast<std::uint32_t>(rng.next_u64())));
      damage.add(gfx::Rect{x, y, 1, 1});
    }
    if (i % 5 == 0) {
      fb.set(45, 45, gfx::Rgb888::from_packed(
                         static_cast<std::uint32_t>(rng.next_u64())));
      damage.add(gfx::Rect{45, 45, 1, 1});
    }
    sampled.on_frame(frame_at(i * 10'000, damage), fb);
    full.on_frame(frame_at(i * 10'000, damage), fb);
    ASSERT_EQ(sampled.meaningful_frames(), full.meaningful_frames())
        << "diverged at frame " << i;
  }
  EXPECT_EQ(sampled.total_frames(), full.total_frames());
  EXPECT_GT(sampled.meaningful_frames(), 30u);   // the grid hits registered
  EXPECT_LT(sampled.meaningful_frames(), 150u);  // and off-grid ones did not
}

TEST(MeterModes, FullFrameRetainsPreviousFrame) {
  ContentRateMeter full(kScreen, GridSpec{10, 10}, sim::seconds(1),
                        MeterMode::kFullFrame);
  gfx::Framebuffer fb(kScreen, gfx::colors::kRed);
  full.on_frame(frame_at(0), fb);
  EXPECT_EQ(full.previous_frame().at(50, 50), gfx::colors::kRed);
  fb.fill(gfx::colors::kBlue);
  full.on_frame(frame_at(10'000, gfx::Region(fb.bounds())), fb);
  EXPECT_EQ(full.previous_frame().at(50, 50), gfx::colors::kBlue);
}

TEST(MeterModes, FullFrameDetectsOnGridChange) {
  ContentRateMeter full(kScreen, GridSpec{10, 10}, sim::seconds(1),
                        MeterMode::kFullFrame);
  gfx::Framebuffer fb(kScreen);
  full.on_frame(frame_at(0), fb);
  fb.set(5, 5, gfx::colors::kWhite);  // grid cell centre
  full.on_frame(frame_at(10'000, gfx::Region(gfx::Rect{5, 5, 1, 1})), fb);
  EXPECT_EQ(full.meaningful_frames(), 2u);
  fb.set(0, 0, gfx::colors::kWhite);  // off grid
  full.on_frame(frame_at(20'000, gfx::Region(gfx::Rect{0, 0, 1, 1})), fb);
  EXPECT_EQ(full.meaningful_frames(), 2u);
}

TEST(MeterModes, DefaultModeIsSampled) {
  ContentRateMeter meter(kScreen, GridSpec{10, 10});
  EXPECT_EQ(meter.mode(), MeterMode::kSampledSnapshot);
}

}  // namespace
}  // namespace ccdem::core
