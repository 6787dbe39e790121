#include "core/content_rate_meter.h"

#include <gtest/gtest.h>

#include "gfx/surface_flinger.h"

namespace ccdem::core {
namespace {

constexpr gfx::Size kScreen{100, 100};

/// Feeds the meter a synthetic frame: optionally mutates a sampled pixel
/// first so the frame reads as meaningful.  Honours the compositor's damage
/// contract: every mutated pixel is covered by dirty/damage (a real
/// compositor cannot change the framebuffer without composing the change).
class MeterFeeder {
 public:
  MeterFeeder() : fb_(kScreen) {}

  void feed(ContentRateMeter& meter, sim::Time t, bool change,
            bool ground_truth_matches = true) {
    gfx::FrameInfo info;
    info.seq = ++seq_;
    info.composed_at = t;
    if (change) {
      // (5, 5) is the centre of the first cell of a 10x10 grid.
      toggle_ = !toggle_;
      fb_.set(5, 5, toggle_ ? gfx::colors::kRed : gfx::colors::kGreen);
      info.damage = gfx::Region(gfx::Rect{5, 5, 1, 1});
    }
    info.content_changed = ground_truth_matches ? change : !change;
    meter.on_frame(info, fb_);
  }

 private:
  gfx::Framebuffer fb_;
  std::uint64_t seq_ = 0;
  bool toggle_ = false;
};

ContentRateMeter make_meter() {
  return ContentRateMeter(kScreen, GridSpec{10, 10}, sim::seconds(1));
}

TEST(ContentRateMeter, FirstFrameIsMeaningful) {
  auto meter = make_meter();
  MeterFeeder f;
  f.feed(meter, sim::Time{}, /*change=*/false, /*gt=*/false);
  EXPECT_EQ(meter.total_frames(), 1u);
  EXPECT_EQ(meter.meaningful_frames(), 1u);
}

TEST(ContentRateMeter, DetectsRedundantFrames) {
  auto meter = make_meter();
  MeterFeeder f;
  f.feed(meter, sim::Time{0}, true);
  f.feed(meter, sim::Time{10'000}, false);
  f.feed(meter, sim::Time{20'000}, false);
  EXPECT_EQ(meter.total_frames(), 3u);
  EXPECT_EQ(meter.meaningful_frames(), 1u);
  EXPECT_EQ(meter.redundant_frames(), 2u);
}

TEST(ContentRateMeter, DetectsAlternatingContent) {
  auto meter = make_meter();
  MeterFeeder f;
  for (int i = 0; i < 10; ++i) {
    f.feed(meter, sim::Time{i * 10'000}, i % 2 == 0);
  }
  EXPECT_EQ(meter.meaningful_frames(), 5u);
}

TEST(ContentRateMeter, ContentRateCountsWindowOnly) {
  auto meter = make_meter();
  MeterFeeder f;
  // 10 meaningful frames in the first second.
  for (int i = 0; i < 10; ++i) {
    f.feed(meter, sim::Time{i * 100'000}, true);
  }
  EXPECT_DOUBLE_EQ(meter.content_rate(sim::Time{900'000}), 10.0);
  // Two seconds later the window is empty.
  EXPECT_DOUBLE_EQ(meter.content_rate(sim::Time{3'000'000}), 0.0);
}

TEST(ContentRateMeter, FrameRateIncludesRedundant) {
  auto meter = make_meter();
  MeterFeeder f;
  for (int i = 0; i < 20; ++i) {
    f.feed(meter, sim::Time{i * 50'000}, i % 2 == 0);
  }
  const sim::Time now{950'000};
  EXPECT_DOUBLE_EQ(meter.frame_rate(now), 20.0);
  EXPECT_DOUBLE_EQ(meter.content_rate(now), 10.0);
  EXPECT_DOUBLE_EQ(meter.redundant_rate(now), 10.0);
}

TEST(ContentRateMeter, ErrorRateZeroWhenAgreeingWithGroundTruth) {
  auto meter = make_meter();
  MeterFeeder f;
  for (int i = 0; i < 50; ++i) {
    f.feed(meter, sim::Time{i * 20'000}, i % 3 == 0);
  }
  EXPECT_EQ(meter.misclassified_frames(), 0u);
  EXPECT_DOUBLE_EQ(meter.error_rate(), 0.0);
}

TEST(ContentRateMeter, CountsMisclassification) {
  auto meter = make_meter();
  MeterFeeder f;
  f.feed(meter, sim::Time{0}, true);
  // Ground truth says "changed" but no sampled pixel moved: a miss.
  f.feed(meter, sim::Time{10'000}, /*change=*/false,
         /*ground_truth_matches=*/false);
  EXPECT_EQ(meter.misclassified_frames(), 1u);
}

TEST(ContentRateMeter, ChangeOffGridIsMissed) {
  ContentRateMeter meter(kScreen, GridSpec{10, 10});
  gfx::Framebuffer fb(kScreen);
  gfx::FrameInfo info;
  info.composed_at = sim::Time{};
  info.content_changed = true;
  meter.on_frame(info, fb);
  // Change a pixel no grid cell centre covers: the damage is real and
  // honestly reported, but its rect contains no centre, so the sparse grid
  // cannot see it.
  fb.set(0, 0, gfx::colors::kWhite);
  info.composed_at = sim::Time{10'000};
  info.damage = gfx::Region(gfx::Rect{0, 0, 1, 1});
  meter.on_frame(info, fb);
  EXPECT_EQ(meter.meaningful_frames(), 1u);       // missed
  EXPECT_EQ(meter.misclassified_frames(), 1u);    // and counted as an error
}

TEST(ContentRateMeter, CompareCostAccumulates) {
  auto meter = make_meter();
  MeterFeeder f;
  const double per_frame = meter.compare_cost_per_frame_ms();
  EXPECT_GT(per_frame, 0.0);
  f.feed(meter, sim::Time{0}, true);
  f.feed(meter, sim::Time{1}, true);
  EXPECT_NEAR(meter.total_compare_ms(), 2.0 * per_frame, 1e-12);
}

TEST(ContentRateMeter, WindowEdgeIsExclusive) {
  // expire() drops observations with t <= now - window; the rates must use
  // exactly the same edge.  An observation exactly one window ago is out;
  // one tick later it is still in.
  auto meter = make_meter();
  MeterFeeder f;
  f.feed(meter, sim::Time{0}, true);
  // One tick before the edge: the t=0 observation still counts.
  EXPECT_DOUBLE_EQ(meter.frame_rate(sim::Time{999'999}), 1.0);
  EXPECT_DOUBLE_EQ(meter.content_rate(sim::Time{999'999}), 1.0);
  // Exactly at the edge (cutoff == t): excluded.
  EXPECT_DOUBLE_EQ(meter.frame_rate(sim::Time{1'000'000}), 0.0);
  EXPECT_DOUBLE_EQ(meter.content_rate(sim::Time{1'000'000}), 0.0);
}

TEST(ContentRateMeter, RatesTolerateNonMonotonicQueries) {
  // The running-count implementation must match the old reverse-scan for a
  // query earlier than the latest one: nothing new expires, so the whole
  // retained window is counted.
  auto meter = make_meter();
  MeterFeeder f;
  for (int i = 0; i < 5; ++i) {
    f.feed(meter, sim::Time{i * 100'000}, i % 2 == 0);
  }
  EXPECT_DOUBLE_EQ(meter.frame_rate(sim::Time{400'000}), 5.0);
  // Earlier query after a later one: the deque only holds observations
  // newer than the last cutoff, so every one of them is in this window too.
  EXPECT_DOUBLE_EQ(meter.frame_rate(sim::Time{200'000}), 5.0);
  EXPECT_DOUBLE_EQ(meter.content_rate(sim::Time{200'000}), 3.0);
}

TEST(ContentRateMeter, WindowSlidesContinuously) {
  auto meter = make_meter();
  MeterFeeder f;
  // One meaningful frame every 100 ms for 3 s: rate stays ~10 fps.
  for (int i = 0; i < 30; ++i) {
    f.feed(meter, sim::Time{i * 100'000}, true);
    if (i >= 10) {
      EXPECT_NEAR(meter.content_rate(sim::Time{i * 100'000}), 10.0, 1.0);
    }
  }
}

}  // namespace
}  // namespace ccdem::core
