// Property tests for the meter's damage-scoped classification: culling may
// only change how much work the host does, never a verdict.
//
// The compositor's contract (FrameInfo::damage covers every pixel that
// differs from the previous frame) makes grid points outside the damage
// provably redundant to compare.  These tests drive randomized scenes and
// damage patterns through paired meters -- one culled, one running the full
// pre-culling scan -- across both retention modes and the paper's grid
// sweep, and require bit-identical classifications, misclassification
// counts, and a work ledger that accounts for every grid point.
#include <gtest/gtest.h>

#include "core/content_rate_meter.h"
#include "gfx/region.h"
#include "obs/obs.h"
#include "sim/rng.h"

namespace ccdem::core {
namespace {

// Large enough for the 144x256 grid; a quarter of the paper's 720x1280
// panel keeps the full-frame mode's copies cheap.
constexpr gfx::Size kScreen{360, 640};

gfx::Rect random_rect_on_screen(sim::Rng& rng) {
  const int w = static_cast<int>(rng.uniform_int(1, 120));
  const int h = static_cast<int>(rng.uniform_int(1, 120));
  const int x = static_cast<int>(rng.uniform_int(0, kScreen.width - 1));
  const int y = static_cast<int>(rng.uniform_int(0, kScreen.height - 1));
  return gfx::Rect{x, y, w, h}.intersect(gfx::Rect::of(kScreen));
}

/// One randomized frame: mutates `fb` inside rects it reports as damage.
/// Roughly a third of frames are redundant re-posts (empty damage), a few
/// repaint a full-width band (scroll-like), the rest scatter small patches.
gfx::Region mutate_scene(gfx::Framebuffer& fb, sim::Rng& rng) {
  gfx::Region damage;
  const auto kind = rng.uniform_int(0, 8);
  if (kind <= 2) return damage;  // redundant frame: nothing painted
  if (kind == 3) {
    // Full-width band, like a feed scroll repaint.
    const int y = static_cast<int>(rng.uniform_int(0, kScreen.height - 1));
    const int h = static_cast<int>(rng.uniform_int(20, 200));
    const gfx::Rect band =
        gfx::Rect{0, y, kScreen.width, h}.intersect(gfx::Rect::of(kScreen));
    fb.fill_rect(band, gfx::Rgb888::from_packed(
                           static_cast<std::uint32_t>(rng.next_u64())));
    damage.add(band);
    return damage;
  }
  const auto patches = rng.uniform_int(1, 4);
  for (int p = 0; p < patches; ++p) {
    const gfx::Rect r = random_rect_on_screen(rng);
    // Half the patches repaint with the colour already there (damage that
    // changes nothing -- posted but visually redundant), half with a fresh
    // colour; both must be inside the reported damage.
    const gfx::Rgb888 c =
        rng.uniform_int(0, 1) == 0
            ? fb.at(r.x, r.y)
            : gfx::Rgb888::from_packed(
                  static_cast<std::uint32_t>(rng.next_u64()));
    fb.fill_rect(r, c);
    damage.add(r);
  }
  return damage;
}

struct MeterUnderTest {
  obs::ObsSink sink;
  ContentRateMeter meter;

  MeterUnderTest(GridSpec grid, MeterMode mode, bool culling)
      : meter(kScreen, grid, sim::seconds(1), mode) {
    meter.set_damage_culling(culling);
    meter.set_obs(&sink);
  }

  [[nodiscard]] std::uint64_t counter(const char* name) {
    return sink.counters.value(name);
  }
};

void run_equivalence(GridSpec grid, MeterMode mode, std::uint64_t seed) {
  MeterUnderTest culled(grid, mode, /*culling=*/true);
  MeterUnderTest reference(grid, mode, /*culling=*/false);
  ASSERT_TRUE(culled.meter.damage_culling());
  ASSERT_FALSE(reference.meter.damage_culling());

  gfx::Framebuffer fb(kScreen);
  gfx::Framebuffer prev = fb;
  sim::Rng rng(seed);
  const int frames = 120;
  for (int i = 0; i < frames; ++i) {
    gfx::FrameInfo info;
    info.seq = static_cast<std::uint64_t>(i) + 1;
    info.composed_at = sim::Time{i * 16'667};
    info.damage = mutate_scene(fb, rng);
    info.content_changed = !fb.equals(prev);  // exact ground truth
    prev = fb;

    culled.meter.on_frame(info, fb);
    reference.meter.on_frame(info, fb);
    ASSERT_EQ(culled.meter.meaningful_frames(),
              reference.meter.meaningful_frames())
        << grid.label() << " diverged at frame " << i;
    ASSERT_EQ(culled.meter.misclassified_frames(),
              reference.meter.misclassified_frames())
        << grid.label() << " misclassification diverged at frame " << i;
  }

  EXPECT_EQ(culled.meter.total_frames(), reference.meter.total_frames());
  // Work ledger: after the priming frame, every grid point of every frame is
  // either compared or provably skipped; the reference path never skips.
  const std::uint64_t per_frame =
      static_cast<std::uint64_t>(grid.sample_count());
  EXPECT_EQ(culled.counter("meter.pixels_compared") +
                culled.counter("meter.pixels_compare_skipped"),
            per_frame * (frames - 1))
      << grid.label();
  EXPECT_EQ(reference.counter("meter.pixels_compare_skipped"), 0u);
  // Culling must actually cull on this workload (a third of the frames are
  // empty-damage alone).
  EXPECT_LT(culled.counter("meter.pixels_compared"),
            reference.counter("meter.pixels_compared"))
      << grid.label();
}

TEST(DamageCulling, SampledModeMatchesReferenceAcrossGrids) {
  for (const GridSpec grid :
       {GridSpec::grid_2k(), GridSpec::grid_4k(), GridSpec::grid_9k(),
        GridSpec::grid_36k()}) {
    run_equivalence(grid, MeterMode::kSampledSnapshot, 1000 + grid.cols);
  }
}

TEST(DamageCulling, FullFrameModeMatchesReferenceAcrossGrids) {
  for (const GridSpec grid :
       {GridSpec::grid_2k(), GridSpec::grid_4k(), GridSpec::grid_9k(),
        GridSpec::grid_36k()}) {
    run_equivalence(grid, MeterMode::kFullFrame, 2000 + grid.cols);
  }
}

TEST(DamageCulling, EmptyDamageTouchesNoPixels) {
  MeterUnderTest m(GridSpec::grid_9k(), MeterMode::kSampledSnapshot, true);
  gfx::Framebuffer fb(kScreen, gfx::colors::kGray);
  gfx::FrameInfo info;
  info.seq = 1;
  info.composed_at = sim::Time{0};
  info.content_changed = true;
  info.damage = gfx::Region(gfx::Rect::of(kScreen));
  m.meter.on_frame(info, fb);  // priming
  for (int i = 0; i < 10; ++i) {
    info.seq = static_cast<std::uint64_t>(i) + 2;
    info.composed_at = sim::Time{(i + 1) * 16'667};
    info.content_changed = false;
    info.damage = {};
    m.meter.on_frame(info, fb);
  }
  EXPECT_EQ(m.meter.meaningful_frames(), 1u);
  EXPECT_EQ(m.counter("meter.pixels_compared"), 0u);
  EXPECT_EQ(m.counter("meter.pixels_compare_skipped"),
            10u * static_cast<std::uint64_t>(
                      GridSpec::grid_9k().sample_count()));
}

TEST(GridSampler, IndexRangeMatchesBruteForceScan) {
  // index_range() is the geometric core of culling: for random rects it
  // must select exactly the grid points whose centre the rect contains.
  const GridSampler sampler(kScreen, GridSpec::grid_4k());
  sim::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const gfx::Rect r = trial == 0 ? gfx::Rect::of(kScreen)
                                   : random_rect_on_screen(rng);
    const GridSampler::IndexRange range = sampler.index_range(r);
    std::int64_t expected = 0;
    const int cols = sampler.grid().cols;
    for (std::size_t k = 0; k < sampler.points().size(); ++k) {
      const bool inside = r.contains(sampler.points()[k]);
      if (inside) ++expected;
      const int col = static_cast<int>(k) % cols;
      const int row = static_cast<int>(k) / cols;
      ASSERT_EQ(inside, col >= range.col_begin && col < range.col_end &&
                            row >= range.row_begin && row < range.row_end)
          << "trial " << trial << " point " << k;
    }
    ASSERT_EQ(range.count(), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ccdem::core
