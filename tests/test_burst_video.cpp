// BurstVideoScene: burst/gap timeline, per-segment motion levels,
// determinism, and the whole-system check on the Burst Video demo profile.
#include <gtest/gtest.h>

#include "apps/app_profiles.h"
#include "apps/scene_dsl.h"
#include "apps/ui_scene.h"
#include "check/dst.h"
#include "gfx/framebuffer.h"

namespace ccdem::apps {
namespace {

constexpr gfx::Size kScreen{720, 1280};

// 10 frames at 20 fps = 500 ms burst, then a 500 ms gap: 1 s period.
SceneSpec burst_spec() {
  return SceneSpec::burst_video({500, 10, 20.0, {2, 0, 3}});
}

TEST(BurstVideoScene, GapFramesChangeNothing) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  BurstVideoScene scene(burst_spec(), kScreen, sim::Rng(1));
  scene.init(canvas);
  // Render through the first burst so the scene is mid-timeline.
  for (int i = 1; i <= 10; ++i) scene.render(canvas, sim::at_seconds(i / 20.0));
  // The gap [0.5 s, 1.0 s): every render reports no change.
  const auto gap_hash = fb.fast_hash();
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(scene.render(canvas, sim::at_seconds(0.52 + i * 0.05)));
  }
  EXPECT_EQ(fb.fast_hash(), gap_hash);
  EXPECT_DOUBLE_EQ(scene.nominal_content_fps(sim::at_seconds(0.7)), 0.0);
  // The next burst starts at 1.0 s and changes pixels again.  (Its nominal
  // rate is still 0: segment 1 has motion level 0, one backdrop change per
  // segment; segment 2 at level 3 decodes at the full burst rate.)
  EXPECT_TRUE(scene.render(canvas, sim::at_seconds(1.01)));
  EXPECT_DOUBLE_EQ(scene.nominal_content_fps(sim::at_seconds(1.1)), 0.0);
  EXPECT_DOUBLE_EQ(scene.nominal_content_fps(sim::at_seconds(2.1)), 20.0);
}

TEST(BurstVideoScene, MotionLevelZeroSegmentChangesOnce) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  BurstVideoScene scene(burst_spec(), kScreen, sim::Rng(1));
  scene.init(canvas);
  for (int i = 1; i <= 10; ++i) scene.render(canvas, sim::at_seconds(i / 20.0));
  // Segment 1 (t in [1.0 s, 1.5 s)) has motion level 0: its first frame
  // paints the new backdrop, every later frame is a no-op.
  EXPECT_TRUE(scene.render(canvas, sim::at_seconds(1.01)));
  int changes = 0;
  for (int i = 2; i <= 10; ++i) {
    changes += scene.render(canvas, sim::at_seconds(1.0 + i / 20.0)) ? 1 : 0;
  }
  EXPECT_EQ(changes, 0);
  // Segment 2 (level 3) changes on every burst frame.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(scene.render(canvas, sim::at_seconds(2.0 + i / 20.0 - 0.01)))
        << "burst frame " << i;
  }
}

TEST(BurstVideoScene, DeterministicAcrossRngSeeds) {
  gfx::Framebuffer fb1(kScreen), fb2(kScreen);
  gfx::Canvas c1(fb1), c2(fb2);
  BurstVideoScene s1(burst_spec(), kScreen, sim::Rng(1));
  BurstVideoScene s2(burst_spec(), kScreen, sim::Rng(31337));
  s1.init(c1);
  s2.init(c2);
  for (int i = 1; i <= 90; ++i) {
    const sim::Time t = sim::at_seconds(i / 30.0);
    s1.render(c1, t);
    s2.render(c2, t);
    ASSERT_EQ(fb1.fast_hash(), fb2.fast_hash()) << "frame " << i;
  }
}

TEST(BurstVideoScene, SkippedRendersCatchUpToSameFrame) {
  // A renderer that misses most of a burst (a throttled panel) still lands
  // on the same final pixels as one that rendered every frame: frames are a
  // pure function of the timeline position, not of the render history.
  gfx::Framebuffer fb1(kScreen), fb2(kScreen);
  gfx::Canvas c1(fb1), c2(fb2);
  BurstVideoScene dense(burst_spec(), kScreen, sim::Rng(1));
  BurstVideoScene sparse(burst_spec(), kScreen, sim::Rng(1));
  dense.init(c1);
  sparse.init(c2);
  for (int i = 1; i <= 40; ++i) dense.render(c1, sim::at_seconds(i / 20.0));
  sparse.render(c2, sim::at_seconds(40 / 20.0));
  EXPECT_EQ(fb1.fast_hash(), fb2.fast_hash());
}

TEST(BurstVideoCheck, DemoProfilePassesAllOracles) {
  check::Scenario s;
  s.app = "Burst Video";
  s.duration_ms = 3000;
  s.seed = 99;
  const check::CheckReport report = check::check_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(BurstVideoCheck, DslOverrideReachesConfig) {
  check::Scenario s;
  s.app = "Burst Video";
  s.scene = scene_spec_to_string(burst_spec());
  const auto cfg = s.experiment_config();
  ASSERT_EQ(cfg.app.scene.type, SceneSpec::Type::kBurstVideo);
  EXPECT_EQ(cfg.app.scene.burst, burst_spec().burst);
}

}  // namespace
}  // namespace ccdem::apps
