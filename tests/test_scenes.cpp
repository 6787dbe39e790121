#include "apps/scene.h"

#include <gtest/gtest.h>

#include "apps/game_scene.h"
#include "apps/map_scene.h"
#include "apps/static_ui_scene.h"
#include "apps/video_scene.h"
#include "apps/wallpaper_scene.h"
#include "gfx/framebuffer.h"
#include "sim/rng.h"

namespace ccdem::apps {
namespace {

constexpr gfx::Size kScreen{720, 1280};

struct SceneRig {
  explicit SceneRig(const SceneSpec& spec, std::uint64_t seed = 1)
      : fb(kScreen), canvas(fb), scene(make_scene(spec, kScreen,
                                                  sim::Rng(seed))) {
    scene->init(canvas);
    canvas.take_dirty();
  }

  /// Renders at `t`; returns (scene-reported change, pixels actually moved).
  std::pair<bool, bool> render_at(double t_s) {
    const auto before = fb.fast_hash();
    const bool reported = scene->render(canvas, sim::at_seconds(t_s));
    canvas.take_dirty();
    return {reported, before != fb.fast_hash()};
  }

  gfx::Framebuffer fb;
  gfx::Canvas canvas;
  std::unique_ptr<Scene> scene;
};

// --- factory -------------------------------------------------------------

TEST(SceneFactory, BuildsEveryType) {
  for (const SceneSpec& spec :
       {SceneSpec::static_ui(1.0), SceneSpec::video(24.0),
        SceneSpec::game(20.0), SceneSpec::wallpaper(3, 4),
        SceneSpec::typing(), SceneSpec::map()}) {
    EXPECT_NE(make_scene(spec, kScreen, sim::Rng(1)), nullptr);
  }
}

// --- honesty property: reported change == pixels changed ------------------

TEST(SceneHonesty, ReportedChangeMatchesPixels) {
  for (const SceneSpec& spec :
       {SceneSpec::static_ui(2.0), SceneSpec::video(24.0),
        SceneSpec::game(20.0), SceneSpec::wallpaper(5, 6),
        SceneSpec::typing(2.0, 1.5), SceneSpec::map(2.0)}) {
    SceneRig rig(spec);
    for (int i = 1; i <= 120; ++i) {
      const auto [reported, actual] = rig.render_at(i / 60.0);
      EXPECT_EQ(reported, actual)
          << "scene type " << static_cast<int>(spec.type) << " frame " << i;
    }
  }
}

// --- typing -----------------------------------------------------------------

TEST(TypingScene, CursorBlinksAtConfiguredRate) {
  SceneRig rig(SceneSpec::typing(/*cursor_blink_fps=*/2.0,
                                 /*incoming_msg_period_s=*/1e9));
  int changes = 0;
  for (int i = 1; i <= 100; ++i) {  // 10 s at 10 renders/s
    if (rig.render_at(i / 10.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 20, 3);
}

TEST(TypingScene, KeystrokesProduceChanges) {
  SceneRig rig(SceneSpec::typing(/*cursor_blink_fps=*/0.0, 1e9));
  EXPECT_FALSE(rig.render_at(0.1).first);  // fully idle
  rig.scene->on_touch({sim::at_seconds(0.2), {360, 1100},
                       input::TouchEvent::Action::kDown});
  EXPECT_TRUE(rig.render_at(0.3).first);   // key highlight + text
  EXPECT_TRUE(rig.render_at(0.4).first);   // key un-highlight
  EXPECT_FALSE(rig.render_at(0.5).first);  // settled
}

TEST(TypingScene, IncomingMessagesScrollConversation) {
  SceneRig rig(SceneSpec::typing(/*cursor_blink_fps=*/0.0,
                                 /*incoming_msg_period_s=*/1.0));
  int changes = 0;
  for (int i = 1; i <= 50; ++i) {  // 5 s at 10 renders/s
    if (rig.render_at(i / 10.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 5, 1);
}

// --- static UI -------------------------------------------------------------

TEST(StaticUiScene, IdleContentTicksAtConfiguredRate) {
  SceneRig rig(SceneSpec::static_ui(/*idle_content_fps=*/2.0));
  int changes = 0;
  // 60 renders over 10 s -> expect ~20 content changes.
  for (int i = 1; i <= 60; ++i) {
    if (rig.render_at(i / 6.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 20, 3);
}

TEST(StaticUiScene, ZeroIdleContentIsFullyStatic) {
  SceneRig rig(SceneSpec::static_ui(0.0));
  for (int i = 1; i <= 30; ++i) {
    EXPECT_FALSE(rig.render_at(i / 10.0).first);
  }
}

TEST(StaticUiScene, TouchMovesQueueScroll) {
  SceneSpec spec = SceneSpec::static_ui(0.0);
  SceneRig rig(spec);
  auto* ui = dynamic_cast<StaticUiScene*>(rig.scene.get());
  ASSERT_NE(ui, nullptr);
  EXPECT_EQ(ui->pending_scroll_px(), 0);
  ui->on_touch({sim::at_seconds(0.1), {360, 640},
                input::TouchEvent::Action::kMove});
  EXPECT_EQ(ui->pending_scroll_px(), spec.scroll_px_per_move);
  ui->on_touch({sim::at_seconds(0.15), {360, 640},
                input::TouchEvent::Action::kUp});
  EXPECT_EQ(ui->pending_scroll_px(),
            spec.scroll_px_per_move + spec.fling_px);
}

TEST(StaticUiScene, ScrollMakesRendersMeaningfulUntilConsumed) {
  SceneSpec spec = SceneSpec::static_ui(0.0);
  spec.scroll_px_per_move = 40;
  spec.fling_px = 0;
  SceneRig rig(spec);
  auto* ui = dynamic_cast<StaticUiScene*>(rig.scene.get());
  // Queue exactly two frames' worth of scroll.
  ui->on_touch({sim::at_seconds(0.1), {1, 1},
                input::TouchEvent::Action::kMove});
  ui->on_touch({sim::at_seconds(0.1), {1, 1},
                input::TouchEvent::Action::kMove});
  EXPECT_TRUE(rig.render_at(0.2).first);
  EXPECT_TRUE(rig.render_at(0.3).first);
  EXPECT_FALSE(rig.render_at(0.4).first);  // queue drained
}

// --- video ----------------------------------------------------------------

TEST(VideoScene, ContentFollowsVideoFps) {
  SceneRig rig(SceneSpec::video(24.0));
  int changes = 0;
  for (int i = 1; i <= 120; ++i) {  // 2 s at 60 renders/s
    if (rig.render_at(i / 60.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 48, 3);
}

TEST(VideoScene, RendersFasterThanVideoAreRedundant) {
  SceneRig rig(SceneSpec::video(1.0));
  EXPECT_TRUE(rig.render_at(1.01).first);   // new video frame
  EXPECT_FALSE(rig.render_at(1.02).first);  // same video frame
  EXPECT_FALSE(rig.render_at(1.50).first);
  EXPECT_TRUE(rig.render_at(2.01).first);
}

TEST(VideoScene, TouchRepaintsControls) {
  SceneRig rig(SceneSpec::video(1.0));
  rig.render_at(0.5);
  rig.scene->on_touch({sim::at_seconds(0.6), {360, 1200},
                       input::TouchEvent::Action::kDown});
  EXPECT_TRUE(rig.render_at(0.61).first);
}

// --- game -------------------------------------------------------------------

TEST(GameScene, LogicTicksAtContentFps) {
  SceneRig rig(SceneSpec::game(/*content_fps=*/20.0));
  int changes = 0;
  for (int i = 1; i <= 120; ++i) {
    if (rig.render_at(i / 60.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 40, 4);
}

TEST(GameScene, TouchRaisesContentRate) {
  SceneSpec spec = SceneSpec::game(10.0, 8, /*touch_boost_fps=*/30.0);
  spec.touch_boost_hold_s = 10.0;  // keep boosted for the whole test
  SceneRig rig(spec);
  rig.scene->on_touch({sim::at_seconds(0.0), {360, 640},
                       input::TouchEvent::Action::kDown});
  int changes = 0;
  for (int i = 1; i <= 60; ++i) {
    if (rig.render_at(i / 60.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 40, 5);  // 10 + 30 fps while boosted
  EXPECT_NEAR(rig.scene->nominal_content_fps(sim::at_seconds(0.5)), 40.0, 1e-9);
}

TEST(GameScene, SlowRendersStillAdvanceLogic) {
  // Rendering at 5 fps with 20 fps logic: every render shows new content.
  SceneRig rig(SceneSpec::game(20.0));
  for (int i = 1; i <= 10; ++i) {
    EXPECT_TRUE(rig.render_at(i / 5.0).first);
  }
}

// --- map --------------------------------------------------------------------

TEST(MapScene2D, MarkerPulsesAtConfiguredRate) {
  SceneRig rig(SceneSpec::map(/*marker_pulse_fps=*/2.0));
  int changes = 0;
  for (int i = 1; i <= 100; ++i) {  // 10 s at 10 renders/s
    if (rig.render_at(i / 10.0).first) ++changes;
  }
  EXPECT_NEAR(changes, 20, 3);
}

TEST(MapScene2D, DragPansInBothAxes) {
  SceneSpec spec = SceneSpec::map(0.0);  // no pulse: isolate panning
  SceneRig rig(spec);
  auto* map = dynamic_cast<MapScene*>(rig.scene.get());
  ASSERT_NE(map, nullptr);
  const gfx::Point before = map->viewport_origin();
  rig.scene->on_touch({sim::at_seconds(0.1), {400, 700},
                       input::TouchEvent::Action::kDown});
  rig.scene->on_touch({sim::at_seconds(0.12), {380, 660},
                       input::TouchEvent::Action::kMove});
  rig.scene->on_touch({sim::at_seconds(0.14), {380, 660},
                       input::TouchEvent::Action::kUp});
  EXPECT_TRUE(rig.render_at(0.2).first);
  const gfx::Point after = map->viewport_origin();
  // Finger moved left+up by (20, 40) => viewport moved right+down.
  EXPECT_EQ(after.x - before.x, 20);
  EXPECT_EQ(after.y - before.y, 40);
}

TEST(MapScene2D, LargeDragConsumedAcrossFrames) {
  SceneSpec spec = SceneSpec::map(0.0);
  spec.scroll_px_per_frame = 40;
  SceneRig rig(spec);
  rig.scene->on_touch({sim::at_seconds(0.1), {400, 700},
                       input::TouchEvent::Action::kDown});
  rig.scene->on_touch({sim::at_seconds(0.12), {400, 580},
                       input::TouchEvent::Action::kMove});  // 120 px drag
  rig.scene->on_touch({sim::at_seconds(0.14), {400, 580},
                       input::TouchEvent::Action::kUp});
  EXPECT_TRUE(rig.render_at(0.2).first);   // 40 px
  EXPECT_TRUE(rig.render_at(0.3).first);   // 40 px
  EXPECT_TRUE(rig.render_at(0.4).first);   // 40 px
  EXPECT_FALSE(rig.render_at(0.5).first);  // drained
}

TEST(MapScene2D, MovesWithoutDownAreIgnored) {
  SceneRig rig(SceneSpec::map(0.0));
  rig.scene->on_touch({sim::at_seconds(0.1), {100, 100},
                       input::TouchEvent::Action::kMove});
  EXPECT_FALSE(rig.render_at(0.2).first);
}

TEST(MapScene2D, PaintedBandMatchesWorldColorPerPixel) {
  // paint_world fills runs between tile and road edges; every pixel must
  // still be world_color at its world coordinate.  Origins are random on
  // both sides of zero (negative world coordinates take the floor branch of
  // the tile index), and bands hang off every edge of the buffer.
  const gfx::Rgb888 untouched{1, 2, 3};
  gfx::Framebuffer fb(300, 90);
  sim::Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const gfx::Point origin =
        trial == 0 ? gfx::Point{-150, -45}
                   : gfx::Point{static_cast<int>(rng.uniform_int(-70000, 70000)),
                                static_cast<int>(rng.uniform_int(-70000, 70000))};
    const gfx::Rect band =
        trial == 0 ? fb.bounds()
                   : gfx::Rect{static_cast<int>(rng.uniform_int(-50, 300)),
                               static_cast<int>(rng.uniform_int(-20, 90)),
                               static_cast<int>(rng.uniform_int(0, 400)),
                               static_cast<int>(rng.uniform_int(0, 60))};
    fb.fill(untouched);
    const gfx::Rect painted = MapScene::paint_world(fb, band, origin);
    EXPECT_EQ(painted, band.intersect(fb.bounds()));
    for (int y = 0; y < fb.height(); ++y) {
      for (int x = 0; x < fb.width(); ++x) {
        const gfx::Rgb888 want =
            painted.contains({x, y})
                ? MapScene::world_color(origin.x + x, origin.y + y)
                : untouched;
        ASSERT_EQ(fb.at(x, y), want) << "trial " << trial << " pixel " << x
                                     << "," << y;
      }
    }
  }
}

// --- wallpaper ----------------------------------------------------------------

TEST(WallpaperScene, ChangesAtConfiguredFps) {
  SceneRig rig(SceneSpec::wallpaper(3, 4, /*fps=*/20.0));
  int changes = 0;
  for (int i = 1; i <= 60; ++i) {
    if (rig.render_at(i / 30.0).first) ++changes;  // 2 s at 30 renders/s
  }
  EXPECT_NEAR(changes, 40, 3);
}

TEST(WallpaperScene, ChangesAreSmall) {
  // The adversarial property: each frame's changed area is tiny relative to
  // the screen (a few small dots), which is what starves sparse grids.
  SceneSpec spec = SceneSpec::wallpaper(3, 4, 20.0);
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  auto scene = make_scene(spec, kScreen, sim::Rng(7));
  scene->init(canvas);
  canvas.take_dirty();
  scene->render(canvas, sim::at_seconds(0.1));
  const gfx::Rect dirty = canvas.take_dirty();
  // Dirty bounding box exists but the changed pixels are dot-sized; the
  // per-dot area is (2r+1)^2 <= 81 px.
  EXPECT_FALSE(dirty.empty());
}

TEST(WallpaperScene, DotsStayOnScreen) {
  SceneRig rig(SceneSpec::wallpaper(6, 5, 20.0));
  for (int i = 1; i <= 400; ++i) {
    rig.render_at(i / 20.0);  // 20 s of bouncing
  }
  // If a dot escaped, draw_circle would have clipped and erase/redraw
  // accounting would diverge -- the honesty check covers that; here we just
  // assert rendering stayed alive and meaningful.
  EXPECT_TRUE(rig.render_at(21.0).first);
}

}  // namespace
}  // namespace ccdem::apps
