// UiScene: state-machine semantics, the ccdem-scene-v1 DSL round-trip, the
// 1-px marquee blind-spot regression, and the scene plane's integration
// with check_scenario (determinism, fleet identity, spans-off identity).
#include <gtest/gtest.h>

#include <string>

#include "apps/app_profiles.h"
#include "apps/scene_dsl.h"
#include "apps/ui_scene.h"
#include "check/dst.h"
#include "gfx/framebuffer.h"

namespace ccdem::apps {
namespace {

constexpr gfx::Size kScreen{720, 1280};

UiSceneSpec two_state_spec() {
  UiSceneSpec ui;
  ui.states = {
      {UiState::Kind::kIdle, 500, 2.0, 1, 1},
      {UiState::Kind::kMenu, 0, 8.0, 1, 0},
  };
  ui.idle_timeout_ms = 2000;
  return ui;
}

input::TouchEvent tap_down(sim::Time t) {
  return {t, {100, 100}, input::TouchEvent::Action::kDown};
}

TEST(UiScene, TimedTransitionFiresAfterDwell) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  UiScene scene(SceneSpec::ui_machine(two_state_spec()), kScreen, sim::Rng(1));
  scene.init(canvas);
  EXPECT_EQ(scene.state(), 0);
  scene.render(canvas, sim::at_seconds(0.3));
  EXPECT_EQ(scene.state(), 0) << "dwell (500 ms) has not expired";
  scene.render(canvas, sim::at_seconds(0.6));
  EXPECT_EQ(scene.state(), 1);
  // State 1 has dwell 0: the timed transition is disabled and (with no
  // touches) only the idle timeout can move the machine.
  scene.render(canvas, sim::at_seconds(1.8));
  EXPECT_EQ(scene.state(), 1);
}

TEST(UiScene, TouchTransitionAndIdleTimeout) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  UiScene scene(SceneSpec::ui_machine(two_state_spec()), kScreen, sim::Rng(1));
  scene.init(canvas);
  // Touch-down in state 0 requests its touch_next (state 1); the transition
  // lands at the next render.
  scene.on_touch(tap_down(sim::at_seconds(0.1)));
  EXPECT_EQ(scene.state(), 0);
  scene.render(canvas, sim::at_seconds(0.15));
  EXPECT_EQ(scene.state(), 1);
  // 2 s of no interaction: the idle timeout returns the machine to state 0.
  scene.render(canvas, sim::at_seconds(0.5));
  EXPECT_EQ(scene.state(), 1);
  scene.render(canvas, sim::at_seconds(2.3));
  EXPECT_EQ(scene.state(), 0);
}

TEST(UiScene, TouchResetsIdleTimeout) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  UiSceneSpec ui = two_state_spec();
  // Disable touch transitions everywhere: the touch should only refresh the
  // interaction clock, and the machine moves 0 -> 1 via dwell alone.
  ui.states[0].touch_next = -1;
  ui.states[1].touch_next = -1;
  UiScene scene(SceneSpec::ui_machine(ui), kScreen, sim::Rng(1));
  scene.init(canvas);
  scene.render(canvas, sim::at_seconds(0.6));
  ASSERT_EQ(scene.state(), 1);
  // A touch at 2.0 s refreshes the interaction clock, so at 3.5 s the 2 s
  // timeout (measured from the touch) has not expired yet.
  scene.on_touch(tap_down(sim::at_seconds(2.0)));
  scene.render(canvas, sim::at_seconds(3.5));
  EXPECT_EQ(scene.state(), 1);
  scene.render(canvas, sim::at_seconds(4.1));
  EXPECT_EQ(scene.state(), 0);
}

TEST(UiScene, SameSpecSameInputsByteIdentical) {
  gfx::Framebuffer fb1(kScreen), fb2(kScreen);
  gfx::Canvas c1(fb1), c2(fb2);
  const SceneSpec spec = SceneSpec::ui_machine(two_state_spec());
  UiScene s1(spec, kScreen, sim::Rng(1));
  UiScene s2(spec, kScreen, sim::Rng(999));  // RNG must not matter
  s1.init(c1);
  s2.init(c2);
  for (int i = 1; i <= 120; ++i) {
    const sim::Time t = sim::at_seconds(i / 30.0);
    if (i % 25 == 0) {
      s1.on_touch(tap_down(t));
      s2.on_touch(tap_down(t));
    }
    s1.render(c1, t);
    s2.render(c2, t);
    ASSERT_EQ(fb1.fast_hash(), fb2.fast_hash()) << "frame " << i;
  }
}

TEST(UiScene, NominalFpsFollowsState) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  UiScene scene(SceneSpec::ui_machine(two_state_spec()), kScreen, sim::Rng(1));
  scene.init(canvas);
  EXPECT_DOUBLE_EQ(scene.nominal_content_fps(sim::at_seconds(0.1)), 2.0);
  scene.render(canvas, sim::at_seconds(0.6));
  ASSERT_EQ(scene.state(), 1);
  EXPECT_DOUBLE_EQ(scene.nominal_content_fps(sim::at_seconds(0.7)), 8.0);
}

// --- DSL ------------------------------------------------------------------

TEST(SceneDsl, UiRoundTripsCanonically) {
  UiSceneSpec ui;
  ui.states = {
      {UiState::Kind::kMenu, 900, 6.0, 2, 3},
      {UiState::Kind::kScroll, 700, 24.0, 0, -1},
      {UiState::Kind::kDialog, 600, 12.0, 1, 0},
      {UiState::Kind::kMarquee, 0, 24.0, 2, -1},
  };
  ui.idle_timeout_ms = 2500;
  ui.marquee_px = 1;
  const SceneSpec spec = SceneSpec::ui_machine(ui);
  const std::string text = scene_spec_to_string(spec);
  std::string error;
  const auto parsed = scene_spec_from_string(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->type, SceneSpec::Type::kUi);
  EXPECT_EQ(parsed->ui, ui);
  EXPECT_EQ(scene_spec_to_string(*parsed), text);
}

TEST(SceneDsl, BurstRoundTripsCanonically) {
  const SceneSpec spec = SceneSpec::burst_video({700, 12, 30.0, {1, 3, 0, 2}});
  const std::string text = scene_spec_to_string(spec);
  std::string error;
  const auto parsed = scene_spec_from_string(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->type, SceneSpec::Type::kBurstVideo);
  EXPECT_EQ(parsed->burst, spec.burst);
  EXPECT_EQ(scene_spec_to_string(*parsed), text);
}

TEST(SceneDsl, AttributeOrderIsFreeButCanonicalized) {
  const std::string text =
      "schema = ccdem-scene-v1\n"
      "type = ui\n"
      "idle_timeout_ms = 3000\n"
      "marquee_px = 6\n"
      "state = menu touch=0 next=0 fps=6 dwell_ms=900\n";
  const auto parsed = scene_spec_from_string(text);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ui.states[0].kind, UiState::Kind::kMenu);
  EXPECT_EQ(parsed->ui.states[0].dwell_ms, 900);
}

TEST(SceneDsl, RejectsMalformedInput) {
  const char* bad[] = {
      // missing schema line
      "type = ui\nstate = idle dwell_ms=0 fps=1 next=0 touch=-1\n",
      // unknown type
      "schema = ccdem-scene-v1\ntype = movie\n",
      // ui without states
      "schema = ccdem-scene-v1\ntype = ui\n",
      // out-of-range transition target
      "schema = ccdem-scene-v1\ntype = ui\n"
      "state = idle dwell_ms=0 fps=1 next=7 touch=-1\n",
      // missing state attribute
      "schema = ccdem-scene-v1\ntype = ui\n"
      "state = idle dwell_ms=0 fps=1 next=0\n",
      // duplicate state attribute
      "schema = ccdem-scene-v1\ntype = ui\n"
      "state = idle dwell_ms=0 dwell_ms=1 fps=1 next=0 touch=-1\n",
      // burst key inside a ui scene
      "schema = ccdem-scene-v1\ntype = ui\ngap_ms = 100\n"
      "state = idle dwell_ms=0 fps=1 next=0 touch=-1\n",
      // ui key inside a burst scene
      "schema = ccdem-scene-v1\ntype = burst_video\nmarquee_px = 3\n",
      // non-numeric value
      "schema = ccdem-scene-v1\ntype = burst_video\ngap_ms = soon\n",
      // motion level out of range
      "schema = ccdem-scene-v1\ntype = burst_video\nmotion = 1,9\n",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(scene_spec_from_string(text, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SceneDsl, NonDslTypesHaveNoTextForm) {
  EXPECT_EQ(scene_spec_to_string(SceneSpec::video(24.0)), "");
}

// --- whole-system checks ---------------------------------------------------

check::Scenario scene_scenario(const std::string& app) {
  check::Scenario s;
  s.app = app;
  s.duration_ms = 3000;
  s.seed = 77;
  return s;
}

// The 1-px marquee is the Fig. 6 blind-spot shape: a band thinner than the
// sampling grid stride can slip between sampled rows.  The drifting band
// plus the damage-scoped meter must keep the run above the quality gate and
// byte-identical to the unculled reference replay.
TEST(UiSceneCheck, OnePxMarqueeSurvivesAllOracles) {
  check::Scenario s = scene_scenario("Facebook");
  UiSceneSpec ui;
  ui.states = {{UiState::Kind::kMarquee, 0, 24.0, 0, -1}};
  ui.idle_timeout_ms = 0;
  ui.marquee_px = 1;
  s.scene = scene_spec_to_string(SceneSpec::ui_machine(ui));
  s.grid = "9k";
  const check::CheckReport report = check::check_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(UiSceneCheck, MenuDemoPassesAllOracles) {
  const check::CheckReport report =
      check::check_scenario(scene_scenario("Menu UI"));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(UiSceneCheck, OverlaySuiteFleetIdentity) {
  check::Scenario s = scene_scenario("Overlay Suite");
  s.duration_ms = 2500;
  s.fleet = true;  // serial == fleet across all three surfaces
  const check::CheckReport report = check::check_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(UiSceneCheck, ScenarioSceneBlockRoundTrips) {
  check::Scenario s = scene_scenario("Menu UI");
  UiSceneSpec ui = two_state_spec();
  s.scene = scene_spec_to_string(SceneSpec::ui_machine(ui));
  const std::string text = check::scenario_to_string(s);
  std::string error;
  const auto parsed = check::parse_scenario(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
  EXPECT_EQ(check::scenario_to_string(*parsed), text);
  // The override reaches the expanded config.
  EXPECT_EQ(parsed->experiment_config().app.scene.ui, ui);
}

TEST(UiSceneCheck, SceneDemoProfilesResolve) {
  for (const AppSpec& spec : scene_demo_apps()) {
    EXPECT_TRUE(check::find_app(spec.name)) << spec.name;
  }
  EXPECT_FALSE(check::find_app("No Such App"));
}

}  // namespace
}  // namespace ccdem::apps
