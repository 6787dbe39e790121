// Mutation smoke: with -DCCDEM_CANARY_BUG=ON the damage-cull path drops the
// rightmost pixel column of every damage rect, and the DST harness must
// (a) catch the divergence from the unculled reference replay and
// (b) minimize it to a small, replayable .repro.  In a normal build this
// whole file skips.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/scene_dsl.h"
#include "check/dst.h"
#include "check/oracles.h"
#include "test_tmpdir.h"

namespace ccdem::check {
namespace {

#if !defined(CCDEM_CANARY_BUG)

TEST(DstCanary, SkippedInNormalBuilds) {
  GTEST_SKIP() << "canary disarmed; configure with -DCCDEM_CANARY_BUG=ON";
}

#else

// The live wallpaper pins the canary: its animation damages many small
// scattered rects, and on a sparse grid a single sample under a rect's
// rightmost column regularly decides the frame's classification.  This
// scenario (mirrored in tests/corpus/wallpaper_2k_canary_sentinel.repro)
// diverges from the unculled reference replay within the first 200 ms.
Scenario canary_scenario() {
  Scenario s;
  s.app = "Nexus Revampled";
  s.mode = device::ControlMode::kSection;
  s.grid = "2k";
  s.duration_ms = 800;
  s.seed = 11;
  return s;
}

TEST(DstCanary, ReplayOracleCatchesTheBug) {
  const CheckReport r = check_scenario(canary_scenario());
  ASSERT_FALSE(r.ok()) << "canary build but every oracle passed";
}

TEST(DstCanary, MinimizesToASmallReplayableRepro) {
  // Only the oracle that actually catches the bug runs during shrinking;
  // this keeps each predicate call to two experiment replays.
  CheckOptions replay_only;
  replay_only.oracle_determinism = false;
  replay_only.oracle_reference = false;
  replay_only.invariants = false;
  replay_only.quality_arm = false;

  const Scenario start = canary_scenario();
  const FailurePredicate predicate = make_failure_predicate(replay_only);
  ASSERT_TRUE(predicate(start)) << "replay oracle alone misses the canary";

  const MinimizeResult m = minimize_scenario(start, predicate);
  ASSERT_FALSE(m.failure.empty());
  const RunArtifacts replay =
      run_scenario_once(m.scenario.experiment_config());
  EXPECT_LT(replay.result.frames_composed, 50)
      << "minimized repro is not small";

  // The written .repro must parse back and still fail.
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::filesystem::path file = tmp.file("canary.repro");
  {
    std::ofstream os(file);
    os << repro_to_string(m.scenario, {m.failure});
  }
  std::ifstream in(file);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto parsed = parse_scenario(text.str(), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, m.scenario);
  EXPECT_TRUE(predicate(*parsed));
}

// The ladder canary: under system pressure the planted bug makes
// DegradationLadderStage jump straight to the target rung instead of
// stepping one rung per evaluation.  Thermal or brownout episodes carry
// severity 2, so the first shed from rung 0 skips rung 1 -- an I7
// violation.  Jitter alone (severity 1) never exposes it, which is what
// lets the minimizer isolate a guilty episode class.
Scenario ladder_canary_scenario() {
  Scenario s;
  s.app = "Facebook";
  s.mode = device::ControlMode::kSectionWithBoost;
  s.duration_ms = 4000;
  s.seed = 7;
  s.pressure_scale = 4.0;
  s.pressure_classes.thermal = true;
  s.pressure_classes.brownout = true;
  s.pressure_classes.jitter = true;
  return s;
}

/// I7/I8 run alone during ladder-canary shrinking: one replay per
/// predicate call, and the cull canary (also armed in this build) cannot
/// steal the failure.
CheckOptions invariants_only() {
  CheckOptions o;
  o.oracle_determinism = false;
  o.oracle_replay = false;
  o.oracle_reference = false;
  o.quality_arm = false;
  o.pressure_recovery_arm = false;
  return o;
}

TEST(DstCanary, LadderRungSkipCaughtByI7) {
  const CheckReport r = check_scenario(ladder_canary_scenario(),
                                       invariants_only());
  ASSERT_FALSE(r.ok()) << "canary build but the ladder invariants passed";
  bool i7 = false;
  for (const std::string& f : r.failures) {
    if (f.rfind("I7 ladder:", 0) == 0) i7 = true;
  }
  EXPECT_TRUE(i7) << "expected an I7 failure, got:\n" << r.to_string();
}

TEST(DstCanary, LadderCanaryMinimizesToOneEpisodeClass) {
  const Scenario start = ladder_canary_scenario();
  const FailurePredicate predicate =
      make_failure_predicate(invariants_only());
  ASSERT_TRUE(predicate(start)) << "invariants alone miss the ladder canary";

  const MinimizeResult m = minimize_scenario(start, predicate);
  ASSERT_FALSE(m.failure.empty());
  EXPECT_GT(m.scenario.pressure_scale, 0.0);
  const auto& pc = m.scenario.pressure_classes;
  const int classes = (pc.thermal ? 1 : 0) + (pc.brownout ? 1 : 0) +
                      (pc.jitter ? 1 : 0);
  EXPECT_EQ(classes, 1) << "minimizer kept more than the guilty class";
  EXPECT_FALSE(pc.jitter) << "jitter (severity 1) cannot skip a rung";

  // The written .repro must parse back and still fail.
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::filesystem::path file = tmp.file("ladder_canary.repro");
  {
    std::ofstream os(file);
    os << repro_to_string(m.scenario, {m.failure});
  }
  std::ifstream in(file);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto parsed = parse_scenario(text.str(), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, m.scenario);
  EXPECT_TRUE(predicate(*parsed));
}

// The UI-scene canary: dialog entries are seeded from a process-global
// session counter (apps/ui_scene.cpp), so the same scenario paints
// different dialog overlays on consecutive executions -- exactly what the
// determinism oracle exists to catch.  The scene arrives as an explicit
// DSL override on a non-scene app, so dropping the override makes the
// failure vanish and the minimizer must keep (and shrink) the state graph.
Scenario ui_scene_canary_scenario() {
  Scenario s;
  s.app = "Facebook";
  s.mode = device::ControlMode::kSectionWithBoost;
  s.duration_ms = 4000;
  s.seed = 5;
  s.scene =
      "schema = ccdem-scene-v1\n"
      "type = ui\n"
      "idle_timeout_ms = 0\n"
      "marquee_px = 6\n"
      "state = idle dwell_ms=300 fps=2 next=1 touch=-1\n"
      "state = menu dwell_ms=300 fps=6 next=2 touch=-1\n"
      "state = scroll dwell_ms=300 fps=12 next=3 touch=-1\n"
      "state = slide dwell_ms=300 fps=12 next=4 touch=-1\n"
      "state = dialog dwell_ms=400 fps=8 next=5 touch=-1\n"
      "state = marquee dwell_ms=400 fps=12 next=0 touch=-1\n";
  return s;
}

/// The determinism oracle runs alone while shrinking the UI canary: two
/// replays per predicate call, and the cull canary (also armed in this
/// build, but identical across replays) cannot steal the failure.
CheckOptions determinism_only() {
  CheckOptions o;
  o.oracle_replay = false;
  o.oracle_reference = false;
  o.invariants = false;
  o.quality_arm = false;
  o.pressure_recovery_arm = false;
  return o;
}

TEST(DstCanary, UiDialogLeakCaughtByDeterminism) {
  const CheckReport r =
      check_scenario(ui_scene_canary_scenario(), determinism_only());
  ASSERT_FALSE(r.ok()) << "canary build but the determinism oracle passed";
}

TEST(DstCanary, UiCanaryMinimizesToATinyStateGraph) {
  const Scenario start = ui_scene_canary_scenario();
  const FailurePredicate predicate =
      make_failure_predicate(determinism_only());
  ASSERT_TRUE(predicate(start)) << "determinism alone misses the UI canary";

  const MinimizeResult m = minimize_scenario(start, predicate);
  ASSERT_FALSE(m.failure.empty());
  // The scene override is load-bearing (Facebook's own scene is clean), and
  // the state graph must have shrunk to little more than the dialog state.
  ASSERT_FALSE(m.scenario.scene.empty()) << "minimizer dropped the scene";
  const auto spec = apps::scene_spec_from_string(m.scenario.scene);
  ASSERT_TRUE(spec);
  ASSERT_EQ(spec->type, apps::SceneSpec::Type::kUi);
  EXPECT_LE(spec->ui.states.size(), 3u)
      << "state graph did not shrink:\n" << m.scenario.scene;
  bool has_dialog = false;
  for (const auto& st : spec->ui.states) {
    has_dialog |= st.kind == apps::UiState::Kind::kDialog;
  }
  EXPECT_TRUE(has_dialog) << "the guilty dialog state was dropped";

  // The written .repro must parse back and still fail.
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::filesystem::path file = tmp.file("ui_canary.repro");
  {
    std::ofstream os(file);
    os << repro_to_string(m.scenario, {m.failure});
  }
  std::ifstream in(file);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto parsed = parse_scenario(text.str(), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, m.scenario);
  EXPECT_TRUE(predicate(*parsed));
}

#endif  // CCDEM_CANARY_BUG

}  // namespace
}  // namespace ccdem::check
