// DST front door: generator determinism, repro round-trips, the
// embedded-script == Monkey equivalence, and a small always-on fuzz pass.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/app_profiles.h"
#include "check/dst.h"
#include "check/oracles.h"
#include "device/simulated_device.h"
#include "fault/fault_plan.h"
#include "input/monkey.h"

namespace ccdem::check {
namespace {

TEST(ScenarioGen, DeterministicInSeed) {
  ScenarioGen a(7);
  ScenarioGen b(7);
  bool any_fault = false;
  bool any_fleet = false;
  for (int i = 0; i < 30; ++i) {
    const Scenario sa = a.next();
    const Scenario sb = b.next();
    EXPECT_EQ(sa, sb) << "scenario " << i << " diverged";
    any_fault |= sa.fault_scale > 0.0;
    any_fleet |= sa.fleet;
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(any_fleet);
  EXPECT_EQ(a.generated(), 30u);
}

TEST(ScenarioGen, DifferentSeedsDiverge) {
  ScenarioGen a(7);
  ScenarioGen b(8);
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) diverged = !(a.next() == b.next());
  EXPECT_TRUE(diverged);
}

TEST(ScenarioGen, SamplesAreValid) {
  ScenarioGen gen(11);
  for (int i = 0; i < 50; ++i) {
    const Scenario s = gen.next();
    EXPECT_TRUE(find_app(s.app)) << s.app;
    EXPECT_GE(s.duration_ms, 1500);
    EXPECT_LE(s.duration_ms, 5000);
    EXPECT_FALSE(s.rates.empty());
    // Every sample must expand without tripping any config validation.
    const harness::ExperimentConfig cfg = s.experiment_config();
    EXPECT_EQ(cfg.duration.ticks, s.duration().ticks);
  }
}

TEST(ScenarioIo, DefaultRoundTrips) {
  const Scenario s;
  const std::string text = scenario_to_string(s);
  std::string error;
  const auto parsed = parse_scenario(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
}

TEST(ScenarioIo, EveryFieldRoundTrips) {
  Scenario s;
  s.app = "TempleRun";
  s.mode = device::ControlMode::kSectionHysteresis;
  s.duration_ms = 4321;
  s.seed = 0xdeadbeefULL;
  s.grid = "36k";
  s.eval_ms = 150;
  s.boost_hold_ms = 750;
  s.meter_window_ms = 500;
  s.alpha = 0.25;
  s.rates = {24, 48, 96};
  s.baseline_hz = 96;
  s.min_hz = 24;
  s.boost_hz = 96;
  s.fast_rate_up = true;
  s.fault_scale = 1.5;
  s.fault_until_ms = 2000;
  s.fault_classes = {true, false, true, false, true};
  s.fleet = true;
  s.script = std::vector<input::TouchGesture>{
      // Taps serialize without a duration and parse back with the canonical
      // 60 ms dwell, so only that dwell round-trips exactly.
      {sim::Time{} + sim::milliseconds(100), sim::milliseconds(60),
       input::TouchGesture::Kind::kTap, {360, 640}, {360, 640}},
      {sim::Time{} + sim::milliseconds(900), sim::milliseconds(240),
       input::TouchGesture::Kind::kSwipe, {100, 1000}, {600, 300}},
  };
  const std::string text = scenario_to_string(s);
  std::string error;
  const auto parsed = parse_scenario(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);
  // Serialization is canonical: re-serializing the parse is byte-identical.
  EXPECT_EQ(scenario_to_string(*parsed), text);
  // fault_scale scales the nominal plan; enabled classes keep their rates.
  EXPECT_DOUBLE_EQ(parsed->experiment_config().fault.switch_nak_p,
                   fault::FaultPlan::nominal().switch_nak_p * 1.5);
}

TEST(ScenarioIo, GeneratedScenariosRoundTrip) {
  ScenarioGen gen(3);
  for (int i = 0; i < 50; ++i) {
    const Scenario s = gen.next();
    std::string error;
    const auto parsed = parse_scenario(scenario_to_string(s), &error);
    ASSERT_TRUE(parsed) << "scenario " << i << ": " << error;
    EXPECT_EQ(*parsed, s) << "scenario " << i;
  }
}

TEST(ScenarioIo, ReproFileParsesThroughHeader) {
  Scenario s;
  s.duration_ms = 777;
  const std::string repro =
      repro_to_string(s, {"I6 span: something", "replay: other"});
  std::string error;
  const auto parsed = parse_scenario(repro, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);

  // Hand-written files: blank lines, full-line and trailing comments, spaced
  // lists, and ladder rungs named before the ladder itself.
  const auto hand = parse_scenario(
      "\n# leading comment\nschema = ccdem-repro-v1\n\n"
      "app = Naver   # trailing comment\nbaseline_hz = 90\nmin_hz = 30\n"
      "rates = 30, 60, 90\n",
      &error);
  ASSERT_TRUE(hand) << error;
  EXPECT_EQ(hand->app, "Naver");
  EXPECT_EQ(hand->rates, (std::vector<int>{30, 60, 90}));
  EXPECT_EQ(hand->baseline_hz, 90);
  EXPECT_EQ(hand->min_hz, 30);
  for (const char* mode :
       {"baseline", "section", "section+boost", "naive", "hysteresis", "e3"}) {
    EXPECT_TRUE(parse_scenario(
        std::string("schema = ccdem-repro-v1\napp = Facebook\nmode = ") +
        mode + "\n"))
        << mode;
  }
}

TEST(ScenarioIo, RejectsMalformedInput) {
  struct Case {
    std::string body;  ///< lines after the schema line
    const char* error;  ///< substring the error must contain
  };
  const Case cases[] = {
      {"not_a_key = 1\n", "unknown key"},
      {"brightnes = 50\n", "brightnes"},
      {"nonsense\n", "line 3"},  // malformed line, reported by number
      {"mode = warp-drive\n", "bad value"},
      {"seed = 1\nseed = 2\n", "duplicate"},
      // Whole-value numbers: no trailing garbage, NaN or infinity.
      {"duration_ms = 12abc\n", "bad value"},
      {"seed = 7seven\n", "bad value"},
      {"eval_ms = 100ms\n", "bad value"},
      {"boost_hold_ms = 1e2x\n", "bad value"},
      {"alpha = 0.5!\n", "bad value"},
      {"baseline_hz = 60Hz\n", "bad value"},
      {"alpha = nan\n", "bad value"},
      {"alpha = inf\n", "bad value"},
      {"alpha = -inf\n", "bad value"},
      {"fault_scale = nan\n", "bad value"},
      {"fault_scale = inf\n", "bad value"},
      // Ranges.
      {"duration_ms = -3\n", "bad value"},
      {"alpha = 1.5\n", "bad value"},
      {"alpha = -0.1\n", "bad value"},
      {"grid = 17k\n", "bad value"},
      {"eval_ms = 0\n", "bad value"},
      {"boost_hold_ms = -1\n", "bad value"},
      {"fault_scale = -1\n", "bad value"},
      {"min_hz = -24\n", "bad value"},
      {"rates = 20,0,60\n", "rates"},
      {"rates = -30\n", "rates"},
      {"rates = \n", "rates"},
      // Rungs must be on the ladder, whichever key comes first.
      {"baseline_hz = 45\n", "baseline_hz = 45"},
      {"min_hz = 25\nrates = 20,24,30,40,60\n", "min_hz"},
      {"rates = 30,60\nboost_hz = 40\n", "boost_hz"},
      // mode = pipeline and the pipeline key come as a pair, in any order.
      {"mode = pipeline\n", "pipeline"},
      {"pipeline = section\nmode = section\n", "pipeline"},
      {"mode = pipeline\npipeline = section\npipeline = naive\n",
       "duplicate"},
      {"begin_script\ngarbage\nend_script\n", "script"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(parse_scenario(
        "schema = ccdem-repro-v1\napp = Facebook\n" + c.body, &error))
        << c.body;
    EXPECT_NE(error.find(c.error), std::string::npos) << c.body << error;
  }
  std::string error;
  EXPECT_FALSE(parse_scenario("", &error));
  EXPECT_FALSE(parse_scenario("schema = wrong-schema\napp = Facebook\n",
                              &error));
  EXPECT_FALSE(parse_scenario("schema = ccdem-repro-v1\nmode = section\n",
                              &error));
  EXPECT_NE(error.find("'app'"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario("schema = ccdem-repro-v1\napp = Nonexistent\n",
                              &error));
  EXPECT_NE(error.find("Nonexistent"), std::string::npos) << error;
}

TEST(ScenarioIo, UnknownAppIsReportedByCheck) {
  Scenario s;
  s.app = "No Such App";
  const CheckReport r = check_scenario(s);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.failures.front().find("unknown app"), std::string::npos);
}

// Embedding the seed's own Monkey script must replay bit-identically to
// leaving the script implicit -- this is what lets the minimizer materialize
// and then delta-debug the gesture list without changing behaviour.
TEST(Dst, EmbeddedMonkeyScriptReplaysIdentically) {
  Scenario implicit;
  implicit.app = "Anipang";
  implicit.duration_ms = 3000;
  implicit.seed = 2;  // this seed's Monkey stream emits several gestures

  Scenario embedded = implicit;
  const auto app = find_app(implicit.app);
  ASSERT_TRUE(app);
  sim::Rng root(implicit.seed);
  sim::Rng monkey = root.fork(device::SimulatedDevice::kMonkeyRngStream);
  embedded.script = input::generate_monkey_script(
      monkey, app->monkey, implicit.duration(), apps::kGalaxyS3Screen);
  ASSERT_FALSE(embedded.script->empty());

  const RunArtifacts a = run_scenario_once(implicit.experiment_config());
  const RunArtifacts b = run_scenario_once(embedded.experiment_config());
  EXPECT_EQ(a.trace_csv, b.trace_csv);
  EXPECT_FALSE(diff_results(a.result, b.result, "embedded-script"))
      << *diff_results(a.result, b.result, "embedded-script");
}

TEST(Dst, DefaultScenarioPassesAllOracles) {
  const CheckReport r = check_scenario(Scenario{});
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Dst, FaultedScenarioPassesAllOracles) {
  Scenario s;
  s.app = "Geometry Dash";
  s.duration_ms = 2000;
  s.fault_scale = 1.5;
  s.seed = 9;
  const CheckReport r = check_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Dst, SmallFuzzCampaignIsClean) {
  FuzzOptions options;
  options.seed = 20260805;
  options.scenarios = 12;
  options.gen.max_duration_ms = 2500;
  std::ostringstream log;
  const FuzzReport report = run_fuzz(options);
  ASSERT_TRUE(report.ok()) << [&] {
    std::string all;
    for (const FuzzFailure& f : report.failures) {
      for (const std::string& m : f.failures) all += m + "\n";
    }
    return all;
  }();
  EXPECT_EQ(report.scenarios_run, 12);
}

}  // namespace
}  // namespace ccdem::check
