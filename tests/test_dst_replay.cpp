// Seed-corpus registry: every tests/corpus/*.repro must parse, round-trip
// canonically, and replay green through every oracle; the incremental
// frame-stream hash must match a full per-frame reference on the corpus;
// plus the repro write -> read -> byte-identical-replay loop through a
// scratch directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/dst.h"
#include "check/oracles.h"
#include "check/scenario_gen.h"
#include "device/simulated_device.h"
#include "gfx/hash.h"
#include "harness/fleet.h"
#include "test_tmpdir.h"

namespace ccdem::check {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<fs::path> corpus_files() {
  const fs::path dir = fs::path(CCDEM_REPO_DIR) / "tests" / "corpus";
  std::vector<fs::path> out;
  if (fs::exists(dir)) {
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".repro") out.push_back(e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DstReplay, CorpusIsPresent) {
  EXPECT_GE(corpus_files().size(), 15u)
      << "seed corpus under tests/corpus/ went missing";
}

TEST(DstReplay, EveryCorpusFileParsesAndRoundTrips) {
  for (const fs::path& p : corpus_files()) {
    std::string error;
    const auto s = parse_scenario(read_file(p), &error);
    ASSERT_TRUE(s) << p.filename().string() << ": " << error;
    const auto again = parse_scenario(scenario_to_string(*s), &error);
    ASSERT_TRUE(again) << p.filename().string() << ": " << error;
    EXPECT_EQ(*again, *s) << p.filename().string();
  }
}

TEST(DstReplay, EveryCorpusFileReplaysGreen) {
  for (const fs::path& p : corpus_files()) {
    std::string error;
    const auto s = parse_scenario(read_file(p), &error);
    ASSERT_TRUE(s) << p.filename().string() << ": " << error;
    const CheckReport r = check_scenario(*s);
    EXPECT_TRUE(r.ok()) << p.filename().string() << ":\n" << r.to_string();
  }
}

/// Folds a from-scratch fast_hash() of every composed frame: the definition
/// of frame_stream_hash, computed the slow way.
class FullFrameFold final : public gfx::FrameListener {
 public:
  void on_frame(const gfx::FrameInfo&, const gfx::Framebuffer& fb) override {
    hash = gfx::hash_combine(hash, fb.fast_hash());
  }
  std::uint64_t hash = gfx::kHashSeed;
};

/// run_experiment_on's run with FullFrameFold in place of the harness's
/// incremental hasher.
std::uint64_t reference_stream_hash(const harness::ExperimentConfig& cfg) {
  device::SimulatedDevice dev;
  dev.configure(cfg.device_config());
  dev.install_app(cfg.app);
  FullFrameFold fold;
  dev.add_frame_listener(&fold);
  dev.start_control();
  if (cfg.script) {
    dev.dispatcher().schedule_script(*cfg.script);
  } else {
    dev.schedule_monkey_script(cfg.app.monkey, cfg.duration);
  }
  dev.run_until(sim::Time{cfg.duration.ticks});
  dev.finish();
  return fold.hash;
}

// The harness keeps frame_stream_hash incrementally, re-hashing only the
// rows each frame's damage touches.  It must equal the fold of full
// per-frame hashes on every corpus scenario and a generated sample.
TEST(DstReplay, StreamHashMatchesFullPerFrameHashes) {
  std::vector<std::pair<std::string, Scenario>> cases;
  for (const fs::path& p : corpus_files()) {
    std::string error;
    const auto s = parse_scenario(read_file(p), &error);
    ASSERT_TRUE(s) << p.filename().string() << ": " << error;
    cases.emplace_back(p.filename().string(), *s);
  }
  ScenarioGen gen(1);
  for (int i = 0; i < 24; ++i) {
    cases.emplace_back("ScenarioGen(1) #" + std::to_string(i), gen.next());
  }
  for (const auto& [name, s] : cases) {
    harness::ExperimentConfig cfg = s.experiment_config();
    cfg.hash_frames = true;
    const harness::ExperimentResult r = harness::run_experiment(cfg);
    EXPECT_GT(r.frames_composed, 0u) << name;
    EXPECT_EQ(r.frame_stream_hash, reference_stream_hash(cfg)) << name;
  }
}

TEST(DstReplay, FleetStreamHashMatchesFullPerFrameHashes) {
  ScenarioGen gen(1);
  harness::ExperimentConfig cfg = gen.next().experiment_config();
  cfg.hash_frames = true;
  harness::FleetRunner fleet;
  const std::vector<harness::ExperimentResult> results = fleet.run({cfg});
  EXPECT_EQ(results.at(0).frame_stream_hash, reference_stream_hash(cfg));
}

// The full failure loop a developer follows: a repro written to disk parses
// back to the same scenario and re-executes byte-identically.
TEST(DstReplay, WrittenReproReplaysByteIdentically) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());

  Scenario s;
  s.app = "Cookie Run";
  s.duration_ms = 1700;
  s.seed = 31337;
  s.mode = device::ControlMode::kSectionHysteresis;
  const RunArtifacts before = run_scenario_once(s.experiment_config());

  const fs::path file = tmp.file("case.repro");
  {
    std::ofstream os(file);
    os << repro_to_string(s, {"synthetic failure for the round-trip test"});
  }
  std::string error;
  const auto parsed = parse_scenario(read_file(file), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(*parsed, s);

  const RunArtifacts after = run_scenario_once(parsed->experiment_config());
  EXPECT_EQ(before.trace_csv, after.trace_csv);
  EXPECT_FALSE(diff_results(before.result, after.result, "repro-replay"));
  EXPECT_FALSE(
      diff_counters(before.counters, after.counters, "repro-replay"));
}

}  // namespace
}  // namespace ccdem::check
