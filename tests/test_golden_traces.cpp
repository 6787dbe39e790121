// Golden-master trace tests.
//
// Each checked-in config runs with the observability layer attached and its
// serialized trace (the CSV format: span stream + counter snapshot) is
// compared byte-for-byte against tests/golden/<config>.trace.  Any change to
// the simulation's event ordering, the metering math, the controller's
// decisions or the exporter's formatting shows up as a golden diff.
//
// Updating the goldens after an INTENTIONAL behaviour change:
//
//     CCDEM_UPDATE_GOLDEN=1 ./build/tests/test_golden_traces
//
// then review the diff of tests/golden/*.trace like any other code change.
//
// The configs are ccdem-repro-v1 scenario files.  The runs override their
// duration to kGoldenSeconds so the suite stays fast; everything else comes
// from the config file.  Span recording
// must be compiled in (CCDEM_OBS_SPANS=1, the default) for the byte
// comparison -- a spans-off build skips the golden diff but still checks
// counter determinism.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "harness/experiment.h"
#include "harness/fleet.h"
#include "obs/obs.h"
#include "obs/trace_export.h"

using namespace ccdem;

namespace {

constexpr int kGoldenSeconds = 10;

const char* const kConfigs[] = {
    "facebook_section_only",
    "jelly_splash",
};

std::string repo_path(const std::string& rel) {
  return std::string(CCDEM_REPO_DIR) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

harness::ExperimentConfig load_config(const std::string& name) {
  std::string error;
  auto scenario = check::parse_scenario(
      read_file(repo_path("configs/" + name + ".conf")), &error);
  EXPECT_TRUE(scenario.has_value()) << name << ": " << error;
  scenario->duration_ms = kGoldenSeconds * 1000;
  return scenario->experiment_config();
}

/// Runs `config` with a fresh sink and serializes the full trace.
std::string run_and_serialize(harness::ExperimentConfig config) {
  obs::ObsSink sink;
  config.obs = &sink;
  (void)harness::run_experiment(config);
  return obs::trace_csv_to_string(sink.spans.spans(),
                                  sink.counters.snapshot());
}

bool updating_goldens() {
  const char* env = std::getenv("CCDEM_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

class GoldenTraces : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(GoldenTraces, TraceMatchesGolden) {
  if (!obs::SpanRecorder::compiled_in()) {
    GTEST_SKIP() << "goldens cover the spans-on build";
  }
  const std::string name = GetParam();
  const std::string trace = run_and_serialize(load_config(name));
  const std::string golden_path = repo_path("tests/golden/" + name + ".trace");

  if (updating_goldens()) {
    // Write-then-rename so a parallel or interrupted update can never leave
    // a torn golden behind; the rename is atomic on POSIX filesystems.
    const std::string tmp_path =
        golden_path + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp_path);
      ASSERT_TRUE(out.good()) << "cannot write " << tmp_path;
      out << trace;
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, golden_path, ec);
    ASSERT_FALSE(ec) << "cannot move " << tmp_path << " over " << golden_path
                     << ": " << ec.message();
    std::cout << "[updated] " << golden_path << "\n";
    return;
  }

  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty())
      << golden_path
      << " missing; regenerate with CCDEM_UPDATE_GOLDEN=1 (see file header)";
  if (trace != golden) {
    // Byte-precise failure location beats dumping two ~100 KB blobs.
    std::size_t line = 1, col = 1, i = 0;
    while (i < trace.size() && i < golden.size() && trace[i] == golden[i]) {
      if (trace[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
    FAIL() << name << " trace diverges from golden at line " << line
           << ", column " << col << " (got "
           << (i < trace.size() ? "'" + trace.substr(i, 20) + "'" : "EOF")
           << ", want "
           << (i < golden.size() ? "'" + golden.substr(i, 20) + "'" : "EOF")
           << "); if intentional, regenerate with CCDEM_UPDATE_GOLDEN=1";
  }
}

TEST_P(GoldenTraces, TraceIsDeterministic) {
  const harness::ExperimentConfig config = load_config(GetParam());
  EXPECT_EQ(run_and_serialize(config), run_and_serialize(config));
}

TEST_P(GoldenTraces, GoldenRoundTripsThroughParser) {
  if (!obs::SpanRecorder::compiled_in()) {
    GTEST_SKIP() << "goldens cover the spans-on build";
  }
  if (updating_goldens()) GTEST_SKIP() << "goldens being regenerated";
  const std::string name = GetParam();
  const std::string golden = read_file(repo_path("tests/golden/" + name +
                                                 ".trace"));
  ASSERT_FALSE(golden.empty());
  std::string error;
  const auto parsed = obs::parse_trace_csv(golden, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->spans.empty());
  EXPECT_FALSE(parsed->counters.empty());
}

TEST_P(GoldenTraces, FleetRunProducesSameCounters) {
  // The same config through FleetRunner (multiple workers forced, even on a
  // single-core machine) must land on the identical counter totals; only
  // pool.* is fleet-specific (workers reuse devices).
  harness::ExperimentConfig config = load_config(GetParam());
  obs::ObsSink serial;
  serial.spans.set_enabled(false);
  {
    harness::ExperimentConfig c = config;
    c.obs = &serial;
    (void)harness::run_experiment(c);
  }
  harness::FleetRunner fleet(/*max_threads=*/2);
  (void)fleet.run({config});
  for (const auto& [name, value] : fleet.stats().counters.snapshot().counters) {
    if (name.rfind("pool.", 0) == 0) continue;
    EXPECT_EQ(value, serial.counters.value(name)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GoldenTraces, ::testing::ValuesIn(kConfigs));
