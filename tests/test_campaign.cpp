// Campaign engine tests: spec/manifest round-trips, shard math, the worker
// contract (streamed shard files that verify against their embedded
// aggregates), and the coordinator's crash story -- a worker killed
// mid-shard costs only its shard, a resumed campaign's merged aggregates
// are byte-identical to an uninterrupted run's, and a scenario that kills
// its process wherever it runs is quarantined with a .repro.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <variant>

#include "apps/scene_dsl.h"
#include "campaign/aggregates.h"
#include "campaign/bin_format.h"
#include "campaign/convert.h"
#include "campaign/coordinator.h"
#include "campaign/worker.h"
#include "check/scenario.h"
#include "test_tmpdir.h"

namespace ccdem::campaign {
namespace {

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.apps = {"Facebook"};
  spec.modes = {"section+boost", "naive"};
  spec.grids = {"9k"};
  spec.fault_scales = {0.0};
  spec.seeds = {1, 2, 3};
  spec.duration_ms = 400;
  spec.shards = 3;
  return spec;
}

std::string read_file(const std::filesystem::path& p) {
  const auto text = load_file(p);
  return text ? *text : std::string();
}

// --- spec ----------------------------------------------------------------

TEST(CampaignSpec, RoundTripsThroughText) {
  CampaignSpec spec = tiny_spec();
  spec.fault_scales = {0.0, 0.1, 1.5};
  spec.ab = true;
  const auto parsed = CampaignSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
  EXPECT_EQ(parsed->to_string(), spec.to_string());
}

TEST(CampaignSpec, ParseIsStrict) {
  const CampaignSpec spec = tiny_spec();
  std::string error;
  EXPECT_FALSE(CampaignSpec::parse(spec.to_string() + "bogus = 1\n", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(CampaignSpec::parse(spec.to_string() + "shards = 2\n", &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(CampaignSpec::parse("apps = Facebook\n", &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);
  // Span recording and the in-worker oracle pass are retired settings.
  for (const char* retired : {"record_spans = 0\n", "oracles = 0\n"}) {
    EXPECT_FALSE(CampaignSpec::parse(spec.to_string() + retired, &error)
                     .has_value())
        << retired;
    EXPECT_NE(error.find("unknown key"), std::string::npos) << retired;
  }
}

TEST(CampaignSpec, ListElementsAreTrimmedButKeepInteriorSpaces) {
  const std::string text =
      "schema = ccdem-campaign-v1\n"
      "apps = Facebook, Jelly Splash\n"
      "modes = section+boost\n"
      "grids = 9k\n"
      "fault_scales = 0, 1.5\n"
      "seeds = 1, 2\n"
      "duration_ms = 400\n"
      "shards = 2\n";
  std::string error;
  const auto spec = CampaignSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->apps,
            (std::vector<std::string>{"Facebook", "Jelly Splash"}));
  EXPECT_EQ(spec->fault_scales, (std::vector<double>{0.0, 1.5}));
  EXPECT_EQ(spec->seeds, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CampaignSpec, ValidateRejectsBadAxes) {
  CampaignSpec spec = tiny_spec();
  spec.apps = {"NoSuchApp"};
  EXPECT_TRUE(spec.validate().has_value());
  spec = tiny_spec();
  spec.modes = {"pipeline"};
  EXPECT_TRUE(spec.validate().has_value());
  spec = tiny_spec();
  spec.modes = {"baseline"};
  spec.ab = true;
  EXPECT_TRUE(spec.validate().has_value());
  spec = tiny_spec();
  spec.grids = {"1k"};
  EXPECT_TRUE(spec.validate().has_value());
  spec = tiny_spec();
  spec.fault_scales = {-1.0};
  EXPECT_TRUE(spec.validate().has_value());
  spec = tiny_spec();
  spec.seeds.clear();
  EXPECT_TRUE(spec.validate().has_value());
  EXPECT_FALSE(tiny_spec().validate().has_value());
}

TEST(CampaignSpec, ScenarioIndexingIsSeedFastestMixedRadix) {
  CampaignSpec spec = tiny_spec();  // 1 app x 2 modes x 1 grid x 1 scale x 3 seeds
  ASSERT_EQ(spec.size(), 6u);
  EXPECT_EQ(spec.scenario_at(0).seed, 1u);
  EXPECT_EQ(spec.scenario_at(1).seed, 2u);
  EXPECT_EQ(spec.scenario_at(2).seed, 3u);
  EXPECT_EQ(spec.scenario_at(0).mode, device::ControlMode::kSectionWithBoost);
  EXPECT_EQ(spec.scenario_at(3).mode, device::ControlMode::kNaive);
  EXPECT_EQ(spec.scenario_at(3).seed, 1u);
  EXPECT_EQ(spec.scenario_at(5).duration_ms, 400);
}

TEST(CampaignSpec, PressureAxisDefaultKeepsCanonicalTextStable) {
  // The single-0 default must not appear in the canonical text: old specs
  // keep their fingerprints, old campaign directories stay resumable.
  const CampaignSpec spec = tiny_spec();
  EXPECT_EQ(spec.to_string().find("pressure_scales"), std::string::npos);
  const auto parsed = CampaignSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pressure_scales, (std::vector<double>{0.0}));
  EXPECT_EQ(parsed->fingerprint(), spec.fingerprint());
}

TEST(CampaignSpec, PressureAxisRoundTripsAndExpandsTheMatrix) {
  CampaignSpec spec = tiny_spec();  // 6 scenarios without the pressure axis
  spec.pressure_scales = {0.0, 2.0};
  EXPECT_EQ(spec.size(), 12u);
  EXPECT_FALSE(spec.validate().has_value());
  EXPECT_NE(spec.to_string().find("pressure_scales = 0,2"),
            std::string::npos);
  const auto parsed = CampaignSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
  // Pressure varies after fault-scale (both trivial here), before grid: the
  // two halves of each seed-block differ only in pressure_scale.
  EXPECT_DOUBLE_EQ(spec.scenario_at(0).pressure_scale, 0.0);
  EXPECT_DOUBLE_EQ(spec.scenario_at(3).pressure_scale, 2.0);
  EXPECT_EQ(spec.scenario_at(0).seed, spec.scenario_at(3).seed);
  EXPECT_EQ(spec.scenario_at(0).mode, spec.scenario_at(3).mode);

  spec.pressure_scales = {-0.5};
  EXPECT_TRUE(spec.validate().has_value());
  spec.pressure_scales = {};
  EXPECT_TRUE(spec.validate().has_value());
}

TEST(CampaignSpec, ShardRangesPartitionTheMatrix) {
  CampaignSpec spec = tiny_spec();
  spec.seeds = {1, 2, 3, 4, 5, 6, 7};  // 14 scenarios over 3 shards
  std::uint64_t covered = 0;
  std::uint64_t prev_end = 0;
  for (int s = 0; s < spec.shards; ++s) {
    const ShardRange r = shard_range(spec, s);
    EXPECT_EQ(r.begin, prev_end);
    prev_end = r.end;
    covered += r.size();
  }
  EXPECT_EQ(prev_end, spec.size());
  EXPECT_EQ(covered, spec.size());
}

TEST(CampaignSpec, FingerprintTracksTheMatrix) {
  CampaignSpec a = tiny_spec();
  CampaignSpec b = tiny_spec();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.seeds.push_back(99);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --- manifest and sidecars -----------------------------------------------

TEST(Manifest, RoundTripsThroughText) {
  Manifest m = Manifest::fresh(tiny_spec());
  m.shard_rows[1].done = true;
  m.shard_rows[1].file = shard_file_name(1);
  m.shard_rows[1].results = 2;
  m.shard_rows[1].bytes = 321;
  m.shard_rows[1].attempts = 2;
  m.shard_rows[0].attempts = 1;
  m.quarantined.push_back(Manifest::Quarantine{4, "crashed (signal 6)"});

  std::string error;
  const auto parsed = Manifest::parse(m.to_string(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, m);
  EXPECT_FALSE(m.all_done());
  EXPECT_TRUE(m.is_quarantined(4));
  EXPECT_FALSE(m.is_quarantined(3));
  const auto in_range = m.quarantined_in(ShardRange{4, 6});
  ASSERT_EQ(in_range.size(), 1u);
  EXPECT_EQ(in_range[0], 4u);

  // The shard count is bounded like CampaignSpec's: never narrowed to a
  // wrong int, never an unbounded row allocation.
  const std::string text = m.to_string();
  const std::string shards_line = "shards = 3\n";
  ASSERT_NE(text.find(shards_line), std::string::npos);
  for (const char* bad : {"0", "100001", "2147483648", "4294967297"}) {
    std::string edited = text;
    edited.replace(edited.find(shards_line), shards_line.size(),
                   std::string("shards = ") + bad + "\n");
    EXPECT_FALSE(Manifest::parse(edited, &error).has_value()) << bad;
  }
}

TEST(Manifest, EmbeddedSpecSurvives) {
  const CampaignSpec spec = tiny_spec();
  const Manifest m = Manifest::fresh(spec);
  const auto parsed = Manifest::parse(m.to_string());
  ASSERT_TRUE(parsed.has_value());
  const auto spec_back = CampaignSpec::parse(parsed->spec_text);
  ASSERT_TRUE(spec_back.has_value());
  EXPECT_EQ(*spec_back, spec);
  EXPECT_EQ(spec_back->fingerprint(), parsed->fingerprint);
}

TEST(Sidecars, ProgressRoundTrips) {
  const std::vector<std::uint64_t> inflight = {5, 6, 7};
  const auto parsed = parse_progress(progress_to_string(2, inflight));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, inflight);
  EXPECT_TRUE(parse_progress(progress_to_string(0, {})) ->empty());
  EXPECT_FALSE(parse_progress("junk\n").has_value());

  // Negative indices are rejected, not wrapped to 2^64 - n.
  EXPECT_FALSE(parse_progress("schema = ccdem-campaign-progress-v1\n"
                              "shard = 0\ninflight = 5,-3\n")
                   .has_value());
}

// --- one grammar across every key=value reader -----------------------------

/// `text` with the value of its first `key = ...` line replaced by `value`.
std::string with_value(const std::string& text, const std::string& key,
                       const std::string& value) {
  const std::string prefix = key + " = ";
  const std::size_t at = text.rfind(prefix, 0) == 0
                             ? 0
                             : text.find("\n" + prefix) + 1;
  const std::size_t end = text.find('\n', at);
  return text.substr(0, at + prefix.size()) + value + text.substr(end);
}

TEST(Grammar, EveryReaderRejectsTheSameMalformedValues) {
  enum class Kind { kSigned, kUnsigned, kDouble };
  struct Field {
    const char* key;
    Kind kind;
  };
  struct Reader {
    const char* name;
    std::string text;  ///< a valid document
    std::vector<Field> fields;
    std::function<bool(const std::string&)> parses;
  };
  const std::vector<Reader> readers = {
      {"scenario",
       check::scenario_to_string(check::Scenario{}),
       {{"duration_ms", Kind::kSigned},
        {"seed", Kind::kUnsigned},
        {"alpha", Kind::kDouble}},
       [](const std::string& t) { return check::parse_scenario(t).has_value(); }},
      {"scene",
       apps::scene_spec_to_string(
           apps::SceneSpec::burst_video({700, 12, 30.0, {1, 3}})),
       {{"gap_ms", Kind::kSigned}, {"burst_fps", Kind::kDouble}},
       [](const std::string& t) {
         return apps::scene_spec_from_string(t).has_value();
       }},
      {"campaign spec",
       tiny_spec().to_string(),
       {{"duration_ms", Kind::kSigned},
        {"seeds", Kind::kUnsigned},
        {"fault_scales", Kind::kDouble}},
       [](const std::string& t) { return CampaignSpec::parse(t).has_value(); }},
      {"manifest",
       Manifest::fresh(tiny_spec()).to_string(),
       {{"shards", Kind::kSigned}, {"fingerprint", Kind::kUnsigned}},
       [](const std::string& t) { return Manifest::parse(t).has_value(); }},
      {"progress sidecar",
       progress_to_string(2, {5, 6}),
       {{"shard", Kind::kUnsigned}},
       [](const std::string& t) { return parse_progress(t).has_value(); }},
  };
  for (const Reader& r : readers) {
    ASSERT_TRUE(r.parses(r.text)) << r.name;
    for (const Field& f : r.fields) {
      std::vector<std::string> bad = {"", "12abc", "nan", "inf", "1e999",
                                      "+5", "0x10"};
      if (f.kind == Kind::kUnsigned) bad.push_back("-1");
      for (const std::string& v : bad) {
        EXPECT_FALSE(r.parses(with_value(r.text, f.key, v)))
            << r.name << ": " << f.key << " = " << v;
      }
      // A repeated key is a conflict, never last-wins.
      const std::string line = std::string(f.key) + " = 1\n";
      EXPECT_FALSE(r.parses(r.text + line)) << r.name << ": repeated " << f.key;
    }
  }
}

TEST(Files, AtomicSaveAndLoad) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const auto path = tmp.file("state.txt");
  ASSERT_TRUE(save_file_atomic(path, "hello\n"));
  EXPECT_EQ(read_file(path), "hello\n");
  ASSERT_TRUE(save_file_atomic(path, "world\n"));  // overwrite via rename
  EXPECT_EQ(read_file(path), "world\n");
  EXPECT_FALSE(load_file(tmp.file("missing")).has_value());
}

TEST(Files, FormatDoubleRoundTrips) {
  for (const double v : {0.0, 0.1, 1.0 / 3.0, -2.5e-10, 6.02214076e23}) {
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(format_double(0.5), "0.5");
  // Shortest text, fixed notation on a tie with scientific.
  EXPECT_EQ(format_double(100.0), "100");
  EXPECT_EQ(format_double(30000.0), "30000");
  EXPECT_EQ(format_double(1e22), "1e+22");
  EXPECT_EQ(format_double(0.1), "0.1");
}

// --- residency ------------------------------------------------------------

TEST(Residency, StepHoldOverTheRunDuration) {
  sim::Trace t("refresh_hz");
  t.record(sim::Time{0}, 60.0);
  t.record(sim::at_seconds(0.25), 20.0);
  t.record(sim::at_seconds(0.75), 40.0);
  const auto res = compute_residency(t, sim::milliseconds(1000));
  ASSERT_EQ(res.size(), 3u);  // ascending hz
  EXPECT_EQ(res[0].hz, 20);
  EXPECT_DOUBLE_EQ(res[0].seconds, 0.5);
  EXPECT_EQ(res[1].hz, 40);
  EXPECT_DOUBLE_EQ(res[1].seconds, 0.25);
  EXPECT_EQ(res[2].hz, 60);
  EXPECT_DOUBLE_EQ(res[2].seconds, 0.25);
}

TEST(Residency, FirstPointValueCoversTheStart) {
  sim::Trace t("refresh_hz");
  t.record(sim::at_seconds(0.5), 30.0);  // nothing recorded before 0.5 s
  const auto res = compute_residency(t, sim::milliseconds(1000));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].hz, 30);
  EXPECT_DOUBLE_EQ(res[0].seconds, 1.0);
  EXPECT_TRUE(compute_residency(sim::Trace("x"), sim::milliseconds(100)).empty());
}

// --- worker ---------------------------------------------------------------

TEST(Worker, WritesAVerifiableShardFile) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const CampaignSpec spec = tiny_spec();
  WorkerOptions w;
  w.threads = 2;
  const ShardOutcome out = run_shard(spec, 0, tmp.path(), w);
  ASSERT_TRUE(out.ok) << out.error;
  const ShardRange range = shard_range(spec, 0);
  EXPECT_EQ(out.results, range.size());

  const std::string bytes = read_file(tmp.file(shard_file_name(0)));
  EXPECT_EQ(bytes.size(), out.bytes);
  std::string error;
  const auto records = decode_all(bytes, &error);
  ASSERT_TRUE(records.has_value()) << error;

  // Recompute the aggregate from the records; it must equal the embedded one.
  Aggregates recomputed;
  std::optional<Aggregates> embedded;
  for (const Record& r : *records) {
    if (const auto* res = std::get_if<ResultRecord>(&r)) {
      recomputed.add(*res);
      EXPECT_GE(res->scenario_index, range.begin);
      EXPECT_LT(res->scenario_index, range.end);
      EXPECT_GT(res->mean_power_mw, 0.0);
      EXPECT_FALSE(res->residency.empty());
    } else if (const auto* c = std::get_if<CountersRecord>(&r)) {
      recomputed.add_counters(*c);
      EXPECT_FALSE(c->counters.empty());
    } else if (const auto* a = std::get_if<AggregateRecord>(&r)) {
      embedded = Aggregates::decode(a->payload);
    }
  }
  ASSERT_TRUE(embedded.has_value());
  EXPECT_EQ(*embedded, recomputed);
  // The progress sidecar is cleaned up on success.
  EXPECT_FALSE(std::filesystem::exists(tmp.file(shard_progress_name(0))));
}

TEST(Worker, SkipsQuarantinedIndices) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const CampaignSpec spec = tiny_spec();
  const ShardRange range = shard_range(spec, 0);
  ASSERT_GE(range.size(), 2u);
  WorkerOptions w;
  w.threads = 1;
  w.skip = {range.begin};
  const ShardOutcome out = run_shard(spec, 0, tmp.path(), w);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.results, range.size() - 1);
}

TEST(Worker, SigtermDrainsGracefullyAndLeavesAResumableShard) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const CampaignSpec spec = tiny_spec();
  const ShardRange range = shard_range(spec, 0);
  ASSERT_GE(range.size(), 2u);

  // SIGTERM arrives while the first scenario is in flight (run_shard runs
  // in-process here, so the raise hits its own ScopedSigterm handler).
  WorkerOptions w;
  w.threads = 1;
  w.chunk = 1;
  w.run_hook = [&](std::uint64_t index) {
    if (index == range.begin) std::raise(SIGTERM);
  };
  const ShardOutcome out = run_shard(spec, 0, tmp.path(), w);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.interrupted);
  EXPECT_EQ(out.results, 1u);  // the in-flight record was finished, not cut

  // The drained file is complete-decodable (counters, aggregate, checksummed
  // end marker) but was NOT renamed -- the shard is not done.
  EXPECT_FALSE(std::filesystem::exists(tmp.file(shard_file_name(0))));
  const std::string bytes =
      read_file(tmp.file(shard_file_name(0) + std::string(".tmp")));
  EXPECT_EQ(bytes.size(), out.bytes);
  std::string error;
  ASSERT_TRUE(decode_all(bytes, &error).has_value()) << error;

  // The progress sidecar names exactly the indices that never ran.
  const auto remaining =
      parse_progress(read_file(tmp.file(shard_progress_name(0))));
  ASSERT_TRUE(remaining.has_value());
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = range.begin + 1; i < range.end; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(*remaining, expected);

  // A relaunch starts clean (the handler and flag were restored on return)
  // and completes the shard normally.
  const ShardOutcome again = run_shard(spec, 0, tmp.path(), {});
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_FALSE(again.interrupted);
  EXPECT_EQ(again.results, range.size());
  EXPECT_TRUE(std::filesystem::exists(tmp.file(shard_file_name(0))));
}

// --- coordinator ----------------------------------------------------------

TEST(Campaign, RunsToCompletionAndWritesArtifacts) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const CampaignSpec spec = tiny_spec();
  CampaignOptions opts;
  opts.workers = 2;
  opts.worker.threads = 1;
  const CampaignResult result = run_campaign(spec, tmp.path(), opts);
  ASSERT_TRUE(result.complete) << result.error;
  EXPECT_EQ(result.runs, spec.size());
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(result.aggregates.runs, spec.size());
  EXPECT_GT(result.aggregates.power.mean(), 0.0);
#if defined(__linux__)
  EXPECT_GT(result.peak_rss_kb, 0);
#endif

  // manifest: all shards done, counts filled in.
  const auto manifest = Manifest::parse(read_file(tmp.file(manifest_file_name())));
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(manifest->all_done());

  // aggregates.bin: one aggregate record equal to the returned aggregates.
  const auto records = decode_all(read_file(tmp.file(aggregates_file_name())));
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  const auto decoded =
      Aggregates::decode(std::get<AggregateRecord>((*records)[0]).payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result.aggregates);

  const std::string summary = read_file(tmp.file(summary_file_name()));
  EXPECT_NE(summary.find("ccdem-campaign-summary-v1"), std::string::npos);

  // The results CSV converter reads the shard files it left behind.
  std::ostringstream csv;
  EXPECT_FALSE(bin_to_results_csv(tmp.file(shard_file_name(0)), csv).has_value());
  EXPECT_NE(csv.str().find("scenario_index,app,mode"), std::string::npos);
}

TEST(Campaign, KilledWorkerResumesByteIdentically) {
  testing::TempDir clean_dir;
  ASSERT_TRUE(clean_dir.ok());
  const CampaignSpec spec = tiny_spec();

  // Reference: the same campaign uninterrupted.
  CampaignOptions clean_opts;
  clean_opts.workers = 2;
  clean_opts.worker.threads = 1;
  const CampaignResult clean = run_campaign(spec, clean_dir.path(), clean_opts);
  ASSERT_TRUE(clean.complete) << clean.error;

  // One serial worker, then two workers running two fleet threads over
  // two-run chunks, so the kill also lands among concurrent workers.
  struct Shape {
    int workers;
    unsigned threads;
    std::uint64_t chunk;
  };
  for (const Shape shape : {Shape{1, 1, 1}, Shape{2, 2, 2}}) {
    SCOPED_TRACE(::testing::Message() << shape.workers << " workers, "
                                      << shape.threads << " threads, chunk "
                                      << shape.chunk);
    testing::TempDir killed_dir;
    ASSERT_TRUE(killed_dir.ok());

    // Arm 1: kill shard 1's worker after its first result, no retries --
    // the campaign must come back incomplete with shard 1 pending.
    CampaignOptions opts;
    opts.workers = shape.workers;
    opts.worker.threads = shape.threads;
    opts.worker.chunk = shape.chunk;
    opts.worker.kill_after_runs = 1;
    opts.kill_shard = 1;
    opts.max_shard_retries = 0;
    const CampaignResult interrupted =
        run_campaign(spec, killed_dir.path(), opts);
    EXPECT_FALSE(interrupted.complete);
    EXPECT_NE(interrupted.error.find("resume"), std::string::npos);
    EXPECT_FALSE(
        std::filesystem::exists(killed_dir.file(aggregates_file_name())));

    // Arm 2: resume from the manifest; only shard 1 re-runs.
    CampaignOptions resume_opts;
    resume_opts.workers = shape.workers;
    resume_opts.worker.threads = shape.threads;
    resume_opts.resume = true;
    const CampaignResult resumed =
        run_campaign(spec, killed_dir.path(), resume_opts);
    ASSERT_TRUE(resumed.complete) << resumed.error;
    EXPECT_EQ(resumed.runs, spec.size());

    EXPECT_EQ(resumed.aggregates, clean.aggregates);
    EXPECT_EQ(read_file(killed_dir.file(aggregates_file_name())),
              read_file(clean_dir.file(aggregates_file_name())));
    EXPECT_EQ(read_file(killed_dir.file(summary_file_name())),
              read_file(clean_dir.file(summary_file_name())));
  }
}

TEST(Campaign, ResumeRefusesADifferentMatrix) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const CampaignSpec spec = tiny_spec();
  ASSERT_TRUE(save_file_atomic(tmp.file(manifest_file_name()),
                               Manifest::fresh(spec).to_string()));
  CampaignSpec other = spec;
  other.seeds = {42};
  CampaignOptions opts;
  opts.resume = true;
  const CampaignResult result = run_campaign(other, tmp.path(), opts);
  EXPECT_FALSE(result.complete);
  EXPECT_NE(result.error.find("fingerprint"), std::string::npos);

  // The fingerprint pins the spec text, not the manifest's own rows: a
  // manifest whose shard or scenario count disagrees is refused too.
  for (const bool edit_shards : {true, false}) {
    Manifest m = Manifest::fresh(spec);
    if (edit_shards) {
      m.shards = 5;
      m.shard_rows.resize(5);
    } else {
      m.scenarios += 1;
    }
    ASSERT_TRUE(
        save_file_atomic(tmp.file(manifest_file_name()), m.to_string()));
    const CampaignResult r = run_campaign(spec, tmp.path(), opts);
    EXPECT_FALSE(r.complete);
    EXPECT_NE(r.error.find("count differs"), std::string::npos) << r.error;
  }
}

TEST(Campaign, CrashingScenarioIsQuarantinedWithARepro) {
  testing::TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  CampaignSpec spec = tiny_spec();
  spec.seeds = {1, 2};  // 4 scenarios over 2 shards
  spec.shards = 2;
  const std::uint64_t guilty = 2;

  CampaignOptions opts;
  opts.workers = 1;
  opts.worker.threads = 1;
  opts.worker.chunk = 1;
  // Simulates a scenario that kills its process wherever it executes --
  // the worker, the isolation child, the minimizer's children.
  opts.worker.run_hook = [guilty](std::uint64_t index) {
    if (index == guilty) std::raise(SIGKILL);
  };
  opts.max_shard_retries = 2;
  const CampaignResult result = run_campaign(spec, tmp.path(), opts);
  ASSERT_TRUE(result.complete) << result.error;
  EXPECT_EQ(result.runs, spec.size() - 1);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0], guilty);

  // The quarantine landed in the manifest and produced a parseable repro.
  const auto manifest = Manifest::parse(read_file(tmp.file(manifest_file_name())));
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(manifest->is_quarantined(guilty));
  ASSERT_EQ(result.repro_files.size(), 1u);
  const std::string repro = read_file(result.repro_files[0]);
  EXPECT_NE(repro.find("# failure:"), std::string::npos);
  std::string error;
  EXPECT_TRUE(check::parse_scenario(repro, &error).has_value()) << error;
}

}  // namespace
}  // namespace ccdem::campaign
