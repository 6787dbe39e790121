// Unit tests for the observability primitives: the counter registry, the
// span ring buffer, and the two trace exporters (Chrome JSON + CSV).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/trace_export.h"

using namespace ccdem;
using obs::Counters;
using obs::Phase;
using obs::Span;
using obs::SpanRecorder;

namespace {

Span make_span(std::int64_t ts, std::uint64_t frame, Phase phase,
               std::int64_t dur = 0, std::int64_t arg = 0) {
  return Span{sim::Time{ts}, sim::Duration{dur}, frame, arg, phase};
}

}  // namespace

// --- Counters ---------------------------------------------------------------

TEST(Counters, SlotRegistersAtZeroAndStaysStable) {
  Counters c;
  std::uint64_t& slot = c.counter("flinger.frames");
  EXPECT_EQ(slot, 0u);
  slot += 3;
  // Registering many more names must not move the first slot.
  for (int i = 0; i < 1000; ++i) {
    c.counter("pad." + std::to_string(i)) = static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(&slot, &c.counter("flinger.frames"));
  EXPECT_EQ(c.value("flinger.frames"), 3u);
  EXPECT_EQ(c.value("never.registered"), 0u);
  EXPECT_TRUE(c.has_counter("flinger.frames"));
  EXPECT_FALSE(c.has_counter("never.registered"));
}

TEST(Counters, GaugesAreIndependentOfCounters) {
  Counters c;
  c.set_gauge("refresh_hz", 48.0);
  c.add("refresh_hz", 2);  // a *counter* with the same name
  EXPECT_DOUBLE_EQ(c.gauge_value("refresh_hz"), 48.0);
  EXPECT_EQ(c.value("refresh_hz"), 2u);
}

TEST(Counters, SnapshotIsNameSorted) {
  Counters c;
  c.add("zeta", 1);
  c.add("alpha", 2);
  c.add("mid", 3);
  c.set_gauge("z_gauge", 1.0);
  c.set_gauge("a_gauge", 2.0);
  const Counters::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "a_gauge");
  EXPECT_EQ(snap.gauges[1].first, "z_gauge");
}

TEST(Counters, MergeAddsCountersAndKeepsMaxGauge) {
  Counters a;
  a.add("shared", 10);
  a.add("only_a", 1);
  a.set_gauge("g", 5.0);
  Counters b;
  b.add("shared", 32);
  b.add("only_b", 2);
  b.set_gauge("g", 3.0);

  a.merge(b);
  EXPECT_EQ(a.value("shared"), 42u);
  EXPECT_EQ(a.value("only_a"), 1u);
  EXPECT_EQ(a.value("only_b"), 2u);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 5.0);

  // Merge is commutative on counters: b + a gives the same totals.
  Counters b2;
  b2.add("shared", 32);
  b2.add("only_b", 2);
  Counters a2;
  a2.add("shared", 10);
  a2.add("only_a", 1);
  b2.merge(a2);
  EXPECT_EQ(b2.value("shared"), a.value("shared"));
  EXPECT_EQ(b2.value("only_a"), a.value("only_a"));
  EXPECT_EQ(b2.value("only_b"), a.value("only_b"));
}

TEST(Counters, CopyIsDeepAndIndependent) {
  Counters a;
  std::uint64_t& slot = a.counter("x");
  slot = 7;
  Counters b = a;
  b.counter("x") += 1;
  EXPECT_EQ(a.value("x"), 7u);
  EXPECT_EQ(b.value("x"), 8u);
  // The copy's slot must be its own storage, not an alias of the original.
  EXPECT_NE(&b.counter("x"), &slot);
}

TEST(Counters, ClearDropsEverything) {
  Counters c;
  c.add("x", 1);
  c.set_gauge("g", 1.0);
  c.clear();
  EXPECT_EQ(c.counter_count(), 0u);
  EXPECT_EQ(c.gauge_count(), 0u);
  EXPECT_FALSE(c.has_counter("x"));
}

// --- SpanRecorder -----------------------------------------------------------

TEST(SpanRecorder, RecordsInOrderBelowCapacity) {
  SpanRecorder rec(8);
  for (std::int64_t i = 0; i < 5; ++i) {
    rec.record(Phase::kCompose, sim::Time{i}, sim::Duration{1},
               static_cast<std::uint64_t>(i), i * 10);
  }
  const std::vector<Span> spans = rec.spans();
  if (!SpanRecorder::compiled_in()) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin.ticks, static_cast<std::int64_t>(i));
    EXPECT_EQ(spans[i].frame, i);
  }
}

TEST(SpanRecorder, RingOverflowKeepsMostRecentWindow) {
  if (!SpanRecorder::compiled_in()) GTEST_SKIP() << "spans compiled out";
  SpanRecorder rec(4);
  for (std::int64_t i = 0; i < 11; ++i) {
    rec.record(Phase::kMeter, sim::Time{i}, sim::Duration{}, 0, 0);
  }
  EXPECT_EQ(rec.recorded(), 11u);
  EXPECT_EQ(rec.dropped(), 7u);
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first unwrap of the newest 4: ts 7, 8, 9, 10.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].begin.ticks, static_cast<std::int64_t>(7 + i));
  }
}

TEST(SpanRecorder, GrowsUntilFullThenWraps) {
  // The ring grows as it records and wraps only once it holds capacity()
  // spans; retained spans and dropped() must read the same on both sides of
  // that boundary.
  if (!SpanRecorder::compiled_in()) GTEST_SKIP() << "spans compiled out";
  SpanRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  std::int64_t next = 0;
  const auto record_until = [&](std::int64_t total) {
    for (; next < total; ++next) {
      rec.record(Phase::kCompose, sim::Time{next}, sim::Duration{}, 0, next);
    }
  };
  const auto ticks = [&]() {
    std::vector<std::int64_t> out;
    for (const Span& s : rec.spans()) out.push_back(s.begin.ticks);
    return out;
  };
  record_until(3);
  EXPECT_EQ(ticks(), (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(rec.dropped(), 0u);
  record_until(4);
  EXPECT_EQ(ticks(), (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(rec.dropped(), 0u);
  record_until(5);
  EXPECT_EQ(ticks(), (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(rec.dropped(), 1u);
  record_until(9);
  EXPECT_EQ(ticks(), (std::vector<std::int64_t>{5, 6, 7, 8}));
  EXPECT_EQ(rec.dropped(), 5u);
  EXPECT_EQ(rec.recorded(), 9u);
  EXPECT_EQ(rec.capacity(), 4u);
}

TEST(SpanRecorder, ClearMidGrowthStartsOver) {
  if (!SpanRecorder::compiled_in()) GTEST_SKIP() << "spans compiled out";
  SpanRecorder rec(4);
  for (std::int64_t i = 0; i < 2; ++i) {
    rec.record(Phase::kMeter, sim::Time{i}, sim::Duration{}, 0, 0);
  }
  rec.clear();
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.capacity(), 4u);
  // Refill past capacity: the ring grows again from empty, then wraps.
  for (std::int64_t i = 10; i < 15; ++i) {
    rec.record(Phase::kMeter, sim::Time{i}, sim::Duration{}, 0, 0);
  }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].begin.ticks, static_cast<std::int64_t>(11 + i));
  }
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(4);
  rec.set_enabled(false);
  rec.record(Phase::kGovern, sim::Time{1}, sim::Duration{}, 1, 1);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.spans().empty());
  rec.set_enabled(true);
  rec.record(Phase::kGovern, sim::Time{2}, sim::Duration{}, 2, 2);
  EXPECT_EQ(rec.recorded(), SpanRecorder::compiled_in() ? 1u : 0u);
}

TEST(SpanRecorder, ClearResetsRingAndCounts) {
  if (!SpanRecorder::compiled_in()) GTEST_SKIP() << "spans compiled out";
  SpanRecorder rec(4);
  for (int i = 0; i < 9; ++i) {
    rec.record(Phase::kPanelPresent, sim::Time{i}, sim::Duration{}, 0, 0);
  }
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.spans().empty());
  rec.record(Phase::kPanelPresent, sim::Time{42}, sim::Duration{}, 0, 0);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].begin.ticks, 42);
}

// --- exporters --------------------------------------------------------------

TEST(TraceExport, PhaseNamesRoundTrip) {
  for (int i = 0; i < obs::kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    const auto back = obs::phase_from_name(obs::phase_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(obs::phase_from_name("bogus").has_value());
}

TEST(TraceExport, ChromeJsonRoundTripsSpansAndCounters) {
  std::vector<Span> spans = {
      make_span(0, 1, Phase::kCompose, 16667, 921600),
      make_span(16667, 1, Phase::kMeter, 50, 9000),
      make_span(100000, 1, Phase::kGovern, 0, 48),
      make_span(-5, 2, Phase::kPanelPresent, 20833, -60),
  };
  Counters c;
  c.add("flinger.frames_composed", 1234);
  c.set_gauge("mean_hz", 47.25);
  const std::string text = obs::chrome_trace_to_string(spans, c.snapshot());

  std::string error;
  const auto parsed = obs::parse_chrome_trace(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->spans, spans);
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].first, "flinger.frames_composed");
  EXPECT_EQ(parsed->counters[0].second, 1234u);
  ASSERT_EQ(parsed->gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->gauges[0].second, 47.25);
}

TEST(TraceExport, CsvRoundTripsSpansAndCounters) {
  std::vector<Span> spans = {
      make_span(10, 7, Phase::kCompose, 3, 5),
      make_span(20, 8, Phase::kPanelPresent, 16667, 60),
  };
  Counters c;
  c.add("dpm.rate_changes", 17);
  c.set_gauge("g", -2.5);
  const std::string text = obs::trace_csv_to_string(spans, c.snapshot());

  std::string error;
  const auto parsed = obs::parse_trace_csv(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->spans, spans);
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].second, 17u);
  ASSERT_EQ(parsed->gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->gauges[0].second, -2.5);
}

TEST(TraceExport, JsonEscapesAwkwardCounterNames) {
  Counters c;
  const std::string name = "weird \"name\"\\with\nnewline\tand\x01control";
  c.add(name, 5);
  const std::string text = obs::chrome_trace_to_string({}, c.snapshot());
  std::string error;
  const auto parsed = obs::parse_chrome_trace(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].first, name);
  EXPECT_EQ(parsed->counters[0].second, 5u);
}

TEST(TraceExport, ExtremeIntegersSurviveBothFormats) {
  // Above 2^53: a double-based JSON parser would corrupt these.
  std::vector<Span> spans = {make_span(
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::uint64_t>::max(), Phase::kMeter, 0,
      std::numeric_limits<std::int64_t>::min())};
  Counters c;
  c.add("big", std::numeric_limits<std::uint64_t>::max());
  const auto snap = c.snapshot();

  std::string error;
  const auto json = obs::parse_chrome_trace(
      obs::chrome_trace_to_string(spans, snap), &error);
  ASSERT_TRUE(json.has_value()) << error;
  EXPECT_EQ(json->spans, spans);
  EXPECT_EQ(json->counters[0].second,
            std::numeric_limits<std::uint64_t>::max());

  const auto csv =
      obs::parse_trace_csv(obs::trace_csv_to_string(spans, snap), &error);
  ASSERT_TRUE(csv.has_value()) << error;
  EXPECT_EQ(csv->spans, spans);
  EXPECT_EQ(csv->counters[0].second,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(TraceExport, GaugeDoublesRoundTripExactly) {
  Counters c;
  c.set_gauge("tenth", 0.1);
  c.set_gauge("tiny", 4.9406564584124654e-324);  // denormal min
  c.set_gauge("huge", 1.7976931348623157e308);
  c.set_gauge("neg", -3.75);
  const auto snap = c.snapshot();

  std::string error;
  for (const std::string& text :
       {obs::chrome_trace_to_string({}, snap),
        obs::trace_csv_to_string({}, snap)}) {
    const auto parsed = text[0] == '{' ? obs::parse_chrome_trace(text, &error)
                                       : obs::parse_trace_csv(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_EQ(parsed->gauges.size(), snap.gauges.size());
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
      EXPECT_EQ(parsed->gauges[i].second, snap.gauges[i].second)
          << snap.gauges[i].first;
    }
  }
}

TEST(TraceExport, ParseRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(obs::parse_chrome_trace("", &error).has_value());
  EXPECT_FALSE(obs::parse_chrome_trace("[]", &error).has_value());
  EXPECT_FALSE(obs::parse_chrome_trace("{\"traceEvents\":[", &error));
  EXPECT_FALSE(obs::parse_chrome_trace("{}", &error).has_value());
  EXPECT_FALSE(obs::parse_chrome_trace(
      "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"bogus\",\"ts\":0,"
      "\"dur\":0,\"args\":{\"frame\":0,\"arg\":0}}]}", &error));
  EXPECT_FALSE(obs::parse_chrome_trace(
      "{\"traceEvents\":[],\"counters\":{\"x\":1.5}}", &error));
}

TEST(TraceExport, ParseToleratesForeignEvents) {
  // Metadata events ('M') from other producers are skipped, not errors.
  std::string error;
  const auto parsed = obs::parse_chrome_trace(
      "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\"}]}", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->spans.empty());
}

TEST(TraceExport, ParseRejectsMalformedCsv) {
  std::string error;
  EXPECT_FALSE(obs::parse_trace_csv("", &error).has_value());
  EXPECT_FALSE(
      obs::parse_trace_csv("frame,phase,ts_us,dur_us,arg\n", &error));
  EXPECT_FALSE(obs::parse_trace_csv(
      "# ccdem trace v1\nframe,phase,ts_us,dur_us,arg\n1,compose,0\n",
      &error));
  EXPECT_FALSE(obs::parse_trace_csv(
      "# ccdem trace v1\nframe,phase,ts_us,dur_us,arg\n"
      "x,compose,0,0,0\n", &error));
  EXPECT_FALSE(obs::parse_trace_csv(
      "# ccdem trace v1\nframe,phase,ts_us,dur_us,arg\n"
      "# counters\nnovalue\n", &error));
}

TEST(TraceExport, ObsSinkClearResetsBothSides) {
  obs::ObsSink sink;
  sink.counters.add("x", 3);
  sink.spans.record(Phase::kCompose, sim::Time{1}, sim::Duration{}, 1, 1);
  sink.clear();
  EXPECT_EQ(sink.counters.counter_count(), 0u);
  EXPECT_EQ(sink.spans.recorded(), 0u);
}
