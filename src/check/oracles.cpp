#include "check/oracles.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "core/section_table.h"
#include "harness/fleet.h"
#include "obs/obs.h"
#include "obs/trace_export.h"

namespace ccdem::check {

namespace {

bool starts_with_any(const std::string& name,
                     const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

std::optional<std::string> diff_trace(const sim::Trace& a, const sim::Trace& b,
                                      const std::string& what,
                                      const char* field) {
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << what << ": " << field << " trace size " << a.size() << " vs "
       << b.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& pa = a.points()[i];
    const auto& pb = b.points()[i];
    if (pa.t.ticks != pb.t.ticks || pa.value != pb.value) {
      std::ostringstream os;
      os << what << ": " << field << " trace point " << i << " ("
         << pa.t.ticks << "us, " << pa.value << ") vs (" << pb.t.ticks
         << "us, " << pb.value << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> diff_scalar(double a, double b,
                                       const std::string& what,
                                       const char* field) {
  if (a == b) return std::nullopt;
  std::ostringstream os;
  os << what << ": " << field << " " << a << " vs " << b;
  return os.str();
}

std::optional<std::string> diff_scalar(std::uint64_t a, std::uint64_t b,
                                       const std::string& what,
                                       const char* field) {
  if (a == b) return std::nullopt;
  std::ostringstream os;
  os << what << ": " << field << " " << a << " vs " << b;
  return os.str();
}

}  // namespace

RunArtifacts run_scenario_once(harness::ExperimentConfig cfg,
                               const RunOptions& opt) {
  cfg.dpm.meter.damage_culling = opt.damage_culling;
  cfg.governor.meter.damage_culling = opt.damage_culling;
  cfg.hash_frames = opt.hash_frames;
  RunArtifacts out;
  if (opt.fleet) {
    harness::FleetRunner fleet;
    out.result = fleet.run({cfg}).at(0);
    out.counters = fleet.stats().counters.snapshot();
  } else {
    obs::ObsSink sink;
    sink.spans.set_enabled(opt.spans);
    cfg.obs = &sink;
    out.result = harness::run_experiment(cfg);
    out.counters = sink.counters.snapshot();
    out.spans = sink.spans.spans();
  }
  out.trace_csv = obs::trace_csv_to_string(out.spans, out.counters);
  return out;
}

std::optional<std::string> diff_results(const harness::ExperimentResult& a,
                                        const harness::ExperimentResult& b,
                                        const std::string& what) {
  if (auto d = diff_scalar(a.mean_power_mw, b.mean_power_mw, what,
                           "mean_power_mw")) {
    return d;
  }
  if (auto d = diff_trace(a.power, b.power, what, "power")) return d;
  if (auto d = diff_trace(a.frame_rate, b.frame_rate, what, "frame_rate")) {
    return d;
  }
  if (auto d = diff_trace(a.content_rate, b.content_rate, what,
                          "content_rate")) {
    return d;
  }
  if (auto d = diff_trace(a.measured_content_rate, b.measured_content_rate,
                          what, "measured_content_rate")) {
    return d;
  }
  if (auto d = diff_trace(a.refresh_rate, b.refresh_rate, what,
                          "refresh_rate")) {
    return d;
  }
  if (auto d = diff_scalar(a.meter_error_rate, b.meter_error_rate, what,
                           "meter_error_rate")) {
    return d;
  }
  if (auto d = diff_scalar(a.rate_switches, b.rate_switches, what,
                           "rate_switches")) {
    return d;
  }
  if (auto d = diff_scalar(a.response_mean_ms, b.response_mean_ms, what,
                           "response_mean_ms")) {
    return d;
  }
  if (auto d = diff_scalar(a.response_p95_ms, b.response_p95_ms, what,
                           "response_p95_ms")) {
    return d;
  }
  if (auto d = diff_scalar(a.response_max_ms, b.response_max_ms, what,
                           "response_max_ms")) {
    return d;
  }
  if (auto d = diff_scalar(
          static_cast<std::uint64_t>(a.response_interactions),
          static_cast<std::uint64_t>(b.response_interactions), what,
          "response_interactions")) {
    return d;
  }
  if (auto d = diff_scalar(a.energy.total_mj(), b.energy.total_mj(), what,
                           "energy.total_mj")) {
    return d;
  }
  if (auto d = diff_scalar(a.energy.refresh_mj, b.energy.refresh_mj, what,
                           "energy.refresh_mj")) {
    return d;
  }
  if (auto d = diff_scalar(a.energy.meter_mj, b.energy.meter_mj, what,
                           "energy.meter_mj")) {
    return d;
  }
  if (auto d = diff_scalar(a.mean_refresh_hz, b.mean_refresh_hz, what,
                           "mean_refresh_hz")) {
    return d;
  }
  if (auto d = diff_scalar(a.frames_composed, b.frames_composed, what,
                           "frames_composed")) {
    return d;
  }
  if (auto d = diff_scalar(a.content_frames, b.content_frames, what,
                           "content_frames")) {
    return d;
  }
  if (auto d = diff_scalar(a.frames_posted, b.frames_posted, what,
                           "frames_posted")) {
    return d;
  }
  if (auto d = diff_scalar(a.touch_events, b.touch_events, what,
                           "touch_events")) {
    return d;
  }
  if (auto d = diff_scalar(a.final_frame_hash, b.final_frame_hash, what,
                           "final_frame_hash")) {
    return d;
  }
  if (auto d = diff_scalar(a.frame_stream_hash, b.frame_stream_hash, what,
                           "frame_stream_hash")) {
    return d;
  }
  return std::nullopt;
}

std::optional<std::string> diff_counters(
    const obs::Counters::Snapshot& a, const obs::Counters::Snapshot& b,
    const std::string& what, const std::vector<std::string>& exclude_prefixes) {
  // Snapshots are name-sorted; walk both in lockstep, skipping excluded
  // names on either side.
  std::size_t i = 0, j = 0;
  const auto skip = [&](const obs::Counters::Snapshot& s, std::size_t& k) {
    while (k < s.counters.size() &&
           starts_with_any(s.counters[k].first, exclude_prefixes)) {
      ++k;
    }
  };
  while (true) {
    skip(a, i);
    skip(b, j);
    const bool ea = i >= a.counters.size();
    const bool eb = j >= b.counters.size();
    if (ea && eb) break;
    std::ostringstream os;
    if (ea != eb) {
      const auto& extra = ea ? b.counters[j] : a.counters[i];
      os << what << ": counter '" << extra.first << "' only in "
         << (ea ? "second" : "first") << " run";
      return os.str();
    }
    if (a.counters[i].first != b.counters[j].first) {
      os << what << ": counter name mismatch '" << a.counters[i].first
         << "' vs '" << b.counters[j].first << "'";
      return os.str();
    }
    if (a.counters[i].second != b.counters[j].second) {
      os << what << ": counter '" << a.counters[i].first << "' "
         << a.counters[i].second << " vs " << b.counters[j].second;
      return os.str();
    }
    ++i;
    ++j;
  }
  return std::nullopt;
}

std::optional<std::string> check_section_reference(const Scenario& s) {
  const display::RefreshRateSet ladder{s.rates};
  const core::SectionTable table =
      core::SectionTable::build(ladder, s.alpha);

  // Independent Equation (1) evaluation: the section of content rate c is
  // the first rung whose upper threshold r_{i-1} + alpha (r_i - r_{i-1})
  // exceeds c (thresholds recomputed per query -- deliberately not the
  // production table walk).
  const auto reference_index = [&](double c) -> std::size_t {
    const double cc = std::max(c, 0.0);
    for (std::size_t i = 0; i + 1 < ladder.count(); ++i) {
      const double r_prev =
          i == 0 ? 0.0 : static_cast<double>(ladder.at(i - 1));
      const double r_i = static_cast<double>(ladder.at(i));
      const double hi = r_prev + s.alpha * (r_i - r_prev);
      if (cc < hi) return i;
    }
    return ladder.count() - 1;
  };
  const auto reference_ceil = [&](double c) -> int {
    for (std::size_t i = 0; i < ladder.count(); ++i) {
      if (static_cast<double>(ladder.at(i)) >= c) return ladder.at(i);
    }
    return ladder.max_hz();
  };

  // Dense sweep plus every threshold boundary and its neighbourhood.
  std::vector<double> probes;
  for (double c = 0.0; c <= static_cast<double>(ladder.max_hz()) + 15.0;
       c += 0.25) {
    probes.push_back(c);
  }
  for (std::size_t i = 0; i < ladder.count(); ++i) {
    const double r_prev = i == 0 ? 0.0 : static_cast<double>(ladder.at(i - 1));
    const double r_i = static_cast<double>(ladder.at(i));
    const double hi = r_prev + s.alpha * (r_i - r_prev);
    probes.push_back(hi);
    probes.push_back(std::nextafter(hi, -1.0));
    probes.push_back(std::nextafter(hi, hi + 1.0));
    probes.push_back(r_i);
  }

  for (double c : probes) {
    const std::size_t want = reference_index(c);
    const std::size_t got = table.section_index_for(c);
    if (got != want) {
      std::ostringstream os;
      os << "section reference: index for content " << c << " fps is " << got
         << ", reference says " << want << " (alpha " << s.alpha << ")";
      return os.str();
    }
    if (table.rate_for(c) != ladder.at(want)) {
      std::ostringstream os;
      os << "section reference: rate for content " << c << " fps is "
         << table.rate_for(c) << ", reference says " << ladder.at(want);
      return os.str();
    }
    if (ladder.ceil_rate(c) != reference_ceil(c)) {
      std::ostringstream os;
      os << "section reference: ceil_rate(" << c << ") is "
         << ladder.ceil_rate(c) << ", reference says " << reference_ceil(c);
      return os.str();
    }
  }

  // Structural checks on the built table: contiguous half-open sections
  // from 0 to infinity, rungs ascending.
  const auto& sections = table.sections();
  if (sections.size() != ladder.count()) {
    return std::string("section reference: table has ") +
           std::to_string(sections.size()) + " sections for " +
           std::to_string(ladder.count()) + " rungs";
  }
  double lo = 0.0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].lo_fps != lo) {
      return std::string("section reference: section ") + std::to_string(i) +
             " lo is not contiguous";
    }
    lo = sections[i].hi_fps;
    if (sections[i].refresh_hz != ladder.at(i)) {
      return std::string("section reference: section ") + std::to_string(i) +
             " rung mismatch";
    }
  }
  if (!std::isinf(sections.back().hi_fps)) {
    return std::string("section reference: last section is bounded");
  }
  return std::nullopt;
}

}  // namespace ccdem::check
