#include "campaign/campaign.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "campaign/bin_format.h"
#include "campaign/io_util.h"
#include "device/control_mode.h"
#include "sim/key_value.h"

namespace ccdem::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSpecSchema = "ccdem-campaign-v1";
constexpr const char* kManifestSchema = "ccdem-campaign-manifest-v1";
constexpr int kMaxShards = 100000;

/// `v` as a shard count in [1, kMaxShards].
std::optional<int> parse_shards(const std::string& v) {
  const auto n = sim::kv::parse_i64(v);
  if (!n || *n < 1 || *n > kMaxShards) return std::nullopt;
  return static_cast<int>(*n);
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out;
}

}  // namespace

std::string format_double(double v) {
  assert(std::isfinite(v));
  char buf[64];
  for (int prec = 1; prec <= std::numeric_limits<double>::max_digits10;
       ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::uint64_t CampaignSpec::size() const {
  return static_cast<std::uint64_t>(apps.size()) * modes.size() *
         grids.size() * fault_scales.size() * pressure_scales.size() *
         seeds.size();
}

check::Scenario CampaignSpec::scenario_at(std::uint64_t i) const {
  assert(i < size());
  const std::uint64_t s = i % seeds.size();
  i /= seeds.size();
  const std::uint64_t f = i % fault_scales.size();
  i /= fault_scales.size();
  const std::uint64_t p = i % pressure_scales.size();
  i /= pressure_scales.size();
  const std::uint64_t g = i % grids.size();
  i /= grids.size();
  const std::uint64_t m = i % modes.size();
  i /= modes.size();
  const std::uint64_t a = i;
  assert(a < apps.size());

  check::Scenario sc;
  sc.app = apps[a];
  const auto mode = device::control_mode_from_keyword(modes[m]);
  assert(mode && "validate() admits known mode keywords only");
  sc.mode = *mode;
  sc.grid = grids[g];
  sc.fault_scale = fault_scales[f];
  sc.pressure_scale = pressure_scales[p];
  sc.seed = seeds[s];
  sc.duration_ms = duration_ms;
  return sc;
}

std::string CampaignSpec::to_string() const {
  std::ostringstream os;
  os << "schema = " << kSpecSchema << "\n";
  os << "apps = " << join(apps) << "\n";
  os << "modes = " << join(modes) << "\n";
  os << "grids = " << join(grids) << "\n";
  std::vector<std::string> scales;
  scales.reserve(fault_scales.size());
  for (const double f : fault_scales) scales.push_back(format_double(f));
  os << "fault_scales = " << join(scales) << "\n";
  // Only emitted when non-trivial so pre-existing specs keep their
  // canonical text (and thus fingerprint) unchanged.
  if (!(pressure_scales.size() == 1 && pressure_scales[0] == 0.0)) {
    std::vector<std::string> pressures;
    pressures.reserve(pressure_scales.size());
    for (const double p : pressure_scales) {
      pressures.push_back(format_double(p));
    }
    os << "pressure_scales = " << join(pressures) << "\n";
  }
  std::vector<std::string> seed_texts;
  seed_texts.reserve(seeds.size());
  for (const std::uint64_t s : seeds) seed_texts.push_back(std::to_string(s));
  os << "seeds = " << join(seed_texts) << "\n";
  os << "duration_ms = " << duration_ms << "\n";
  os << "ab = " << (ab ? 1 : 0) << "\n";
  os << "record_spans = " << (record_spans ? 1 : 0) << "\n";
  os << "oracles = " << (oracles ? 1 : 0) << "\n";
  os << "shards = " << shards << "\n";
  return os.str();
}

std::optional<CampaignSpec> CampaignSpec::parse(const std::string& text,
                                                std::string* error) {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  const auto entries = sim::kv::read(text, error);
  if (!entries) return std::nullopt;

  CampaignSpec spec;
  bool saw_schema = false;
  for (const sim::kv::Entry& e : *entries) {
    const std::string& key = e.key;
    const std::string& value = e.value;
    if (key == "schema") {
      if (value != kSpecSchema) return fail(sim::kv::bad_value(e));
      saw_schema = true;
    } else if (key == "apps") {
      spec.apps = sim::kv::split_list(value);
    } else if (key == "modes") {
      spec.modes = sim::kv::split_list(value);
    } else if (key == "grids") {
      spec.grids = sim::kv::split_list(value);
    } else if (key == "fault_scales" || key == "pressure_scales") {
      std::vector<double>& scales =
          key == "fault_scales" ? spec.fault_scales : spec.pressure_scales;
      scales.clear();
      for (const std::string& item : sim::kv::split_list(value)) {
        const auto d = sim::kv::parse_double(item);
        if (!d) return fail(sim::kv::bad_value(e));
        scales.push_back(*d);
      }
    } else if (key == "seeds") {
      spec.seeds.clear();
      for (const std::string& item : sim::kv::split_list(value)) {
        const auto s = sim::kv::parse_u64(item);
        if (!s) return fail(sim::kv::bad_value(e));
        spec.seeds.push_back(*s);
      }
    } else if (key == "duration_ms") {
      const auto d = sim::kv::parse_i64(value);
      if (!d) return fail(sim::kv::bad_value(e));
      spec.duration_ms = *d;
    } else if (key == "ab" || key == "record_spans" || key == "oracles") {
      const auto b = sim::kv::parse_bool(value);
      if (!b) return fail(sim::kv::bad_value(e));
      (key == "ab" ? spec.ab
                   : key == "record_spans" ? spec.record_spans
                                           : spec.oracles) = *b;
    } else if (key == "shards") {
      const auto n = parse_shards(value);
      if (!n) return fail(sim::kv::bad_value(e));
      spec.shards = *n;
    } else {
      return fail(sim::kv::unknown_key(e));
    }
  }
  if (!saw_schema) return fail("missing 'schema' line");
  if (const auto why = spec.validate()) return fail(*why);
  return spec;
}

std::optional<std::string> CampaignSpec::validate() const {
  if (apps.empty()) return "apps must not be empty";
  for (const std::string& a : apps) {
    if (!check::find_app(a)) return "unknown app '" + a + "'";
  }
  if (modes.empty()) return "modes must not be empty";
  for (const std::string& m : modes) {
    const auto mode = device::control_mode_from_keyword(m);
    if (!mode) return "unknown mode '" + m + "'";
    if (*mode == device::ControlMode::kPipeline) {
      return "mode 'pipeline' is not a campaign axis (no stage spec)";
    }
    if (ab && *mode == device::ControlMode::kBaseline60) {
      return "mode 'baseline' cannot be an A/B controlled arm";
    }
  }
  if (grids.empty()) return "grids must not be empty";
  for (const std::string& g : grids) {
    if (!check::parse_grid(g)) return "unknown grid '" + g + "'";
  }
  if (fault_scales.empty()) return "fault_scales must not be empty";
  for (const double f : fault_scales) {
    if (f < 0.0) return "fault scale must be >= 0";
  }
  if (pressure_scales.empty()) return "pressure_scales must not be empty";
  for (const double p : pressure_scales) {
    if (p < 0.0) return "pressure scale must be >= 0";
  }
  if (seeds.empty()) return "seeds must not be empty";
  if (duration_ms <= 0) return "duration_ms must be positive";
  if (shards < 1) return "shards must be >= 1";
  if (record_spans && oracles) {
    return "record_spans and oracles are mutually exclusive";
  }
  return std::nullopt;
}

std::uint64_t CampaignSpec::fingerprint() const { return fnv1a(to_string()); }

ShardRange shard_range(const CampaignSpec& spec, int shard) {
  assert(shard >= 0 && shard < spec.shards);
  const std::uint64_t n = spec.size();
  const auto s = static_cast<std::uint64_t>(spec.shards);
  const auto i = static_cast<std::uint64_t>(shard);
  return ShardRange{n * i / s, n * (i + 1) / s};
}

std::string shard_file_name(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%04d.bin", shard);
  return buf;
}

std::string shard_progress_name(int shard) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "shard_%04d.progress", shard);
  return buf;
}

Manifest Manifest::fresh(const CampaignSpec& spec) {
  Manifest m;
  m.fingerprint = spec.fingerprint();
  m.scenarios = spec.size();
  m.shards = spec.shards;
  m.shard_rows.assign(static_cast<std::size_t>(spec.shards), Shard{});
  m.spec_text = spec.to_string();
  return m;
}

bool Manifest::all_done() const {
  for (const Shard& s : shard_rows) {
    if (!s.done) return false;
  }
  return true;
}

bool Manifest::is_quarantined(std::uint64_t index) const {
  for (const Quarantine& q : quarantined) {
    if (q.index == index) return true;
  }
  return false;
}

std::vector<std::uint64_t> Manifest::quarantined_in(ShardRange range) const {
  std::vector<std::uint64_t> out;
  for (const Quarantine& q : quarantined) {
    if (q.index >= range.begin && q.index < range.end) out.push_back(q.index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Manifest::to_string() const {
  std::ostringstream os;
  os << "schema = " << kManifestSchema << "\n";
  os << "fingerprint = " << fingerprint << "\n";
  os << "scenarios = " << scenarios << "\n";
  os << "shards = " << shards << "\n";
  os << "begin_spec\n" << spec_text;
  if (!spec_text.empty() && spec_text.back() != '\n') os << "\n";
  os << "end_spec\n";
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    const Shard& s = shard_rows[i];
    os << "shard " << i << " = ";
    if (s.done) {
      os << "done file=" << s.file << " results=" << s.results
         << " bytes=" << s.bytes;
    } else {
      os << "pending";
    }
    os << " attempts=" << s.attempts << "\n";
  }
  for (const Quarantine& q : quarantined) {
    os << "quarantine " << q.index << " = " << q.reason << "\n";
  }
  return os.str();
}

std::optional<Manifest> Manifest::parse(const std::string& text,
                                        std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "manifest " + why;
    return std::nullopt;
  };
  std::string read_error;
  const auto entries = sim::kv::read(text, &read_error);
  if (!entries) return fail(read_error);

  Manifest m;
  bool saw_schema = false;
  for (const sim::kv::Entry& e : *entries) {
    const std::string& key = e.key;
    const std::string& value = e.value;
    const auto bad = [&](const std::string& what) {
      return fail(sim::kv::at_line(e.line, what));
    };
    if (key == "schema") {
      if (value != kManifestSchema) return fail(sim::kv::bad_value(e));
      saw_schema = true;
    } else if (key == "fingerprint") {
      const auto f = sim::kv::parse_u64(value);
      if (!f) return bad("bad fingerprint");
      m.fingerprint = *f;
    } else if (key == "scenarios") {
      const auto n = sim::kv::parse_u64(value);
      if (!n) return bad("bad scenario count");
      m.scenarios = *n;
    } else if (key == "shards") {
      const auto n = parse_shards(value);
      if (!n) return bad("bad shard count");
      m.shards = *n;
      m.shard_rows.assign(static_cast<std::size_t>(m.shards), Shard{});
    } else if (key == "begin_spec") {
      m.spec_text = value;
    } else if (key.rfind("shard ", 0) == 0) {
      const auto idx = sim::kv::parse_u64(key.substr(6));
      if (!idx || *idx >= m.shard_rows.size()) {
        return bad("bad shard index in '" + key + "'");
      }
      Shard s;
      std::istringstream vs(value);
      std::string token;
      bool first = true;
      while (vs >> token) {
        if (first) {
          if (token == "done") {
            s.done = true;
          } else if (token == "pending") {
            s.done = false;
          } else {
            return bad("bad shard state '" + token + "'");
          }
          first = false;
          continue;
        }
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
          return bad("bad shard field '" + token + "'");
        }
        const std::string k = token.substr(0, eq);
        const std::string v = token.substr(eq + 1);
        if (k == "file") {
          s.file = v;
        } else if (k == "results") {
          const auto n = sim::kv::parse_u64(v);
          if (!n) return bad("bad results count");
          s.results = *n;
        } else if (k == "bytes") {
          const auto n = sim::kv::parse_u64(v);
          if (!n) return bad("bad byte count");
          s.bytes = *n;
        } else if (k == "attempts") {
          const auto n = sim::kv::parse_u64(v);
          if (!n) return bad("bad attempts count");
          s.attempts = static_cast<int>(*n);
        } else {
          return bad("unknown shard field '" + k + "'");
        }
      }
      if (first) return bad("empty shard row");
      m.shard_rows[static_cast<std::size_t>(*idx)] = s;
    } else if (key.rfind("quarantine ", 0) == 0) {
      const auto idx = sim::kv::parse_u64(key.substr(11));
      if (!idx) return bad("bad quarantine index");
      m.quarantined.push_back(Quarantine{*idx, value});
    } else {
      return fail(sim::kv::unknown_key(e));
    }
  }
  if (!saw_schema) return fail("missing 'schema' line");
  if (m.shards == 0) return fail("missing 'shards' line");
  return m;
}

bool save_file_atomic(const fs::path& path, const std::string& content,
                      std::string* error) {
  const fs::path tmp = path.string() + ".tmp";
  {
    io::FdOStream os(tmp);
    if (!os) {
      if (error != nullptr) *error = "cannot open " + tmp.string();
      return false;
    }
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
    os.close();
    if (!os) {
      if (error != nullptr) *error = "write failed for " + tmp.string();
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "rename to " + path.string() + " failed: " + ec.message();
    }
    return false;
  }
  return true;
}

std::optional<std::string> load_file(const fs::path& path) {
  return io::read_file(path);
}

}  // namespace ccdem::campaign
