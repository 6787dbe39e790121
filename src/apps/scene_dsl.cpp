#include "apps/scene_dsl.h"

#include <cassert>
#include <charconv>
#include <sstream>
#include <vector>

#include "sim/key_value.h"

namespace ccdem::apps {

namespace {

constexpr const char* kSchema = "ccdem-scene-v1";
constexpr int kMaxStates = 16;
constexpr std::int64_t kMaxMs = 600'000;
constexpr double kMaxFps = 240.0;

/// Shortest round-trip decimal (std::to_chars default).
std::string double_to_string(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc{});
  return std::string(buf, ptr);
}

const char* kind_to_string(UiState::Kind k) {
  switch (k) {
    case UiState::Kind::kIdle: return "idle";
    case UiState::Kind::kMenu: return "menu";
    case UiState::Kind::kScroll: return "scroll";
    case UiState::Kind::kSlide: return "slide";
    case UiState::Kind::kMarquee: return "marquee";
    case UiState::Kind::kDialog: return "dialog";
  }
  return "idle";
}

std::optional<UiState::Kind> parse_kind(const std::string& v) {
  if (v == "idle") return UiState::Kind::kIdle;
  if (v == "menu") return UiState::Kind::kMenu;
  if (v == "scroll") return UiState::Kind::kScroll;
  if (v == "slide") return UiState::Kind::kSlide;
  if (v == "marquee") return UiState::Kind::kMarquee;
  if (v == "dialog") return UiState::Kind::kDialog;
  return std::nullopt;
}

/// Parses one `state =` value: `<kind> dwell_ms=<ms> fps=<f> next=<i>
/// touch=<i>`, all four attributes required, any order, no duplicates.
std::optional<UiState> parse_state(const std::string& v, std::string* error) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < v.size()) {
    const auto sp = v.find(' ', pos);
    const std::string tok =
        v.substr(pos, sp == std::string::npos ? std::string::npos : sp - pos);
    if (!tok.empty()) tokens.push_back(tok);
    if (sp == std::string::npos) break;
    pos = sp + 1;
  }
  if (tokens.empty()) {
    if (error) *error = "empty state line";
    return std::nullopt;
  }
  UiState st;
  const auto kind = parse_kind(tokens[0]);
  if (!kind) {
    if (error) *error = "unknown state kind: " + tokens[0];
    return std::nullopt;
  }
  st.kind = *kind;
  bool have_dwell = false, have_fps = false, have_next = false,
       have_touch = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      if (error) *error = "bad state attribute: " + tokens[i];
      return std::nullopt;
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string val = tokens[i].substr(eq + 1);
    if (key == "dwell_ms") {
      const auto ms = sim::kv::parse_i64(val);
      if (!ms || *ms < 0 || *ms > kMaxMs || have_dwell) return std::nullopt;
      st.dwell_ms = *ms;
      have_dwell = true;
    } else if (key == "fps") {
      const auto fps = sim::kv::parse_double(val);
      if (!fps || *fps < 0.0 || *fps > kMaxFps || have_fps)
        return std::nullopt;
      st.anim_fps = *fps;
      have_fps = true;
    } else if (key == "next") {
      const auto n = sim::kv::parse_i64(val);
      if (!n || *n < 0 || *n >= kMaxStates || have_next) return std::nullopt;
      st.next = static_cast<int>(*n);
      have_next = true;
    } else if (key == "touch") {
      const auto n = sim::kv::parse_i64(val);
      if (!n || *n < -1 || *n >= kMaxStates || have_touch)
        return std::nullopt;
      st.touch_next = static_cast<int>(*n);
      have_touch = true;
    } else {
      if (error) *error = "unknown state attribute: " + key;
      return std::nullopt;
    }
  }
  if (!have_dwell || !have_fps || !have_next || !have_touch) {
    if (error) *error = "state line missing an attribute";
    return std::nullopt;
  }
  return st;
}

std::optional<std::vector<int>> parse_motion(const std::string& v) {
  std::vector<int> motion;
  for (const std::string& item : sim::kv::split_list(v)) {
    const auto level = sim::kv::parse_i64(item);
    if (!level || *level < 0 || *level > 3) return std::nullopt;
    motion.push_back(static_cast<int>(*level));
  }
  if (motion.size() > 16) return std::nullopt;
  return motion;
}

}  // namespace

std::string scene_spec_to_string(const SceneSpec& spec) {
  std::ostringstream os;
  os << "schema = " << kSchema << "\n";
  if (spec.type == SceneSpec::Type::kUi) {
    os << "type = ui\n";
    os << "idle_timeout_ms = " << spec.ui.idle_timeout_ms << "\n";
    os << "marquee_px = " << spec.ui.marquee_px << "\n";
    for (const UiState& st : spec.ui.states) {
      os << "state = " << kind_to_string(st.kind)
         << " dwell_ms=" << st.dwell_ms
         << " fps=" << double_to_string(st.anim_fps) << " next=" << st.next
         << " touch=" << st.touch_next << "\n";
    }
    return os.str();
  }
  if (spec.type == SceneSpec::Type::kBurstVideo) {
    os << "type = burst_video\n";
    os << "gap_ms = " << spec.burst.gap_ms << "\n";
    os << "burst_frames = " << spec.burst.burst_frames << "\n";
    os << "burst_fps = " << double_to_string(spec.burst.burst_fps) << "\n";
    os << "motion = ";
    for (std::size_t i = 0; i < spec.burst.motion.size(); ++i) {
      if (i) os << ",";
      os << spec.burst.motion[i];
    }
    os << "\n";
    return os.str();
  }
  return "";
}

std::optional<SceneSpec> scene_spec_from_string(const std::string& text,
                                                std::string* error) {
  const auto fail = [error](const std::string& msg) -> std::optional<SceneSpec> {
    if (error) *error = msg;
    return std::nullopt;
  };

  const auto entries = sim::kv::read(text, error, {"state"});
  if (!entries) return std::nullopt;
  bool have_schema = false;
  std::optional<std::string> type;
  UiSceneSpec ui;
  ui.states.clear();
  BurstVideoSpec burst;
  bool have_timeout = false, have_marquee = false, have_gap = false,
       have_frames = false, have_fps = false, have_motion = false;

  for (const sim::kv::Entry& e : *entries) {
    const std::string& key = e.key;
    const std::string& value = e.value;
    const auto bad = [&]() { return fail(sim::kv::bad_value(e)); };

    if (key == "schema") {
      if (value != kSchema) return fail("unsupported scene schema: " + value);
      have_schema = true;
    } else if (key == "type") {
      if (value != "ui" && value != "burst_video") return bad();
      type = value;
    } else if (key == "idle_timeout_ms") {
      const auto ms = sim::kv::parse_i64(value);
      if (!ms || *ms < 0 || *ms > kMaxMs) return bad();
      ui.idle_timeout_ms = *ms;
      have_timeout = true;
    } else if (key == "marquee_px") {
      const auto px = sim::kv::parse_i64(value);
      if (!px || *px < 1 || *px > 64) return bad();
      ui.marquee_px = static_cast<int>(*px);
      have_marquee = true;
    } else if (key == "state") {
      std::string state_error;
      const auto st = parse_state(value, &state_error);
      if (!st) {
        return fail(sim::kv::at_line(
            e.line, state_error.empty() ? "bad state" : state_error));
      }
      if (ui.states.size() >= kMaxStates) return fail("too many states");
      ui.states.push_back(*st);
    } else if (key == "gap_ms") {
      const auto ms = sim::kv::parse_i64(value);
      if (!ms || *ms < 0 || *ms > kMaxMs) return bad();
      burst.gap_ms = *ms;
      have_gap = true;
    } else if (key == "burst_frames") {
      const auto n = sim::kv::parse_i64(value);
      if (!n || *n < 1 || *n > 240) return bad();
      burst.burst_frames = static_cast<int>(*n);
      have_frames = true;
    } else if (key == "burst_fps") {
      const auto fps = sim::kv::parse_double(value);
      if (!fps || *fps <= 0.0 || *fps > kMaxFps) return bad();
      burst.burst_fps = *fps;
      have_fps = true;
    } else if (key == "motion") {
      const auto m = parse_motion(value);
      if (!m) return bad();
      burst.motion = *m;
      have_motion = true;
    } else {
      return fail(sim::kv::unknown_key(e));
    }
  }

  if (!have_schema) return fail("missing scene schema line");
  if (!type) return fail("missing scene type");
  if (*type == "ui") {
    if (have_gap || have_frames || have_fps || have_motion) {
      return fail("burst_video keys in a ui scene");
    }
    if (ui.states.empty()) return fail("ui scene needs at least one state");
    const int n = static_cast<int>(ui.states.size());
    for (const UiState& st : ui.states) {
      if (st.next >= n) return fail("state next out of range");
      if (st.touch_next >= n) return fail("state touch out of range");
    }
    return SceneSpec::ui_machine(std::move(ui));
  }
  if (have_timeout || have_marquee || !ui.states.empty()) {
    return fail("ui keys in a burst_video scene");
  }
  return SceneSpec::burst_video(std::move(burst));
}

}  // namespace ccdem::apps
