#include "sim/key_value.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_set>

namespace ccdem::sim::kv {

namespace {

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

template <typename T>
std::optional<T> parse_whole(std::string_view v) {
  if (v.empty()) return std::nullopt;
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

}  // namespace

std::optional<std::vector<Entry>> read(
    std::string_view text, std::string* error,
    std::initializer_list<std::string_view> repeatable) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  std::size_t pos = 0;
  int line_no = 0;
  std::string_view line;
  const auto next_line = [&] {
    if (pos >= text.size()) return false;
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    return true;
  };

  std::vector<Entry> entries;
  std::unordered_set<std::string> seen;
  while (next_line()) {
    const std::string_view content = trim(line.substr(0, line.find('#')));
    if (content.empty()) continue;
    Entry e;
    e.line = line_no;
    const std::size_t eq = content.find('=');
    if (eq == std::string_view::npos && content.starts_with("begin_")) {
      e.key = content;
      const std::string end_marker = "end_" + e.key.substr(6);
      bool closed = false;
      while (!closed && next_line()) {
        closed = trim(line) == end_marker;
        if (!closed) (e.value += line) += '\n';
      }
      if (!closed) {
        return fail(at_line(e.line, "unterminated " + e.key + " block"));
      }
    } else {
      if (eq != std::string_view::npos) {
        e.key = trim(content.substr(0, eq));
        e.value = trim(content.substr(eq + 1));
      }
      if (e.key.empty()) return fail(at_line(e.line, "expected 'key = value'"));
    }
    const bool may_repeat = std::find(repeatable.begin(), repeatable.end(),
                                      e.key) != repeatable.end();
    if (!may_repeat && !seen.insert(e.key).second) {
      return fail(at_line(e.line, "duplicate key '" + e.key + "'"));
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string at_line(int line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
}

std::string bad_value(const Entry& e) {
  return at_line(e.line,
                 "bad value '" + e.value + "' for key '" + e.key + "'");
}

std::string unknown_key(const Entry& e) {
  return at_line(e.line, "unknown key '" + e.key + "'");
}

std::optional<std::int64_t> parse_i64(std::string_view v) {
  return parse_whole<std::int64_t>(v);
}

std::optional<std::uint64_t> parse_u64(std::string_view v) {
  return parse_whole<std::uint64_t>(v);
}

std::optional<double> parse_double(std::string_view v) {
  const auto d = parse_whole<double>(v);
  if (!d || !std::isfinite(*d)) return std::nullopt;
  return d;
}

std::optional<bool> parse_bool(std::string_view v) {
  if (v == "0") return false;
  if (v == "1") return true;
  return std::nullopt;
}

std::vector<std::string> split_list(std::string_view v) {
  std::vector<std::string> items;
  while (true) {
    const std::size_t comma = v.find(',');
    items.emplace_back(trim(v.substr(0, comma)));
    if (comma == std::string_view::npos) return items;
    v.remove_prefix(comma + 1);
  }
}

}  // namespace ccdem::sim::kv
