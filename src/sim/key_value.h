// The one strict `key = value` reader behind every text format the
// simulator reads back: ccdem-repro-v1 scenarios (check/scenario.h),
// ccdem-scene-v1 scenes (apps/scene_dsl.h), campaign specs and manifests
// (campaign/campaign.h) and the campaign worker sidecars
// (campaign/worker.h).
//
// Line grammar, shared by all of them:
//   * blank lines are skipped and a `#` ends a line's content, so a comment
//     may stand alone or trail a value (no value can contain `#`);
//   * every other line is `key = value`, split at the first `=`, both sides
//     trimmed of spaces, tabs and carriage returns; the key must not be
//     empty;
//   * a line `begin_<x>` opens a block that runs to the next `end_<x>` line;
//     the block is one entry whose key is `begin_<x>` and whose value is the
//     body, every line verbatim plus "\n";
//   * a key appears at most once, unless the caller marks it repeatable.
//
// Values parse whole: a number must consume the entire value (no "12abc",
// "+5", "0x10" or empty string), a double must be finite (no "nan", "inf"
// or out-of-range "1e999"), an unsigned field rejects "-1" instead of
// wrapping it, and a flag is exactly 0 or 1.  Each format keeps its own
// keys, ranges and cross-field checks.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccdem::sim::kv {

/// One `key = value` line, or one `begin_<x>` block (value = its body).
struct Entry {
  int line = 0;  ///< 1-based line of the key, or of the `begin_<x>` marker
  std::string key;
  std::string value;
};

/// Splits `text` into entries, in file order.  std::nullopt on a line that
/// is neither `key = value` nor a block marker, on an unterminated block,
/// or on a repeated key not listed in `repeatable`, with a "line N: ..."
/// message in `error` (when non-null).
[[nodiscard]] std::optional<std::vector<Entry>> read(
    std::string_view text, std::string* error = nullptr,
    std::initializer_list<std::string_view> repeatable = {});

/// "line N: <what>", the prefix of every error the formats report.
[[nodiscard]] std::string at_line(int line, const std::string& what);
/// "line N: bad value '<value>' for key '<key>'".
[[nodiscard]] std::string bad_value(const Entry& e);
/// "line N: unknown key '<key>'".
[[nodiscard]] std::string unknown_key(const Entry& e);

[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view v);
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view v);
[[nodiscard]] std::optional<double> parse_double(std::string_view v);
[[nodiscard]] std::optional<bool> parse_bool(std::string_view v);

/// Comma list, every item trimmed ("a, b" == "a,b"; interior spaces as in
/// "Jelly Splash" stay).  Never empty: an empty value or a doubled comma
/// yields an empty item for the item parser to reject.
[[nodiscard]] std::vector<std::string> split_list(std::string_view v);

}  // namespace ccdem::sim::kv
