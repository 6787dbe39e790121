// ccdem-bin-v1: the compact binary result/counter format the campaign
// engine writes on its hot results path.
//
// A campaign writes one record per run, so the results path must cost
// little next to the simulation it describes: no quoting, escaping or float
// re-parsing.  The format is fixed little-endian scalars (doubles as
// IEEE-754 bit patterns, so round-trips are bit-exact), length-prefixed
// strings, and length-prefixed records that a reader can stream one at a
// time in O(1) memory.  A results CSV is a converter over this format
// (campaign/convert.h), off the hot path.
//
// File layout:
//   8-byte magic "CCDMBIN1", u32 version (=1), u32 flags (=0)
//   record*: u8 type, u32 payload_len, payload bytes
//   final record: kShardEnd carrying the result/record counts and an FNV-1a
//   checksum folded over every preceding record's bytes.
//
// Record types are result (1), counters (2), aggregate (4) and shard end
// (5).  Type 3 once carried per-run span streams; it is retired and the
// decoder rejects it like any unknown type.  A run's spans are one replay
// of its scenario away (`campaign_report repro`, then `trace_viewer`).
//
// Error handling is strict and bounded: every decode error names the byte
// offset it was detected at, a truncated stream is reported (never read
// past), trailing bytes inside a payload are rejected, and the end-record
// checksum catches any in-place mutation.  Encoding is canonical -- every
// payload byte is a pure function of the record struct -- so
// decode(encode(r)) == r and re-encoding a decoded stream reproduces the
// input byte-for-byte (the fuzz harness proves both).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ccdem::campaign {

inline constexpr char kBinMagic[8] = {'C', 'C', 'D', 'M', 'B', 'I', 'N', '1'};
inline constexpr std::uint32_t kBinVersion = 1;

/// Sanity caps, enforced by the decoder so a mutated length prefix cannot
/// trigger a huge allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;
inline constexpr std::uint32_t kMaxStringBytes = 1u << 20;
inline constexpr std::uint32_t kMaxElementCount = 1u << 24;

enum class RecordType : std::uint8_t {
  kResult = 1,     ///< one experiment run's scalar results
  kCounters = 2,   ///< a counter snapshot (order-preserving)
  kAggregate = 4,  ///< serialized streaming aggregates (aggregates.h)
  kShardEnd = 5,   ///< end marker: counts + checksum over prior records
};

/// Time the panel spent at one ladder rung during a run.
struct RungResidency {
  int hz = 0;
  double seconds = 0.0;
  [[nodiscard]] bool operator==(const RungResidency&) const = default;
};

/// The per-run scalars the streaming aggregates and summary converters
/// consume.  A subset of harness::ExperimentResult (traces stay with the
/// worker; fleet dashboards aggregate, they do not replot single runs).
struct ResultRecord {
  std::uint64_t scenario_index = 0;  ///< position in the campaign matrix
  std::string app;
  std::string mode;  ///< control-mode keyword ("section+boost", ...)
  std::uint64_t seed = 1;
  std::int64_t duration_ms = 0;
  double mean_power_mw = 0.0;
  double mean_refresh_hz = 0.0;
  double meter_error_rate = 0.0;
  double response_mean_ms = 0.0;
  std::uint64_t frames_composed = 0;
  std::uint64_t content_frames = 0;
  std::uint64_t frames_posted = 0;
  std::uint64_t rate_switches = 0;
  std::uint64_t final_frame_hash = 0;
  /// True when the scenario ran an A/B pair (baseline-60 arm with the same
  /// seed); the two fields below are meaningful only then.
  bool has_ab = false;
  double saved_power_pct = 0.0;
  double quality_pct = 0.0;
  /// Ascending-hz per-rung panel residency for this run.
  std::vector<RungResidency> residency;

  [[nodiscard]] bool operator==(const ResultRecord&) const = default;
};

struct CountersRecord {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  [[nodiscard]] bool operator==(const CountersRecord&) const = default;
};

/// Opaque aggregate payload; campaign/aggregates.h encodes and decodes it.
/// Kept opaque here so the record layer has no dependency on the aggregate
/// schema (and an old reader can still skip/copy the record).
struct AggregateRecord {
  std::string payload;
  [[nodiscard]] bool operator==(const AggregateRecord&) const = default;
};

struct ShardEndRecord {
  std::uint64_t results = 0;   ///< kResult records before this marker
  std::uint64_t records = 0;   ///< all records before this marker
  std::uint64_t checksum = 0;  ///< FNV-1a over their encoded bytes
  [[nodiscard]] bool operator==(const ShardEndRecord&) const = default;
};

using Record = std::variant<ResultRecord, CountersRecord, AggregateRecord,
                            ShardEndRecord>;

[[nodiscard]] RecordType record_type(const Record& r);

// --- payload scalar encoding (shared with aggregates.cpp) -----------------

/// Appends little-endian scalars / length-prefixed strings to a buffer.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::string& out) : out_(out) {}

  void put_u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);  // IEEE-754 bit pattern; NaN payloads survive
  void put_str(std::string_view s);

 private:
  std::string& out_;
};

/// Strict, bounds-checked reads over one record payload.  The first failed
/// read latches an error (with the offset it happened at) and every later
/// read returns zero values, so decoders can parse straight-line and check
/// ok() once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_str();

  /// A count prefix for a repeated group; fails if it exceeds `cap` or if
  /// even zero-byte elements could not fit the remaining payload.
  std::uint32_t get_count(std::uint32_t cap = kMaxElementCount);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// All bytes consumed and no error -- what a complete decode requires.
  [[nodiscard]] bool done() const { return ok() && pos_ == data_.size(); }
  void fail(const std::string& why);

 private:
  [[nodiscard]] bool need(std::size_t n, const char* what);

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string error_;
};

// --- record stream I/O ----------------------------------------------------

/// Encodes one record (type byte + u32 length + payload) to a buffer.
[[nodiscard]] std::string encode_record(const Record& r);

/// FNV-1a 64 over a byte range, seeded with `h` so it folds across records.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// Streams records to `os`.  write_end() emits the kShardEnd marker with
/// the running counts/checksum; a file without it is detectably truncated.
class BinWriter {
 public:
  explicit BinWriter(std::ostream& os);

  void write(const Record& r);
  void write_end();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }
  [[nodiscard]] std::uint64_t results_written() const { return results_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::ostream& os_;
  std::uint64_t records_ = 0;
  std::uint64_t results_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t checksum_ = 0xcbf29ce484222325ULL;
  bool ended_ = false;
};

/// Streams records from `is` in O(max-record) memory.  Usage:
///   BinReader r(is);
///   while (auto rec = r.next()) { ... }
///   if (!r.ok()) -> malformed (error() has offset + reason)
///   else if (!r.complete()) -> truncated (no verified end marker)
class BinReader {
 public:
  explicit BinReader(std::istream& is);

  /// The next record, or std::nullopt at end-of-stream / error.  The
  /// kShardEnd record is returned too (after verification); reads past it
  /// fail with "trailing data".
  [[nodiscard]] std::optional<Record> next();

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// True once a kShardEnd with matching counts and checksum was read.
  [[nodiscard]] bool complete() const { return saw_end_ && ok(); }
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  [[nodiscard]] std::uint64_t results_seen() const { return results_; }

 private:
  void fail(const std::string& why);

  std::istream& is_;
  std::string buf_;  // reused payload buffer
  std::uint64_t offset_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t results_ = 0;
  std::uint64_t checksum_ = 0xcbf29ce484222325ULL;
  std::string error_;
  bool saw_end_ = false;
  bool header_read_ = false;
};

/// Convenience: decode every record of `data`; std::nullopt + error on any
/// malformed/truncated input.  Tests and small converters use this; the
/// coordinator streams with BinReader instead.
[[nodiscard]] std::optional<std::vector<Record>> decode_all(
    std::string_view data, std::string* error = nullptr);

/// Convenience: header + each record + end marker, as one buffer.
[[nodiscard]] std::string encode_all(const std::vector<Record>& records);

}  // namespace ccdem::campaign
