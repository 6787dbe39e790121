#include "campaign/bin_format.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

namespace ccdem::campaign {

namespace {

std::string offset_msg(std::uint64_t offset, const std::string& why) {
  return "ccdem-bin-v1: " + why + " at byte " + std::to_string(offset);
}

// --- per-type payload codecs ---------------------------------------------

void encode_payload(const ResultRecord& r, PayloadWriter& w) {
  w.put_u64(r.scenario_index);
  w.put_str(r.app);
  w.put_str(r.mode);
  w.put_u64(r.seed);
  w.put_i64(r.duration_ms);
  w.put_f64(r.mean_power_mw);
  w.put_f64(r.mean_refresh_hz);
  w.put_f64(r.meter_error_rate);
  w.put_f64(r.response_mean_ms);
  w.put_u64(r.frames_composed);
  w.put_u64(r.content_frames);
  w.put_u64(r.frames_posted);
  w.put_u64(r.rate_switches);
  w.put_u64(r.final_frame_hash);
  w.put_u8(r.has_ab ? 1 : 0);
  w.put_f64(r.saved_power_pct);
  w.put_f64(r.quality_pct);
  w.put_u32(static_cast<std::uint32_t>(r.residency.size()));
  for (const RungResidency& rr : r.residency) {
    w.put_u32(static_cast<std::uint32_t>(rr.hz));
    w.put_f64(rr.seconds);
  }
}

ResultRecord decode_result(PayloadReader& r) {
  ResultRecord out;
  out.scenario_index = r.get_u64();
  out.app = r.get_str();
  out.mode = r.get_str();
  out.seed = r.get_u64();
  out.duration_ms = r.get_i64();
  out.mean_power_mw = r.get_f64();
  out.mean_refresh_hz = r.get_f64();
  out.meter_error_rate = r.get_f64();
  out.response_mean_ms = r.get_f64();
  out.frames_composed = r.get_u64();
  out.content_frames = r.get_u64();
  out.frames_posted = r.get_u64();
  out.rate_switches = r.get_u64();
  out.final_frame_hash = r.get_u64();
  const std::uint8_t ab = r.get_u8();
  if (r.ok() && ab > 1) r.fail("has_ab flag out of range");
  out.has_ab = ab == 1;
  out.saved_power_pct = r.get_f64();
  out.quality_pct = r.get_f64();
  const std::uint32_t n = r.get_count();
  out.residency.reserve(r.ok() ? n : 0);
  for (std::uint32_t i = 0; r.ok() && i < n; ++i) {
    RungResidency rr;
    rr.hz = static_cast<int>(r.get_u32());
    rr.seconds = r.get_f64();
    out.residency.push_back(rr);
  }
  return out;
}

void encode_payload(const CountersRecord& r, PayloadWriter& w) {
  w.put_u32(static_cast<std::uint32_t>(r.counters.size()));
  for (const auto& [name, value] : r.counters) {
    w.put_str(name);
    w.put_u64(value);
  }
}

CountersRecord decode_counters(PayloadReader& r) {
  CountersRecord out;
  const std::uint32_t n = r.get_count();
  out.counters.reserve(r.ok() ? n : 0);
  for (std::uint32_t i = 0; r.ok() && i < n; ++i) {
    std::string name = r.get_str();
    const std::uint64_t value = r.get_u64();
    out.counters.emplace_back(std::move(name), value);
  }
  return out;
}

void encode_payload(const AggregateRecord& r, PayloadWriter& w) {
  w.put_str(r.payload);
}

AggregateRecord decode_aggregate(PayloadReader& r) {
  AggregateRecord out;
  out.payload = r.get_str();
  return out;
}

void encode_payload(const ShardEndRecord& r, PayloadWriter& w) {
  w.put_u64(r.results);
  w.put_u64(r.records);
  w.put_u64(r.checksum);
}

ShardEndRecord decode_end(PayloadReader& r) {
  ShardEndRecord out;
  out.results = r.get_u64();
  out.records = r.get_u64();
  out.checksum = r.get_u64();
  return out;
}

/// Type 3 (span streams) is retired and rejected like any unknown type.
bool known_record_type(std::uint8_t raw) {
  switch (static_cast<RecordType>(raw)) {
    case RecordType::kResult:
    case RecordType::kCounters:
    case RecordType::kAggregate:
    case RecordType::kShardEnd:
      return true;
  }
  return false;
}

std::optional<Record> decode_payload(RecordType type, std::string_view payload,
                                     std::string* error) {
  PayloadReader r(payload);
  Record out;
  switch (type) {
    case RecordType::kResult: out = decode_result(r); break;
    case RecordType::kCounters: out = decode_counters(r); break;
    case RecordType::kAggregate: out = decode_aggregate(r); break;
    case RecordType::kShardEnd: out = decode_end(r); break;
  }
  if (!r.ok()) {
    if (error != nullptr) *error = r.error();
    return std::nullopt;
  }
  if (r.remaining() != 0) {
    if (error != nullptr) {
      *error = std::to_string(r.remaining()) + " trailing bytes in payload";
    }
    return std::nullopt;
  }
  return out;
}

}  // namespace

RecordType record_type(const Record& r) {
  struct Visitor {
    RecordType operator()(const ResultRecord&) { return RecordType::kResult; }
    RecordType operator()(const CountersRecord&) {
      return RecordType::kCounters;
    }
    RecordType operator()(const AggregateRecord&) {
      return RecordType::kAggregate;
    }
    RecordType operator()(const ShardEndRecord&) {
      return RecordType::kShardEnd;
    }
  };
  return std::visit(Visitor{}, r);
}

// --- PayloadWriter / PayloadReader ---------------------------------------

void PayloadWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void PayloadWriter::put_str(std::string_view s) {
  assert(s.size() <= kMaxStringBytes && "string exceeds format cap");
  put_u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void PayloadReader::fail(const std::string& why) {
  if (error_.empty()) {
    error_ = why + " at payload offset " + std::to_string(pos_);
  }
}

bool PayloadReader::need(std::size_t n, const char* what) {
  if (!ok()) return false;
  if (data_.size() - pos_ < n) {
    fail(std::string("truncated ") + what);
    return false;
  }
  return true;
}

std::uint8_t PayloadReader::get_u8() {
  if (!need(1, "u8")) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t PayloadReader::get_u32() {
  if (!need(4, "u32")) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  if (!need(8, "u64")) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double PayloadReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string PayloadReader::get_str() {
  const std::uint32_t len = get_u32();
  if (!ok()) return {};
  if (len > kMaxStringBytes) {
    fail("string length " + std::to_string(len) + " exceeds cap");
    return {};
  }
  if (!need(len, "string body")) return {};
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

std::uint32_t PayloadReader::get_count(std::uint32_t cap) {
  const std::uint32_t n = get_u32();
  if (!ok()) return 0;
  if (n > cap) {
    fail("element count " + std::to_string(n) + " exceeds cap");
    return 0;
  }
  return n;
}

// --- record stream --------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string encode_record(const Record& r) {
  std::string payload;
  PayloadWriter w(payload);
  std::visit([&w](const auto& rec) { encode_payload(rec, w); }, r);
  assert(payload.size() <= kMaxPayloadBytes);
  std::string out;
  out.reserve(payload.size() + 5);
  out.push_back(static_cast<char>(record_type(r)));
  PayloadWriter header(out);
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

BinWriter::BinWriter(std::ostream& os) : os_(os) {
  os_.write(kBinMagic, sizeof kBinMagic);
  std::string header;
  PayloadWriter w(header);
  w.put_u32(kBinVersion);
  w.put_u32(0);  // flags, reserved
  os_.write(header.data(), static_cast<std::streamsize>(header.size()));
  bytes_ = sizeof kBinMagic + header.size();
}

void BinWriter::write(const Record& r) {
  assert(!ended_ && "write after write_end()");
  assert(record_type(r) != RecordType::kShardEnd &&
         "end markers are emitted by write_end() only");
  const std::string bytes = encode_record(r);
  os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  checksum_ = fnv1a(bytes, checksum_);
  ++records_;
  if (record_type(r) == RecordType::kResult) ++results_;
  bytes_ += bytes.size();
}

void BinWriter::write_end() {
  assert(!ended_);
  ended_ = true;
  ShardEndRecord end;
  end.results = results_;
  end.records = records_;
  end.checksum = checksum_;
  const std::string bytes = encode_record(Record{end});
  os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes_ += bytes.size();
  os_.flush();
}

BinReader::BinReader(std::istream& is) : is_(is) {}

void BinReader::fail(const std::string& why) {
  if (error_.empty()) error_ = offset_msg(offset_, why);
}

std::optional<Record> BinReader::next() {
  if (!ok()) return std::nullopt;
  if (!header_read_) {
    char magic[sizeof kBinMagic];
    is_.read(magic, sizeof magic);
    if (is_.gcount() != static_cast<std::streamsize>(sizeof magic) ||
        std::memcmp(magic, kBinMagic, sizeof magic) != 0) {
      fail("bad magic");
      return std::nullopt;
    }
    char version_flags[8];
    is_.read(version_flags, sizeof version_flags);
    if (is_.gcount() != static_cast<std::streamsize>(sizeof version_flags)) {
      fail("truncated file header");
      return std::nullopt;
    }
    PayloadReader r(std::string_view(version_flags, sizeof version_flags));
    const std::uint32_t version = r.get_u32();
    if (version != kBinVersion) {
      fail("unsupported version " + std::to_string(version));
      return std::nullopt;
    }
    const std::uint32_t flags = r.get_u32();
    if (flags != 0) {  // reserved; also keeps every header byte validated
      fail("unsupported flags " + std::to_string(flags));
      return std::nullopt;
    }
    offset_ = sizeof magic + sizeof version_flags;
    header_read_ = true;
  }

  char head[5];
  is_.read(head, 1);
  if (is_.gcount() == 0) {
    // Clean end of stream.  complete() tells callers whether the end
    // marker was actually seen; a missing one means truncation.
    if (!saw_end_) fail("stream ends without a shard-end record");
    return std::nullopt;
  }
  if (saw_end_) {
    fail("trailing data after the shard-end record");
    return std::nullopt;
  }
  is_.read(head + 1, 4);
  if (is_.gcount() != 4) {
    fail("truncated record header");
    return std::nullopt;
  }
  const auto raw_type = static_cast<std::uint8_t>(head[0]);
  if (!known_record_type(raw_type)) {
    fail("unknown record type " + std::to_string(raw_type));
    return std::nullopt;
  }
  const auto type = static_cast<RecordType>(raw_type);
  PayloadReader len_reader(std::string_view(head + 1, 4));
  const std::uint32_t len = len_reader.get_u32();
  if (len > kMaxPayloadBytes) {
    fail("payload length " + std::to_string(len) + " exceeds cap");
    return std::nullopt;
  }
  buf_.resize(len);
  if (len > 0) {
    is_.read(buf_.data(), static_cast<std::streamsize>(len));
    if (is_.gcount() != static_cast<std::streamsize>(len)) {
      fail("truncated record payload (want " + std::to_string(len) +
           " bytes)");
      return std::nullopt;
    }
  }

  std::string payload_error;
  auto rec = decode_payload(type, buf_, &payload_error);
  if (!rec) {
    fail(payload_error);
    return std::nullopt;
  }

  if (type == RecordType::kShardEnd) {
    const auto& end = std::get<ShardEndRecord>(*rec);
    if (end.records != records_) {
      fail("record count mismatch: end says " + std::to_string(end.records) +
           ", saw " + std::to_string(records_));
      return std::nullopt;
    }
    if (end.results != results_) {
      fail("result count mismatch: end says " + std::to_string(end.results) +
           ", saw " + std::to_string(results_));
      return std::nullopt;
    }
    if (end.checksum != checksum_) {
      fail("checksum mismatch (stream was modified)");
      return std::nullopt;
    }
    saw_end_ = true;
  } else {
    // Fold the record's full encoded bytes into the running checksum,
    // exactly as the writer did.
    checksum_ = fnv1a(std::string_view(head, 5), checksum_);
    checksum_ = fnv1a(buf_, checksum_);
    ++records_;
    if (type == RecordType::kResult) ++results_;
  }
  offset_ += 5 + len;
  return rec;
}

std::optional<std::vector<Record>> decode_all(std::string_view data,
                                              std::string* error) {
  std::string owned(data);
  std::istringstream is(owned, std::ios::binary);
  BinReader reader(is);
  std::vector<Record> out;
  while (auto rec = reader.next()) out.push_back(std::move(*rec));
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  if (!reader.complete()) {
    if (error != nullptr) *error = "missing shard-end record";
    return std::nullopt;
  }
  return out;
}

std::string encode_all(const std::vector<Record>& records) {
  std::ostringstream os(std::ios::binary);
  BinWriter w(os);
  for (const Record& r : records) {
    // End markers are regenerated (counts + checksum are derived state), so
    // re-encoding a decoded stream reproduces the original bytes.
    if (record_type(r) == RecordType::kShardEnd) continue;
    w.write(r);
  }
  w.write_end();
  return os.str();
}

}  // namespace ccdem::campaign
