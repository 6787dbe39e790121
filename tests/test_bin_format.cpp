// ccdem-bin-v1 unit tests: canonical encoding, strict decoding, checksum
// verification, and the bounded-error contract (every failure names where
// it was detected; no read ever runs past the data).
#include "campaign/bin_format.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ccdem::campaign {
namespace {

ResultRecord sample_result() {
  ResultRecord r;
  r.scenario_index = 42;
  r.app = "Facebook";
  r.mode = "section+boost";
  r.seed = 7;
  r.duration_ms = 2000;
  r.mean_power_mw = 812.375;
  r.mean_refresh_hz = 31.25;
  r.meter_error_rate = 0.03125;
  r.response_mean_ms = 18.5;
  r.frames_composed = 123;
  r.content_frames = 90;
  r.frames_posted = 118;
  r.rate_switches = 11;
  r.final_frame_hash = 0xdeadbeefcafef00dULL;
  r.has_ab = true;
  r.saved_power_pct = 27.5;
  r.quality_pct = 96.875;
  r.residency = {{20, 0.5}, {40, 1.0}, {60, 0.5}};
  return r;
}

std::vector<Record> sample_records() {
  CountersRecord c;
  c.counters = {{"flinger.frames", 123}, {"meter.evals", 20}};
  return {Record{sample_result()}, Record{c},
          Record{AggregateRecord{std::string("opaque\x00\x01\x02", 9)}}};
}

TEST(BinFormat, PayloadScalarsRoundTrip) {
  std::string buf;
  PayloadWriter w(buf);
  w.put_u8(0xab);
  w.put_u32(0x01020304u);
  w.put_u64(0x1122334455667788ULL);
  w.put_i64(-5);
  w.put_f64(-0.1);
  w.put_str("hello");
  w.put_str("");

  PayloadReader r(buf);
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0x01020304u);
  EXPECT_EQ(r.get_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.get_i64(), -5);
  EXPECT_EQ(r.get_f64(), -0.1);  // bit-exact
  EXPECT_EQ(r.get_str(), "hello");
  EXPECT_EQ(r.get_str(), "");
  EXPECT_TRUE(r.done());
}

TEST(BinFormat, PayloadReaderLatchesFirstError) {
  std::string buf;
  PayloadWriter w(buf);
  w.put_u32(7);
  PayloadReader r(buf);
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_EQ(r.get_u64(), 0u);  // truncated
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("truncated u64"), std::string::npos);
  EXPECT_NE(r.error().find("offset 4"), std::string::npos);
  // Later reads keep the first error and return zero values.
  EXPECT_EQ(r.get_str(), "");
  EXPECT_NE(r.error().find("u64"), std::string::npos);
  EXPECT_FALSE(r.done());
}

TEST(BinFormat, PayloadReaderEnforcesCaps) {
  std::string buf;
  PayloadWriter w(buf);
  w.put_u32(kMaxStringBytes + 1);
  PayloadReader r(buf);
  (void)r.get_str();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("exceeds cap"), std::string::npos);

  std::string buf2;
  PayloadWriter w2(buf2);
  w2.put_u32(kMaxElementCount + 1);
  PayloadReader r2(buf2);
  (void)r2.get_count();
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.error().find("exceeds cap"), std::string::npos);
}

TEST(BinFormat, EveryRecordTypeRoundTrips) {
  const std::vector<Record> records = sample_records();
  const std::string bytes = encode_all(records);

  std::string error;
  const auto decoded = decode_all(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  // decode_all returns the payload records plus the end marker.
  ASSERT_EQ(decoded->size(), records.size() + 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*decoded)[i], records[i]) << "record " << i;
  }
  EXPECT_EQ(record_type(decoded->back()), RecordType::kShardEnd);
}

TEST(BinFormat, ReencodeIsByteIdentical) {
  const std::string bytes = encode_all(sample_records());
  std::string error;
  const auto decoded = decode_all(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(encode_all(*decoded), bytes);
}

TEST(BinFormat, WriterTracksCountsAndBytes) {
  std::ostringstream os(std::ios::binary);
  BinWriter w(os);
  w.write(Record{sample_result()});
  w.write(Record{CountersRecord{}});
  w.write_end();
  EXPECT_EQ(w.results_written(), 1u);
  EXPECT_EQ(w.records_written(), 2u);
  EXPECT_EQ(w.bytes_written(), os.str().size());
}

TEST(BinFormat, RejectsBadMagicAndVersion) {
  std::string bytes = encode_all(sample_records());
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::string error;
    EXPECT_FALSE(decode_all(bad, &error).has_value());
    EXPECT_NE(error.find("bad magic"), std::string::npos);
  }
  {
    std::string bad = bytes;
    bad[8] = 99;  // version little-endian low byte
    std::string error;
    EXPECT_FALSE(decode_all(bad, &error).has_value());
    EXPECT_NE(error.find("unsupported version"), std::string::npos);
  }
}

TEST(BinFormat, TruncationIsDetectedAtEveryLength) {
  const std::string bytes = encode_all(sample_records());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    const auto decoded = decode_all(bytes.substr(0, len), &error);
    EXPECT_FALSE(decoded.has_value()) << "prefix length " << len;
    EXPECT_FALSE(error.empty()) << "prefix length " << len;
  }
}

TEST(BinFormat, ChecksumCatchesSingleByteFlips) {
  const std::string bytes = encode_all(sample_records());
  // Flip each byte after the file header; decode must fail every time
  // (structurally or via the end-marker checksum).
  for (std::size_t pos = 16; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    std::string error;
    const auto decoded = decode_all(bad, &error);
    EXPECT_FALSE(decoded.has_value()) << "flip at byte " << pos;
  }
}

TEST(BinFormat, RetiredSpanRecordTypeIsRejected) {
  // A type-3 record as span recording wrote it (one span: begin, dur,
  // frame, arg, phase), followed by an end marker whose counts and
  // checksum cover it, so only the type byte can be at fault.
  std::string spans;
  PayloadWriter sw(spans);
  sw.put_u32(1);
  sw.put_i64(100);
  sw.put_i64(16);
  sw.put_u64(1);
  sw.put_i64(2048);
  sw.put_u8(0);
  std::string retired(1, '\x03');
  PayloadWriter(retired).put_u32(static_cast<std::uint32_t>(spans.size()));
  retired += spans;

  std::string bytes(kBinMagic, sizeof kBinMagic);
  PayloadWriter hw(bytes);
  hw.put_u32(kBinVersion);
  hw.put_u32(0);
  const std::string result = encode_record(Record{sample_result()});
  const std::uint64_t offset = bytes.size() + result.size();
  ShardEndRecord end;
  end.results = 1;
  end.records = 2;
  end.checksum = fnv1a(retired, fnv1a(result));
  bytes += result + retired + encode_record(Record{end});

  std::string error;
  EXPECT_FALSE(decode_all(bytes, &error).has_value());
  EXPECT_NE(error.find("unknown record type 3 at byte " +
                       std::to_string(offset)),
            std::string::npos)
      << error;
}

TEST(BinFormat, TrailingDataAfterEndIsRejected) {
  std::string bytes = encode_all(sample_records());
  bytes.push_back('\x01');
  std::string error;
  EXPECT_FALSE(decode_all(bytes, &error).has_value());
  EXPECT_NE(error.find("trailing data"), std::string::npos);
}

TEST(BinFormat, ErrorsCarryByteOffsets) {
  const std::string bytes = encode_all(sample_records());
  std::string error;
  (void)decode_all(bytes.substr(0, bytes.size() - 3), &error);
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;
}

TEST(BinFormat, StreamingReaderReportsProgress) {
  const std::string bytes = encode_all(sample_records());
  std::istringstream is(bytes, std::ios::binary);
  BinReader reader(is);
  std::size_t n = 0;
  while (auto rec = reader.next()) ++n;
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(n, sample_records().size() + 1);
  EXPECT_EQ(reader.results_seen(), 1u);
  EXPECT_EQ(reader.offset(), bytes.size());
}

TEST(BinFormat, FnvFoldsAcrossCalls) {
  const std::string data = "campaign";
  const std::uint64_t whole = fnv1a(data);
  const std::uint64_t split = fnv1a(data.substr(4), fnv1a(data.substr(0, 4)));
  EXPECT_EQ(whole, split);
}

}  // namespace
}  // namespace ccdem::campaign
