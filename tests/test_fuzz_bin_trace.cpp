// Randomized round-trip test for the ccdem-bin-v1 record stream, mirroring
// test_fuzz_trace_export for the binary hot path: arbitrary record streams
// must encode -> decode -> re-encode byte-identically, truncations must be
// rejected at every cut point, and mutated streams must be rejected with a
// bounded error (an offset-bearing message, never a crash or a giant
// allocation).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/bin_format.h"
#include "sim/rng.h"

namespace ccdem::campaign {
namespace {

std::string random_text(sim::Rng& rng, int max_len) {
  std::string s;
  const int len = static_cast<int>(rng.uniform_int(0, max_len));
  for (int i = 0; i < len; ++i) {
    // Any byte: the format length-prefixes strings, nothing is reserved.
    s += static_cast<char>(rng.uniform_int(0, 255));
  }
  return s;
}

double random_double(sim::Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return 0.0;
    case 1: return rng.uniform(-1e6, 1e6);
    case 2: return rng.uniform(-1.0, 1.0) * 1e-300;
    case 3: return rng.uniform(-1.0, 1.0) * 1e300;
    // NaN payloads must survive bit-exactly, too.
    default: return std::bit_cast<double>(rng.next_u64());
  }
}

Record random_record(sim::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      ResultRecord r;
      r.scenario_index = rng.next_u64();
      r.app = random_text(rng, 24);
      r.mode = random_text(rng, 24);
      r.seed = rng.next_u64();
      r.duration_ms = static_cast<std::int64_t>(rng.next_u64());
      r.mean_power_mw = random_double(rng);
      r.mean_refresh_hz = random_double(rng);
      r.meter_error_rate = random_double(rng);
      r.response_mean_ms = random_double(rng);
      r.frames_composed = rng.next_u64();
      r.content_frames = rng.next_u64();
      r.frames_posted = rng.next_u64();
      r.rate_switches = rng.next_u64();
      r.final_frame_hash = rng.next_u64();
      r.has_ab = rng.chance(0.5);
      r.saved_power_pct = random_double(rng);
      r.quality_pct = random_double(rng);
      const int rungs = static_cast<int>(rng.uniform_int(0, 6));
      for (int i = 0; i < rungs; ++i) {
        r.residency.push_back(RungResidency{
            static_cast<int>(rng.uniform_int(0, 240)), random_double(rng)});
      }
      return Record{r};
    }
    case 1: {
      CountersRecord c;
      const int n = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < n; ++i) {
        c.counters.emplace_back(random_text(rng, 32), rng.next_u64());
      }
      return Record{c};
    }
    default:
      return Record{AggregateRecord{random_text(rng, 200)}};
  }
}

std::vector<Record> random_stream(sim::Rng& rng) {
  std::vector<Record> records;
  const int n = static_cast<int>(rng.uniform_int(0, 16));
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) records.push_back(random_record(rng));
  return records;
}

TEST(BinTraceFuzz, ArbitraryStreamsRoundTripByteIdentically) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Rng rng(seed);
    const std::vector<Record> records = random_stream(rng);
    const std::string bytes = encode_all(records);

    std::string error;
    const auto decoded = decode_all(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << "seed=" << seed << ": " << error;
    ASSERT_EQ(decoded->size(), records.size() + 1) << "seed=" << seed;
    for (std::size_t i = 0; i < records.size(); ++i) {
      // NaN != NaN under operator==, so compare the canonical encodings.
      EXPECT_EQ(encode_record((*decoded)[i]), encode_record(records[i]))
          << "seed=" << seed << " record=" << i;
    }
    // Re-encoding the decoded stream reproduces the input byte-for-byte
    // (the end marker is derived state and regenerates identically).
    EXPECT_EQ(encode_all(*decoded), bytes) << "seed=" << seed;
  }
}

TEST(BinTraceFuzz, TruncationsAreAlwaysRejected) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    const std::string bytes = encode_all(random_stream(rng));
    // Every proper prefix must fail with a non-empty, offset-bounded error.
    const std::size_t step = std::max<std::size_t>(1, bytes.size() / 64);
    for (std::size_t len = 0; len < bytes.size(); len += step) {
      std::string error;
      const auto decoded = decode_all(bytes.substr(0, len), &error);
      EXPECT_FALSE(decoded.has_value())
          << "seed=" << seed << " prefix=" << len;
      EXPECT_FALSE(error.empty()) << "seed=" << seed << " prefix=" << len;
    }
  }
}

TEST(BinTraceFuzz, MutatedStreamsAreRejectedWithBoundedError) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    std::vector<Record> records = random_stream(rng);
    if (records.empty()) records.push_back(random_record(rng));
    std::string bytes = encode_all(records);

    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      const auto bit = static_cast<unsigned>(rng.uniform_int(0, 7));
      bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                     (1u << bit));
    }

    std::string error = "unset";
    const auto decoded = decode_all(bytes, &error);
    // The FNV fold over every record byte means any in-place flip is
    // caught -- structurally, or at the end-marker checksum.
    EXPECT_FALSE(decoded.has_value()) << "seed=" << seed;
    EXPECT_NE(error, "unset") << "seed=" << seed;
    EXPECT_FALSE(error.empty()) << "seed=" << seed;
  }
}

TEST(BinTraceFuzz, HostileLengthPrefixesCannotForceHugeAllocations) {
  // A record header claiming a payload over the cap must be rejected before
  // any allocation of that size.
  std::string bytes;
  bytes.append(kBinMagic, sizeof kBinMagic);
  PayloadWriter w(bytes);
  w.put_u32(kBinVersion);
  w.put_u32(0);
  bytes.push_back(static_cast<char>(RecordType::kResult));
  w.put_u32(kMaxPayloadBytes + 1);
  std::string error;
  EXPECT_FALSE(decode_all(bytes, &error).has_value());
  EXPECT_NE(error.find("exceeds cap"), std::string::npos) << error;
}

}  // namespace
}  // namespace ccdem::campaign
