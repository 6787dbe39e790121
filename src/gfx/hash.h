// Fast 64-bit content hashing for frame fingerprints.
//
// Requirements, in order:
//   1. Deterministic and platform independent -- the hash feeds result
//      fields and oracle diffs that must match between serial and fleet
//      runs, Linux and anywhere else.  So: plain scalar code, u64-chunked.
//   2. Fast enough to run over every composed frame: the DST oracles fold a
//      full-buffer fingerprint of each one into the frame-stream hash.
//   3. Well mixed, so two different frame streams do not fold to one value.
//
// A frame's fingerprint (Framebuffer::fast_hash) is a row tree built from
// this one function: hash_bytes of each row's pixels, then hash_bytes over
// the array of row hashes.  A frame that changed a few rows therefore needs
// only those rows re-hashed (gfx::RowHashes), and the incremental value is
// the from-scratch one bit for bit.
//
// The bulk loop runs four independent 64-bit lanes, one multiply per
// 8-byte chunk.  A single chained splitmix stream is latency-bound (two
// dependent multiplies per chunk, ~2 GB/s); four chains keep the multiplier
// pipeline full and run at memory speed, while remaining plain scalar code
// that hashes bit-identically on every platform.  The
// splitmix64 finalizer folds the lanes (and seeds them) so the weaker
// per-lane mix never reaches a consumer unfinalized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ccdem::gfx {

namespace hash_detail {

inline std::uint64_t mix(std::uint64_t h, std::uint64_t k) {
  h ^= k;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

/// Four independent lane states; chunks feed lanes round-robin so the four
/// multiply chains never depend on each other inside the bulk loop.
struct Lanes {
  std::uint64_t l0, l1, l2, l3;

  explicit Lanes(std::uint64_t seed)
      : l0(mix(seed, 1)), l1(mix(seed, 2)), l2(mix(seed, 3)),
        l3(mix(seed, 4)) {}

  static constexpr std::uint64_t kMul = 0x9DDFEA08EB382D69ull;

  inline void bulk(const unsigned char* p, std::size_t n) {
    std::uint64_t k0, k1, k2, k3;
    while (n >= 32) {
      std::memcpy(&k0, p, 8);
      std::memcpy(&k1, p + 8, 8);
      std::memcpy(&k2, p + 16, 8);
      std::memcpy(&k3, p + 24, 8);
      l0 = (l0 ^ k0) * kMul;
      l1 = (l1 ^ k1) * kMul;
      l2 = (l2 ^ k2) * kMul;
      l3 = (l3 ^ k3) * kMul;
      p += 32;
      n -= 32;
    }
    std::uint64_t k = 0;
    while (n >= 8) {
      std::memcpy(&k, p, 8);
      l0 = (l0 ^ k) * kMul;
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      k = 0;
      std::memcpy(&k, p, n);
      // Fold the tail length in so "abc" and "abc\0" cannot collide
      // trivially.
      l1 = (l1 ^ k ^ (static_cast<std::uint64_t>(n) << 56)) * kMul;
    }
  }

  [[nodiscard]] inline std::uint64_t fold(std::uint64_t h) const {
    return mix(mix(mix(mix(h, l0), l1), l2), l3);
  }
};

}  // namespace hash_detail

inline constexpr std::uint64_t kHashSeed = 0x9E3779B97F4A7C15ull;

/// Hashes `n` raw bytes into (and continuing from) state `h`.  Chaining
/// calls row by row hashes a rect without copying it contiguous first.
[[nodiscard]] inline std::uint64_t hash_bytes(const void* data, std::size_t n,
                                              std::uint64_t h = kHashSeed) {
  hash_detail::Lanes lanes(h);
  lanes.bulk(static_cast<const unsigned char*>(data), n);
  return lanes.fold(h);
}

/// Folds one u64 into the running state -- for combining per-frame hashes
/// into a stream fingerprint.
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t h,
                                                std::uint64_t k) {
  return hash_detail::mix(h, k);
}

}  // namespace ccdem::gfx
