#include "gfx/framebuffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "gfx/hash.h"
#include "gfx/region.h"
#include "sim/rng.h"

namespace ccdem::gfx {
namespace {

TEST(Pixel, PackedRoundTrip) {
  const Rgb888 c{0x12, 0x34, 0x56};
  EXPECT_EQ(c.packed(), 0x123456u);
  EXPECT_EQ(Rgb888::from_packed(0x123456u), c);
}

TEST(Pixel, Luma) {
  EXPECT_EQ(colors::kBlack.luma(), 0);
  EXPECT_EQ(colors::kWhite.luma(), 255);
  EXPECT_GT(colors::kGreen.luma(), colors::kBlue.luma());
}

/// The previous fill_span, kept as the reference: seed one pixel, then
/// double the filled prefix with memcpy until the span is full.
void fill_span_by_doubling(Rgb888* p, std::size_t n, Rgb888 c) {
  if (n == 0) return;
  if (c.r == c.g && c.g == c.b) {
    std::memset(static_cast<void*>(p), c.r, n * sizeof(Rgb888));
    return;
  }
  p[0] = c;
  std::size_t filled = 1;
  while (filled < n) {
    const std::size_t chunk = filled < n - filled ? filled : n - filled;
    std::memcpy(p + filled, p, chunk * sizeof(Rgb888));
    filled += chunk;
  }
}

TEST(FillSpan, MatchesDoublingReferenceAndStaysInBounds) {
  // Every length the short paths, the 48-byte blocks and the tail store
  // handle, a full 720 px row and its neighbours, at every start phase of
  // a 16-pixel block, for grey and non-grey colours.  The guard pixels on
  // both sides must come out untouched.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) lengths.push_back(n);
  for (std::size_t n = 719; n <= 721; ++n) lengths.push_back(n);
  const Rgb888 guard{1, 2, 3};
  const Rgb888 colours[] = {Rgb888{220, 40, 40}, Rgb888{0, 0, 1},
                            Rgb888{255, 254, 253}, colors::kGray,
                            colors::kBlack, colors::kWhite};
  constexpr std::size_t kGuard = 24;
  for (const Rgb888 c : colours) {
    for (const std::size_t n : lengths) {
      for (std::size_t offset = 0; offset < 16; ++offset) {
        std::vector<Rgb888> got(kGuard + offset + n + kGuard, guard);
        std::vector<Rgb888> want = got;
        fill_span(got.data() + kGuard + offset, n, c);
        fill_span_by_doubling(want.data() + kGuard + offset, n, c);
        ASSERT_EQ(got, want) << "n " << n << " offset " << offset
                             << " colour " << c.packed();
        ASSERT_EQ(got.front(), guard);
        ASSERT_EQ(got.back(), guard);
      }
    }
  }
}

TEST(Framebuffer, ConstructedFilled) {
  const Framebuffer fb(4, 3, colors::kRed);
  EXPECT_EQ(fb.width(), 4);
  EXPECT_EQ(fb.height(), 3);
  EXPECT_EQ(fb.pixel_count(), 12);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) EXPECT_EQ(fb.at(x, y), colors::kRed);
  }
}

TEST(Framebuffer, SetAndGet) {
  Framebuffer fb(4, 4);
  fb.set(2, 3, colors::kGreen);
  EXPECT_EQ(fb.at(2, 3), colors::kGreen);
  EXPECT_EQ(fb.at(3, 2), colors::kBlack);
}

TEST(Framebuffer, AtClampedOutOfRangeIsBlack) {
  Framebuffer fb(2, 2, colors::kWhite);
  EXPECT_EQ(fb.at_clamped(-1, 0), colors::kBlack);
  EXPECT_EQ(fb.at_clamped(0, 2), colors::kBlack);
  EXPECT_EQ(fb.at_clamped(1, 1), colors::kWhite);
}

TEST(Framebuffer, FillRectClips) {
  Framebuffer fb(10, 10);
  fb.fill_rect(Rect{8, 8, 10, 10}, colors::kBlue);
  EXPECT_EQ(fb.at(9, 9), colors::kBlue);
  EXPECT_EQ(fb.at(7, 7), colors::kBlack);
}

TEST(Framebuffer, FillRectNegativeOriginClips) {
  Framebuffer fb(10, 10);
  fb.fill_rect(Rect{-5, -5, 7, 7}, colors::kBlue);
  EXPECT_EQ(fb.at(0, 0), colors::kBlue);
  EXPECT_EQ(fb.at(1, 1), colors::kBlue);
  EXPECT_EQ(fb.at(2, 2), colors::kBlack);
}

TEST(Framebuffer, BlitCopiesRegion) {
  Framebuffer src(4, 4, colors::kRed);
  Framebuffer dst(8, 8);
  dst.blit(src, Rect{0, 0, 4, 4}, Point{2, 2});
  EXPECT_EQ(dst.at(2, 2), colors::kRed);
  EXPECT_EQ(dst.at(5, 5), colors::kRed);
  EXPECT_EQ(dst.at(6, 6), colors::kBlack);
  EXPECT_EQ(dst.at(1, 1), colors::kBlack);
}

TEST(Framebuffer, BlitClipsAtDestinationEdge) {
  Framebuffer src(4, 4, colors::kRed);
  Framebuffer dst(8, 8);
  dst.blit(src, Rect{0, 0, 4, 4}, Point{6, 6});
  EXPECT_EQ(dst.at(7, 7), colors::kRed);
  EXPECT_EQ(dst.at(5, 5), colors::kBlack);
}

TEST(Framebuffer, BlitPartialSourceRect) {
  Framebuffer src(4, 4);
  src.set(3, 3, colors::kGreen);
  Framebuffer dst(8, 8);
  dst.blit(src, Rect{3, 3, 1, 1}, Point{0, 0});
  EXPECT_EQ(dst.at(0, 0), colors::kGreen);
}

TEST(Framebuffer, ScrollUpMovesContent) {
  Framebuffer fb(4, 8);
  fb.fill_rect(Rect{0, 4, 4, 1}, colors::kYellow);  // marker row at y=4
  fb.scroll_up(Rect{0, 0, 4, 8}, 2);
  EXPECT_EQ(fb.at(0, 2), colors::kYellow);
  EXPECT_EQ(fb.at(0, 4), colors::kBlack);
}

TEST(Framebuffer, ScrollUpByRegionHeightIsNoop) {
  Framebuffer fb(4, 4, colors::kRed);
  fb.scroll_up(Rect{0, 0, 4, 4}, 4);
  EXPECT_EQ(fb.at(0, 0), colors::kRed);
}

TEST(Framebuffer, ShiftMovesContentBothAxes) {
  Framebuffer fb(8, 8);
  fb.set(2, 2, colors::kYellow);
  fb.shift(Rect{0, 0, 8, 8}, 3, 4);
  EXPECT_EQ(fb.at(5, 6), colors::kYellow);
}

TEST(Framebuffer, ShiftNegativeOffsets) {
  Framebuffer fb(8, 8);
  fb.set(5, 6, colors::kRed);
  fb.shift(Rect{0, 0, 8, 8}, -3, -4);
  EXPECT_EQ(fb.at(2, 2), colors::kRed);
}

TEST(Framebuffer, ShiftLeavesVacatedBandsUntouched) {
  Framebuffer fb(8, 8, colors::kGray);
  fb.shift(Rect{0, 0, 8, 8}, 2, 0);
  // The left band keeps its old pixels (caller repaints it).
  EXPECT_EQ(fb.at(0, 0), colors::kGray);
  EXPECT_EQ(fb.at(7, 7), colors::kGray);
}

TEST(Framebuffer, ShiftMatchesCopyReference) {
  // Differential check against an out-of-place reference for all four
  // direction combinations.
  for (const auto& [dx, dy] : {std::pair{2, 3}, std::pair{-2, 3},
                              std::pair{2, -3}, std::pair{-2, -3}}) {
    Framebuffer fb(16, 16);
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        fb.set(x, y, Rgb888{static_cast<std::uint8_t>(x * 16),
                            static_cast<std::uint8_t>(y * 16), 7});
      }
    }
    const Framebuffer before = fb;
    fb.shift(Rect{0, 0, 16, 16}, dx, dy);
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const int sx = x - dx, sy = y - dy;
        if (sx >= 0 && sx < 16 && sy >= 0 && sy < 16) {
          ASSERT_EQ(fb.at(x, y), before.at(sx, sy))
              << "dx=" << dx << " dy=" << dy << " at " << x << "," << y;
        }
      }
    }
  }
}

TEST(Framebuffer, ShiftByRegionSizeIsNoop) {
  Framebuffer fb(8, 8, colors::kBlue);
  fb.set(0, 0, colors::kRed);
  fb.shift(Rect{0, 0, 8, 8}, 8, 0);
  EXPECT_EQ(fb.at(0, 0), colors::kRed);  // untouched
}

TEST(Framebuffer, EqualsDetectsDifferences) {
  Framebuffer a(4, 4), b(4, 4);
  EXPECT_TRUE(a.equals(b));
  b.set(1, 1, colors::kRed);
  EXPECT_FALSE(a.equals(b));
}

TEST(Framebuffer, EqualsRequiresSameSize) {
  Framebuffer a(4, 4), b(4, 5);
  EXPECT_FALSE(a.equals(b));
}

TEST(Framebuffer, RegionEqualsIgnoresOutside) {
  Framebuffer a(8, 8), b(8, 8);
  b.set(7, 7, colors::kRed);
  EXPECT_TRUE(a.region_equals(b, Rect{0, 0, 4, 4}));
  EXPECT_FALSE(a.region_equals(b, Rect{4, 4, 4, 4}));
}

TEST(Framebuffer, FastHashChangesWithContent) {
  Framebuffer a(16, 16), b(16, 16);
  EXPECT_EQ(a.fast_hash(), b.fast_hash());
  b.set(5, 5, Rgb888{1, 0, 0});
  EXPECT_NE(a.fast_hash(), b.fast_hash());
}

// --- the row-tree hash and its incremental table ---------------------------

/// Distinct, position-dependent pixels, so no two rows are alike.
Framebuffer patterned(int w, int h) {
  Framebuffer fb(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.set(x, y, Rgb888{static_cast<std::uint8_t>(x * 7 + y),
                          static_cast<std::uint8_t>(y * 13),
                          static_cast<std::uint8_t>(x ^ y)});
    }
  }
  return fb;
}

TEST(FastHash, IsHashBytesOverTheRowHashes) {
  // The definition, spelled out: every row hashed on its own, then the
  // array of row hashes hashed top row first.  Heights 1-6 cover a partial
  // and a full four-row block.
  for (int h = 1; h <= 6; ++h) {
    const Framebuffer fb = patterned(5, h);
    std::vector<std::uint64_t> rows;
    for (int y = 0; y < h; ++y) {
      rows.push_back(hash_bytes(fb.row(y).data(), fb.row(y).size_bytes()));
    }
    EXPECT_EQ(fb.fast_hash(),
              hash_bytes(rows.data(), rows.size() * sizeof(rows[0])))
        << "height " << h;
  }
}

TEST(FastHash, EqualBuffersHashEqual) {
  const Framebuffer a = patterned(33, 17);
  Framebuffer b(33, 17, colors::kWhite);
  b.blit(a, a.bounds(), Point{0, 0});
  EXPECT_EQ(a.fast_hash(), b.fast_hash());
}

TEST(FastHash, LastPixelChangesTheHash) {
  const Framebuffer a = patterned(720, 40);
  Framebuffer b = a;
  b.set(719, 39, Rgb888{static_cast<std::uint8_t>(a.at(719, 39).r ^ 1),
                        a.at(719, 39).g, a.at(719, 39).b});
  EXPECT_NE(a.fast_hash(), b.fast_hash());
}

TEST(FastHash, SwappedRowsChangeTheHash) {
  // Rows 0/1 feed different lanes of one block, rows 0/4 the same lane of
  // consecutive blocks, rows 5/9 straddle a block and the partial tail.
  const Framebuffer a = patterned(16, 10);
  for (const auto& [r0, r1] :
       {std::pair{0, 1}, std::pair{0, 4}, std::pair{5, 9}}) {
    Framebuffer b = a;
    b.blit(a, Rect{0, r0, 16, 1}, Point{0, r1});
    b.blit(a, Rect{0, r1, 16, 1}, Point{0, r0});
    EXPECT_NE(a.fast_hash(), b.fast_hash()) << "rows " << r0 << ", " << r1;
  }
}

TEST(FastHash, OddWidthsSeeEveryByte) {
  // 3 * w is not a multiple of 8 here, so each row ends in a partial chunk;
  // flipping the last channel byte of any pixel must still show.
  for (const Size size : {Size{1, 1}, Size{7, 3}, Size{721, 5}}) {
    const Framebuffer a = patterned(size.width, size.height);
    const std::uint64_t base = a.fast_hash();
    for (const Point p : {Point{0, 0}, Point{size.width - 1, 0},
                          Point{size.width - 1, size.height - 1}}) {
      Framebuffer b = a;
      const Rgb888 c = a.at(p.x, p.y);
      b.set(p.x, p.y, Rgb888{c.r, c.g, static_cast<std::uint8_t>(c.b ^ 0x80)});
      EXPECT_NE(b.fast_hash(), base)
          << size.width << "x" << size.height << " at " << p.x << "," << p.y;
    }
  }
}

TEST(RowHashes, ResetMatchesFastHash) {
  for (const Size size : {Size{0, 0}, Size{1, 1}, Size{7, 3}, Size{64, 9}}) {
    const Framebuffer fb = patterned(size.width, size.height);
    RowHashes rows;
    rows.reset(fb);
    EXPECT_EQ(rows.hash(), fb.fast_hash())
        << size.width << "x" << size.height;
  }
}

TEST(RowHashes, UpdateTracksRandomDamagedEdits) {
  // Seeded property: paint random rects, report exactly the painted rects
  // as damage, and the incremental hash must equal the from-scratch one
  // after every step -- including overlapping rects, rects sharing rows,
  // rects clipped by the buffer edge and empty frames.
  for (const Size size : {Size{7, 3}, Size{97, 61}, Size{721, 5}}) {
    sim::Rng rng(20140601 + static_cast<std::uint64_t>(size.width));
    Framebuffer fb = patterned(size.width, size.height);
    RowHashes rows;
    rows.reset(fb);
    for (int step = 0; step < 200; ++step) {
      Region damage;
      const int rects = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < rects; ++i) {
        const Rect r{static_cast<int>(rng.uniform_int(-4, size.width)),
                     static_cast<int>(rng.uniform_int(-4, size.height)),
                     static_cast<int>(rng.uniform_int(1, size.width)),
                     static_cast<int>(rng.uniform_int(1, size.height))};
        fb.fill_rect(r, Rgb888::from_packed(
                            static_cast<std::uint32_t>(rng.next_u64())));
        damage.add(r.intersect(fb.bounds()));
      }
      rows.update(fb, damage);
      ASSERT_EQ(rows.hash(), fb.fast_hash())
          << size.width << "x" << size.height << " step " << step;
    }
  }
}

TEST(RowHashes, EditOutsideTheDamageIsMissed) {
  // The negative case: update() trusts the damage.  A pixel changed outside
  // it leaves the kept hash stale -- which is what the harness's end-of-run
  // check against a full hash detects.
  Framebuffer fb = patterned(32, 32);
  RowHashes rows;
  rows.reset(fb);
  fb.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  fb.set(20, 20, colors::kGreen);  // not reported
  rows.update(fb, Region(Rect{0, 0, 8, 8}));
  EXPECT_NE(rows.hash(), fb.fast_hash());
  // Reporting the row heals it.
  rows.update(fb, Region(Rect{20, 20, 1, 1}));
  EXPECT_EQ(rows.hash(), fb.fast_hash());
}

TEST(Framebuffer, RowSpanHasWidth) {
  Framebuffer fb(6, 2);
  EXPECT_EQ(fb.row(0).size(), 6u);
  EXPECT_EQ(fb.pixels().size(), 12u);
}

}  // namespace
}  // namespace ccdem::gfx
