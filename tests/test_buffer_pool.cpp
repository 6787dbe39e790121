#include "gfx/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "gfx/framebuffer.h"

namespace ccdem::gfx {
namespace {

TEST(BufferPool, FirstAcquireAllocates) {
  BufferPool pool;
  const auto v = pool.acquire(16, colors::kBlack);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(BufferPool, ReleaseThenAcquireReuses) {
  BufferPool pool;
  auto v = pool.acquire(64, colors::kWhite);
  const Rgb888* data = v.data();
  pool.release(std::move(v));
  EXPECT_EQ(pool.free_count(), 1u);

  const auto w = pool.acquire(64, colors::kBlack);
  EXPECT_EQ(w.data(), data);  // same storage came back
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BufferPool, ReusedBufferIsFullyReinitialised) {
  // acquire() sizes reused storage without touching its pixels and then
  // fills it, so nothing a previous owner wrote may survive.  Each step
  // acquires at a new size -- the same, smaller, larger within the old
  // capacity, and beyond it -- checks every pixel, scribbles non-fill
  // pixels over the whole buffer and releases it.  Grey fills take
  // fill_span's memset, the others its pattern stores.
  const Rgb888 fills[] = {colors::kBlack, colors::kWhite, colors::kGray,
                          colors::kRed, Rgb888{1, 2, 3}};
  const std::size_t sizes[] = {64, 64, 40, 64, 100, 7, 100};
  for (std::size_t f = 0; f < std::size(fills); ++f) {
    BufferPool pool;
    for (std::size_t step = 0; step < std::size(sizes); ++step) {
      const std::size_t n = sizes[step];
      const Rgb888 fill = fills[(f + step) % std::size(fills)];
      auto v = pool.acquire(n, fill);
      ASSERT_EQ(v.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(v[i], fill) << "fill " << f << " step " << step
                              << " pixel " << i;
      }
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = Rgb888{static_cast<std::uint8_t>(~fill.r),
                      static_cast<std::uint8_t>(i),
                      static_cast<std::uint8_t>(i * 7)};
      }
      pool.release(std::move(v));
    }
    EXPECT_EQ(pool.acquires(), std::size(sizes));
    EXPECT_GT(pool.reuses(), 0u);
  }
}

TEST(BufferPool, PrefersBufferWithSufficientCapacity) {
  BufferPool pool;
  auto small = pool.acquire(4, colors::kBlack);
  auto big = pool.acquire(100, colors::kBlack);
  const Rgb888* big_data = big.data();
  pool.release(std::move(small));
  pool.release(std::move(big));

  // Needs 50: the 4-pixel buffer would regrow, the 100-pixel one fits.
  const auto v = pool.acquire(50, colors::kBlack);
  EXPECT_EQ(v.data(), big_data);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, AcquireReservedReturnsEmptyWithCapacity) {
  BufferPool pool;
  auto v = pool.acquire(32, colors::kWhite);
  pool.release(std::move(v));

  const auto w = pool.acquire_reserved(32);
  EXPECT_TRUE(w.empty());  // starts size-0, like a fresh vector
  EXPECT_GE(w.capacity(), 32u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, MaxFreeBounded) {
  BufferPool pool(/*max_free=*/2);
  for (int i = 0; i < 5; ++i) {
    pool.release(pool.acquire(16, colors::kBlack));
  }
  EXPECT_LE(pool.free_count(), 2u);
}

TEST(BufferPool, PooledFramebufferReleasesOnDestruction) {
  BufferPool pool;
  {
    Framebuffer fb(4, 4, &pool, colors::kWhite);
    EXPECT_EQ(fb.width(), 4);
    EXPECT_EQ(pool.free_count(), 0u);
  }
  EXPECT_EQ(pool.free_count(), 1u);

  // A second framebuffer of the same shape recycles the first one's pixels.
  Framebuffer fb2(4, 4, &pool, colors::kBlack);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(fb2.at(0, 0), colors::kBlack);
}

TEST(BufferPool, PooledAndFreshFramebuffersCompareEqual) {
  BufferPool pool;
  // Pollute the pool with a differently-sized dirty buffer first.
  {
    Framebuffer scratch(10, 3, &pool, Rgb888{9, 9, 9});
  }
  Framebuffer pooled(6, 5, &pool, colors::kWhite);
  Framebuffer fresh(6, 5, colors::kWhite);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) {
      EXPECT_EQ(pooled.at(x, y), fresh.at(x, y));
    }
  }
}

TEST(BufferPool, MoveTransfersPoolOwnership) {
  BufferPool pool;
  {
    Framebuffer a(4, 4, &pool, colors::kWhite);
    Framebuffer b = std::move(a);
    EXPECT_EQ(b.width(), 4);
  }  // only b releases; the moved-from a must not double-release
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(BufferPool, CopyIsNeverPoolBacked) {
  BufferPool pool;
  {
    Framebuffer a(4, 4, &pool, colors::kWhite);
    Framebuffer copy = a;
    EXPECT_EQ(copy.at(0, 0), colors::kWhite);
  }  // a releases once; the copy owns plain heap storage
  EXPECT_EQ(pool.free_count(), 1u);
}

}  // namespace
}  // namespace ccdem::gfx
