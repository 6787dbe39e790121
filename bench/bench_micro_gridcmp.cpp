// Micro-benchmark (google-benchmark): raw cost of the grid comparison on
// this host, for each of Fig. 6's grid configurations, of the row-span
// compare/copy kernels, of sizing and filling a 720x1280 pixel buffer, and
// of the per-call work a small-damage frame does many times: a fill_span,
// a sprite's draw_circle, one game frame's Region adds, and an index_range
// lookup.
//
// The absolute times on a desktop CPU are far below the Galaxy S3's (the
// device-side curve lives in core::MeteringCostModel); what the grid cases
// validate is the *shape*: cost grows monotonically with the sampled pixel
// count, and full-resolution comparison costs orders of magnitude more than
// the sparse grids.  The per-call cases give the fixed costs a trend line
// that end-to-end throughput cannot show.
#include <benchmark/benchmark.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/grid_sampler.h"
#include "gfx/buffer_pool.h"
#include "gfx/canvas.h"
#include "gfx/compare.h"
#include "gfx/framebuffer.h"
#include "gfx/region.h"
#include "sim/rng.h"

namespace {

using namespace ccdem;

constexpr gfx::Size kScreen{720, 1280};

gfx::Framebuffer make_noise_frame(std::uint64_t seed) {
  gfx::Framebuffer fb(kScreen);
  sim::Rng rng(seed);
  for (int y = 0; y < fb.height(); ++y) {
    for (auto& px : fb.row(y)) {
      px = gfx::Rgb888::from_packed(
          static_cast<std::uint32_t>(rng.next_u64()));
    }
  }
  return fb;
}

core::GridSpec spec_for(int idx) {
  const auto sweep = core::GridSpec::figure6_sweep();
  return sweep[static_cast<std::size_t>(idx)];
}

/// Worst case for the unculled meter's full-grid pass
/// (compare_and_refresh): identical frames force a compare of every point
/// and refresh none.
void BM_GridCompare_Identical(benchmark::State& state) {
  const core::GridSampler sampler(kScreen, spec_for(static_cast<int>(state.range(0))));
  const gfx::Framebuffer fb = make_noise_frame(1);
  gfx::PixelVector prev;
  sampler.sample(fb, prev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.compare_and_refresh(fb, prev));
  }
  state.SetLabel(sampler.grid().label());
  state.counters["pixels"] =
      static_cast<double>(sampler.sample_count());
}
BENCHMARK(BM_GridCompare_Identical)->DenseRange(0, 4);

/// A meaningful frame: two noise frames alternate, so every pass stops at
/// the first point and refreshes the rest of the grid.
void BM_GridCompare_Different(benchmark::State& state) {
  const core::GridSampler sampler(kScreen, spec_for(static_cast<int>(state.range(0))));
  const gfx::Framebuffer frames[] = {make_noise_frame(1), make_noise_frame(2)};
  gfx::PixelVector prev;
  sampler.sample(frames[1], prev);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.compare_and_refresh(frames[next], prev));
    benchmark::ClobberMemory();
    next ^= 1;
  }
  state.SetLabel(sampler.grid().label());
}
BENCHMARK(BM_GridCompare_Different)->DenseRange(0, 4);

/// Cost of extracting the samples (the capture half of the double buffer).
void BM_GridSample(benchmark::State& state) {
  const core::GridSampler sampler(kScreen, spec_for(static_cast<int>(state.range(0))));
  const gfx::Framebuffer fb = make_noise_frame(1);
  gfx::PixelVector out;
  for (auto _ : state) {
    sampler.sample(fb, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(sampler.grid().label());
}
BENCHMARK(BM_GridSample)->DenseRange(0, 4);

// --- sizing and filling a 720x1280 buffer ----------------------------------

/// A fresh black screen-sized Framebuffer: allocate, size, fill, free.
void BM_FreshFramebuffer(benchmark::State& state) {
  for (auto _ : state) {
    gfx::Framebuffer fb(kScreen);
    benchmark::DoNotOptimize(fb.pixels().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FreshFramebuffer);

/// A pooled acquire of a screen-sized black buffer, released again, so
/// every acquire reuses the same storage at the same size.
void BM_PoolAcquire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(kScreen.width) * kScreen.height;
  gfx::BufferPool pool;
  pool.release(pool.acquire(n, gfx::colors::kBlack));
  for (auto _ : state) {
    gfx::PixelVector v = pool.acquire(n, gfx::colors::kBlack);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
    pool.release(std::move(v));
  }
}
BENCHMARK(BM_PoolAcquire);

/// The floor for both: one memset of the same 2,764,800 bytes.
void BM_MemsetScreenBytes(benchmark::State& state) {
  std::vector<unsigned char> bytes(
      static_cast<std::size_t>(kScreen.width) * kScreen.height *
      sizeof(gfx::Rgb888));
  for (auto _ : state) {
    std::memset(bytes.data(), 0, bytes.size());
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MemsetScreenBytes);

// --- row-span kernels -------------------------------------------------------

/// Full-frame equality through rows_equal -- the worst case (equal buffers,
/// no early-out), which the compositor's compare pays on unchanged content.
void BM_RowsEqual(benchmark::State& state) {
  const gfx::Framebuffer a = make_noise_frame(1);
  const gfx::Framebuffer b = a;
  const gfx::Rect full = gfx::Rect::of(kScreen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfx::kernels::rows_equal(
        a.pixels().data(), b.pixels().data(), a.width(), full));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          full.area() * 3);
}
BENCHMARK(BM_RowsEqual);

/// A 64x64 tile compare at an unaligned offset -- the tile cache's verify
/// granule, exercising the offset/stride path rather than one flat span.
void BM_TileVerify(benchmark::State& state) {
  const gfx::Framebuffer a = make_noise_frame(1);
  const gfx::Framebuffer b = a;
  const gfx::Rect tile{131, 257, 64, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfx::kernels::rows_equal_offset(
        a.pixels().data(), a.width(), tile, b.pixels().data(), b.width(),
        gfx::Point{tile.x, tile.y}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          tile.area() * 3);
}
BENCHMARK(BM_TileVerify);

/// The compose copy: a half-screen window blit through copy_rows.
void BM_CopyRows(benchmark::State& state) {
  const gfx::Framebuffer src = make_noise_frame(1);
  gfx::Framebuffer dst(kScreen);
  const gfx::kernels::CopyWindow w{gfx::Point{7, 11}, gfx::Point{13, 5},
                                   gfx::Size{kScreen.width - 20,
                                             kScreen.height / 2}};
  for (auto _ : state) {
    gfx::kernels::copy_rows(dst.pixels_mut().data(), dst.width(),
                            src.pixels().data(), src.width(), w);
    benchmark::DoNotOptimize(dst.pixels_mut().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          w.size.area() * 3);
}
BENCHMARK(BM_CopyRows);

/// Baseline the paper rejects: full-framebuffer equality (identical frames,
/// no early exit) through Framebuffer::equals.
void BM_FullFrameEquals(benchmark::State& state) {
  const gfx::Framebuffer a = make_noise_frame(1);
  const gfx::Framebuffer b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.equals(b));
  }
}
BENCHMARK(BM_FullFrameEquals);

// --- per-call costs of small-damage frames ---------------------------------

/// One fill_span of state.range(0) pixels in a non-grey colour: 8 and 31 px
/// are sprite-edge and text-run spans, 89 px a sprite's widest row, 720 px
/// a full panel row.  The colour passes through DoNotOptimize on every
/// call, so the colour pattern is built per call, as at the real call sites.
void BM_FillSpan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<gfx::Rgb888> row(n + 1);
  gfx::Rgb888 c{220, 40, 40};
  for (auto _ : state) {
    benchmark::DoNotOptimize(c);
    gfx::fill_span(row.data() + 1, n, c);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 3);
}
BENCHMARK(BM_FillSpan)->Arg(8)->Arg(31)->Arg(89)->Arg(720);

/// One game sprite: a radius-44 circle, fully on screen.
void BM_DrawCircle(benchmark::State& state) {
  gfx::Framebuffer fb(kScreen);
  gfx::Canvas canvas(fb);
  for (auto _ : state) {
    canvas.draw_circle(gfx::Point{360, 640}, 44, gfx::Rgb888{200, 120, 90});
    canvas.take_dirty_region();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DrawCircle);

/// One game frame's damage: eight 89x89 erase rects at the old sprite
/// positions and eight at the new ones, each overlapping its predecessor,
/// added to an empty Region (the count exceeds kMaxRects, so it coalesces).
void BM_RegionGameFrame(benchmark::State& state) {
  std::vector<gfx::Rect> adds;
  sim::Rng rng(11);
  std::vector<gfx::Point> pos;
  for (int i = 0; i < 8; ++i) {
    pos.push_back(gfx::Point{static_cast<int>(rng.uniform_int(54, 666)),
                             static_cast<int>(rng.uniform_int(110, 1226))});
  }
  for (const gfx::Point& p : pos) adds.push_back({p.x - 44, p.y - 44, 89, 89});
  for (const gfx::Point& p : pos) {
    adds.push_back({p.x - 44 + 7, p.y - 44 - 5, 89, 89});
  }
  gfx::Region region;
  for (auto _ : state) {
    region.clear();
    for (const gfx::Rect& r : adds) region.add(r);
    benchmark::DoNotOptimize(region.rects().data());
  }
}
BENCHMARK(BM_RegionGameFrame);

/// Mapping one sprite-sized damage rect to its block of grid indices.
void BM_IndexRange(benchmark::State& state) {
  const core::GridSampler sampler(kScreen,
                                  spec_for(static_cast<int>(state.range(0))));
  gfx::Rect r{301, 517, 89, 89};
  for (auto _ : state) {
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(sampler.index_range(r));
  }
  state.SetLabel(sampler.grid().label());
}
BENCHMARK(BM_IndexRange)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
