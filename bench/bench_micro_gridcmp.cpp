// Micro-benchmark (google-benchmark): raw cost of the grid comparison on
// this host, for each of Fig. 6's grid configurations, and of the
// row-span compare/copy kernels.
//
// The absolute times on a desktop CPU are far below the Galaxy S3's (the
// device-side curve lives in core::MeteringCostModel); what this bench
// validates is the *shape*: cost grows monotonically with the sampled pixel
// count, and full-resolution comparison costs orders of magnitude more than
// the sparse grids.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/grid_sampler.h"
#include "gfx/compare.h"
#include "gfx/framebuffer.h"
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

/// Worst case for `differs`: identical frames force a full scan.
void BM_GridCompare_Identical(benchmark::State& state) {
  const core::GridSampler sampler(kScreen, spec_for(static_cast<int>(state.range(0))));
  const gfx::Framebuffer fb = make_noise_frame(1);
  std::vector<gfx::Rgb888> prev;
  sampler.sample(fb, prev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.differs(fb, prev));
  }
  state.SetLabel(sampler.grid().label());
  state.counters["pixels"] =
      static_cast<double>(sampler.sample_count());
}
BENCHMARK(BM_GridCompare_Identical)->DenseRange(0, 4);

/// Typical case: frames differ somewhere, allowing early exit.
void BM_GridCompare_Different(benchmark::State& state) {
  const core::GridSampler sampler(kScreen, spec_for(static_cast<int>(state.range(0))));
  const gfx::Framebuffer fb = make_noise_frame(1);
  const gfx::Framebuffer fb2 = make_noise_frame(2);
  std::vector<gfx::Rgb888> prev;
  sampler.sample(fb2, prev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.differs(fb, prev));
  }
  state.SetLabel(sampler.grid().label());
}
BENCHMARK(BM_GridCompare_Different)->DenseRange(0, 4);

/// Cost of extracting the samples (the capture half of the double buffer).
void BM_GridSample(benchmark::State& state) {
  const core::GridSampler sampler(kScreen, spec_for(static_cast<int>(state.range(0))));
  const gfx::Framebuffer fb = make_noise_frame(1);
  std::vector<gfx::Rgb888> out;
  for (auto _ : state) {
    sampler.sample(fb, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(sampler.grid().label());
}
BENCHMARK(BM_GridSample)->DenseRange(0, 4);

// --- row-span kernels -------------------------------------------------------

/// Full-frame equality through rows_equal -- the worst case (equal buffers,
/// no early-out) and the memoization verify's hot loop.
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

}  // namespace

BENCHMARK_MAIN();
