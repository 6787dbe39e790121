#include "core/grid_sampler.h"

#include <cassert>
#include <cstring>

namespace ccdem::core {

std::string GridSpec::label() const {
  const std::int64_t n = sample_count();
  if (n >= 1000) {
    return std::to_string(n / 1000) + "K (" + std::to_string(cols) + "x" +
           std::to_string(rows) + ")";
  }
  return std::to_string(n) + " (" + std::to_string(cols) + "x" +
         std::to_string(rows) + ")";
}

std::vector<GridSpec> GridSpec::figure6_sweep() {
  return {grid_2k(), grid_4k(), grid_9k(), grid_36k(), full_720p()};
}

namespace {

/// For each x in [0, extent]: how many of the ascending `centers` lie
/// below x.
std::vector<int> count_below(const std::vector<int>& centers, int extent) {
  std::vector<int> table(static_cast<std::size_t>(extent) + 1);
  int n = 0;
  for (int x = 0; x <= extent; ++x) {
    while (n < static_cast<int>(centers.size()) &&
           centers[static_cast<std::size_t>(n)] < x) {
      ++n;
    }
    table[static_cast<std::size_t>(x)] = n;
  }
  return table;
}

}  // namespace

GridSampler::GridSampler(gfx::Size screen, GridSpec grid)
    : screen_(screen), grid_(grid) {
  assert(!screen.empty());
  assert(grid.cols > 0 && grid.rows > 0);
  assert(grid.cols <= screen.width && grid.rows <= screen.height);
  // Centre pixel of each grid cell.  Cell (i, j) spans
  // [i*W/cols, (i+1)*W/cols) x [j*H/rows, (j+1)*H/rows); we take the middle.
  // The per-axis centres are strictly increasing in the cell index, which is
  // what makes a screen rect map to one contiguous block of grid indices.
  center_xs_.reserve(static_cast<std::size_t>(grid.cols));
  center_ys_.reserve(static_cast<std::size_t>(grid.rows));
  for (int i = 0; i < grid.cols; ++i) {
    const int x0 = static_cast<int>(
        static_cast<std::int64_t>(i) * screen.width / grid.cols);
    const int x1 = static_cast<int>(
        static_cast<std::int64_t>(i + 1) * screen.width / grid.cols);
    center_xs_.push_back((x0 + x1) / 2);
  }
  for (int j = 0; j < grid.rows; ++j) {
    const int y0 = static_cast<int>(
        static_cast<std::int64_t>(j) * screen.height / grid.rows);
    const int y1 = static_cast<int>(
        static_cast<std::int64_t>(j + 1) * screen.height / grid.rows);
    center_ys_.push_back((y0 + y1) / 2);
  }
  col_at_x_ = count_below(center_xs_, screen.width);
  row_at_y_ = count_below(center_ys_, screen.height);
  contiguous_rows_ = center_xs_.back() - center_xs_.front() + 1 == grid.cols;
}

const gfx::Rgb888* GridSampler::grid_row_pixels(const gfx::Rgb888* px,
                                                std::size_t j) const {
  const std::size_t row =
      static_cast<std::size_t>(center_ys_[j]) * screen_.width;
  return px + row +
         (contiguous_rows_ ? static_cast<std::size_t>(center_xs_.front())
                           : 0);
}

void GridSampler::capture_from(const gfx::Rgb888* px, std::size_t j,
                               std::size_t i, gfx::Rgb888* retained) const {
  // The column table is read through a local: pixel stores are byte
  // stores, which may alias the vector's own pointer and would reload it
  // for every point.
  const int* xs = center_xs_.data();
  const std::size_t cols = center_xs_.size();
  for (const std::size_t rows = center_ys_.size(); j < rows; ++j, i = 0) {
    const gfx::Rgb888* src = grid_row_pixels(px, j);
    gfx::Rgb888* dst = retained + j * cols;
    if (contiguous_rows_) {
      std::memcpy(dst + i, src + i, (cols - i) * sizeof(gfx::Rgb888));
    } else {
      for (; i < cols; ++i) dst[i] = src[xs[i]];
    }
  }
}

void GridSampler::sample(const gfx::Framebuffer& fb,
                         gfx::PixelVector& out) const {
  assert(fb.size() == screen_);
  out.resize(sample_count());
  capture_from(fb.pixels().data(), 0, 0, out.data());
}

GridSampler::ScanResult GridSampler::compare_and_refresh(
    const gfx::Framebuffer& fb, gfx::PixelVector& retained) const {
  assert(fb.size() == screen_);
  assert(retained.size() == sample_count());
  const gfx::Rgb888* px = fb.pixels().data();
  const std::size_t cols = center_xs_.size();
  for (std::size_t j = 0; j < center_ys_.size(); ++j) {
    const gfx::Rgb888* src = grid_row_pixels(px, j);
    const gfx::Rgb888* old = retained.data() + j * cols;
    std::size_t i = 0;
    if (contiguous_rows_) {
      if (std::memcmp(src, old, cols * sizeof(gfx::Rgb888)) == 0) continue;
      while (src[i] == old[i]) ++i;
    } else {
      while (i < cols && src[center_xs_[i]] == old[i]) ++i;
      if (i == cols) continue;
    }
    // Point (j, i) is the first difference; everything before it matches.
    capture_from(px, j, i, retained.data());
    return {static_cast<std::int64_t>(j * cols + i) + 1, true};
  }
  return {static_cast<std::int64_t>(sample_count()), false};
}

GridSampler::IndexRange GridSampler::index_range(gfx::Rect r) const {
  const gfx::Rect c = r.intersect(gfx::Rect::of(screen_));
  if (c.empty()) return {};
  // Half-open on both axes, matching the rect: centres in [x, right).
  return IndexRange{col_at_x_[static_cast<std::size_t>(c.x)],
                    col_at_x_[static_cast<std::size_t>(c.right())],
                    row_at_y_[static_cast<std::size_t>(c.y)],
                    row_at_y_[static_cast<std::size_t>(c.bottom())]};
}

GridSampler::ScanResult GridSampler::update_in_rect(
    const gfx::Framebuffer& fb, gfx::Rect r,
    gfx::PixelVector& retained) const {
  assert(fb.size() == screen_);
  assert(retained.size() == sample_count());
  const IndexRange range = index_range(r);
  ScanResult result;
  if (range.empty()) return result;
  const auto px = fb.pixels();
  // No early exit: every covered point must refresh the retained snapshot,
  // so the differ check rides along for free.
  for (int j = range.row_begin; j < range.row_end; ++j) {
    const std::size_t fb_row =
        static_cast<std::size_t>(center_ys_[static_cast<std::size_t>(j)]) *
        screen_.width;
    const std::size_t grid_row = static_cast<std::size_t>(j) * grid_.cols;
    for (int i = range.col_begin; i < range.col_end; ++i) {
      const std::size_t k = grid_row + i;
      const gfx::Rgb888 fresh =
          px[fb_row + center_xs_[static_cast<std::size_t>(i)]];
      result.differed |= fresh != retained[k];
      retained[k] = fresh;
    }
  }
  result.compared = range.count();
  return result;
}

}  // namespace ccdem::core
