// Grid-based framebuffer sampling (paper section 3.1).
//
// Comparing full 720x1280 framebuffers every frame is too slow for the 60 Hz
// budget (Fig. 6: > 40 ms on the device), so the meter samples a sparse grid
// where "the RGB data of the grid are regarded as the center pixel of each
// grid".  A GridSampler precomputes the centre pixel of every grid column
// and row for a given screen/grid geometry and extracts those samples from
// a framebuffer.  It keeps per-axis tables only -- O(W + H) memory and
// construction, whatever the grid's point count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gfx/framebuffer.h"
#include "gfx/geometry.h"
#include "gfx/pixel.h"

namespace ccdem::core {

/// A named grid geometry.  The paper's sweep on the 720x1280 panel:
/// 2K (36x64), 4K (48x85), 9K (72x128), 36K (144x256), 921K (720x1280).
struct GridSpec {
  int cols = 72;
  int rows = 128;

  [[nodiscard]] std::int64_t sample_count() const {
    return static_cast<std::int64_t>(cols) * rows;
  }
  [[nodiscard]] std::string label() const;

  static GridSpec grid_2k() { return {36, 64}; }
  static GridSpec grid_4k() { return {48, 85}; }
  static GridSpec grid_9k() { return {72, 128}; }
  static GridSpec grid_36k() { return {144, 256}; }
  static GridSpec full_720p() { return {720, 1280}; }

  /// The five configurations of Fig. 6, coarsest first.
  static std::vector<GridSpec> figure6_sweep();
};

class GridSampler {
 public:
  GridSampler(gfx::Size screen, GridSpec grid);

  [[nodiscard]] gfx::Size screen() const { return screen_; }
  [[nodiscard]] GridSpec grid() const { return grid_; }
  [[nodiscard]] std::size_t sample_count() const {
    return center_xs_.size() * center_ys_.size();
  }
  /// Centre pixel of grid point `k` (= row * cols + col).
  [[nodiscard]] gfx::Point point(std::size_t k) const {
    const std::size_t cols = center_xs_.size();
    return {center_xs_[k % cols], center_ys_[k / cols]};
  }
  /// Centre x of each grid column and centre y of each grid row, both
  /// strictly increasing: grid point (i, j) is (column_centers()[i],
  /// row_centers()[j]).
  [[nodiscard]] const std::vector<int>& column_centers() const {
    return center_xs_;
  }
  [[nodiscard]] const std::vector<int>& row_centers() const {
    return center_ys_;
  }

  /// Extracts the grid samples from `fb` into `out` (resized as needed).
  /// `fb` must match the screen size the sampler was built for.
  void sample(const gfx::Framebuffer& fb, gfx::PixelVector& out) const;

  /// The half-open ranges of grid columns and rows whose cell-centre pixel
  /// lies inside `r`.  Cell centres are monotonic in the cell index, so a
  /// screen rect maps to a contiguous index block; grid point (i, j) has
  /// sample index j * cols + i.  Empty ranges mean no centre is covered --
  /// a change confined to `r` is invisible to the grid.
  struct IndexRange {
    int col_begin = 0;
    int col_end = 0;  // exclusive
    int row_begin = 0;
    int row_end = 0;  // exclusive

    [[nodiscard]] bool empty() const {
      return col_begin >= col_end || row_begin >= row_end;
    }
    [[nodiscard]] std::int64_t count() const {
      return empty() ? 0
                     : static_cast<std::int64_t>(col_end - col_begin) *
                           (row_end - row_begin);
    }
  };
  [[nodiscard]] IndexRange index_range(gfx::Rect r) const;

  /// Outcome of a pass over the grid: how many grid points were read and
  /// whether any of them differed from the retained value.
  struct ScanResult {
    std::int64_t compared = 0;
    bool differed = false;
  };

  /// Fused gather + compare over the grid points inside `r`: reads each
  /// covered point from `fb`, compares it with `retained`, and writes the
  /// fresh value back -- damage-scoped retention update and classification
  /// in one pass.  `retained.size()` must equal sample_count().
  ScanResult update_in_rect(const gfx::Framebuffer& fb, gfx::Rect r,
                            gfx::PixelVector& retained) const;

  /// The full-grid pass (the unculled meter's reference): compares `fb`'s
  /// grid points with `retained` in row-major order up to the first
  /// difference, then refreshes `retained` from that point on.  The points
  /// before it already match, so `retained` ends equal to a full capture.
  /// `compared` is the first differing index + 1, or sample_count() when
  /// nothing differs.  `retained.size()` must equal sample_count().
  ScanResult compare_and_refresh(const gfx::Framebuffer& fb,
                                 gfx::PixelVector& retained) const;

 private:
  gfx::Size screen_;
  GridSpec grid_;
  std::vector<int> center_xs_;  // centre x per column (ascending)
  std::vector<int> center_ys_;  // centre y per row (ascending)
  // col_at_x_[x], x in [0, W]: number of column centres below x, so the
  // columns whose centre lies in [x0, x1) are [col_at_x_[x0], col_at_x_[x1]).
  // row_at_y_ is the same for rows over [0, H].
  std::vector<int> col_at_x_;
  std::vector<int> row_at_y_;
  // True when the column centres are consecutive pixels (the 921K grid): a
  // grid row is then one span of its framebuffer row, compared and copied
  // with memcmp/memcpy instead of a per-point gather.
  bool contiguous_rows_ = false;

  /// First pixel of grid row `j`'s centres in `px`, the framebuffer's
  /// storage: the first centre itself for contiguous rows, else the start
  /// of the framebuffer row (the gather adds center_xs_[i]).
  [[nodiscard]] const gfx::Rgb888* grid_row_pixels(const gfx::Rgb888* px,
                                                   std::size_t j) const;
  /// Copies grid points (j, i) .. the last point into `retained`, in
  /// row-major order: the tail of row j from column i, then whole rows.
  void capture_from(const gfx::Rgb888* px, std::size_t j, std::size_t i,
                    gfx::Rgb888* retained) const;
};

}  // namespace ccdem::core
