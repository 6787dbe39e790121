// A dense RGB888 pixel buffer.
//
// Used both for the device framebuffer (what the panel scans out and what
// the content-rate meter samples) and for per-application surfaces.  The
// Galaxy S3 configuration in the paper is 720x1280 (921.6K pixels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gfx/geometry.h"
#include "gfx/pixel.h"

namespace ccdem::gfx {

class BufferPool;

class Framebuffer {
 public:
  Framebuffer() = default;
  Framebuffer(int width, int height, Rgb888 fill = colors::kBlack);
  explicit Framebuffer(Size size, Rgb888 fill = colors::kBlack)
      : Framebuffer(size.width, size.height, fill) {}

  /// Pool-backed variant: pixel storage is acquired from `pool` (may be
  /// null, which degrades to a plain allocation) and returned to it on
  /// destruction.  Contents start identical to the plain constructor's.
  Framebuffer(int width, int height, BufferPool* pool,
              Rgb888 fill = colors::kBlack);
  Framebuffer(Size size, BufferPool* pool, Rgb888 fill = colors::kBlack)
      : Framebuffer(size.width, size.height, pool, fill) {}

  ~Framebuffer();
  /// Copies are deep and never pool-backed (a copy may outlive the pool).
  Framebuffer(const Framebuffer& other);
  Framebuffer& operator=(const Framebuffer& other);
  /// Moves transfer the storage together with its pool affiliation.
  Framebuffer(Framebuffer&& other) noexcept;
  Framebuffer& operator=(Framebuffer&& other) noexcept;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] Size size() const { return {width_, height_}; }
  [[nodiscard]] Rect bounds() const { return Rect{0, 0, width_, height_}; }
  [[nodiscard]] std::int64_t pixel_count() const {
    return static_cast<std::int64_t>(width_) * height_;
  }

  /// Unchecked pixel access; (x, y) must be within bounds.
  [[nodiscard]] Rgb888 at(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  void set(int x, int y, Rgb888 c) {
    pixels_[static_cast<std::size_t>(y) * width_ + x] = c;
  }

  /// Bounds-checked variant returning black for out-of-range coordinates.
  [[nodiscard]] Rgb888 at_clamped(int x, int y) const;

  [[nodiscard]] std::span<const Rgb888> row(int y) const {
    return {pixels_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }
  [[nodiscard]] std::span<Rgb888> row(int y) {
    return {pixels_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }
  [[nodiscard]] std::span<const Rgb888> pixels() const { return pixels_; }
  /// Mutable raw storage for callers that compose through the row-span
  /// kernels directly (the flinger's tile path); prefer blit/fill otherwise.
  [[nodiscard]] std::span<Rgb888> pixels_mut() { return pixels_; }

  void fill(Rgb888 c);
  /// Fills the intersection of `r` with the buffer bounds.
  void fill_rect(Rect r, Rgb888 c);

  /// Copies `src_rect` from `src` to position `dst` in this buffer, clipped
  /// to both buffers.
  void blit(const Framebuffer& src, Rect src_rect, Point dst);

  /// Scrolls the contents of `region` up by `dy` pixels (dy > 0), leaving the
  /// vacated band unchanged (callers repaint it).  Used by feed scenes.
  void scroll_up(Rect region, int dy);

  /// Shifts the contents of `region` by (dx, dy) in place (either sign);
  /// pixels shifted in from outside the region keep their old values
  /// (callers repaint the exposed bands).  Used by the 2-D panning scenes.
  void shift(Rect region, int dx, int dy);

  /// True iff every pixel matches (sizes must match too).
  [[nodiscard]] bool equals(const Framebuffer& other) const;
  /// True iff pixels inside `r` (clipped) all match.  Sizes must match.
  [[nodiscard]] bool region_equals(const Framebuffer& other, Rect r) const;

  /// Fast 64-bit fingerprint of the whole buffer (gfx/hash.h mixer); used
  /// for the per-frame stream hashes the DST oracles compare.
  [[nodiscard]] std::uint64_t fast_hash() const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Rgb888> pixels_;
  BufferPool* pool_ = nullptr;  ///< storage owner on destruction, if any
};

}  // namespace ccdem::gfx
