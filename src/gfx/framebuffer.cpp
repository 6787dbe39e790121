#include "gfx/framebuffer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "gfx/buffer_pool.h"
#include "gfx/compare.h"
#include "gfx/hash.h"
#include "gfx/region.h"

namespace ccdem::gfx {

namespace {

std::uint64_t row_hash(const Framebuffer& fb, int y) {
  const std::span<const Rgb888> row = fb.row(y);
  return hash_bytes(row.data(), row.size_bytes());
}

/// hash_bytes over the array [row(0), ..., row(n - 1)] without building the
/// array: hashes are fed four at a time, one 32-byte bulk step each, which
/// is exactly the chunking hash_bytes applies to the whole array.
template <typename RowFn>
std::uint64_t fold_rows(int n, RowFn row) {
  hash_detail::Lanes lanes(kHashSeed);
  std::uint64_t block[4];
  for (int y = 0; y < n; y += 4) {
    const int k = std::min(4, n - y);
    for (int i = 0; i < k; ++i) block[i] = row(y + i);
    lanes.bulk(reinterpret_cast<const unsigned char*>(block),
               static_cast<std::size_t>(k) * sizeof(block[0]));
  }
  return lanes.fold(kHashSeed);
}

}  // namespace

Framebuffer::Framebuffer(int width, int height, Rgb888 fill)
    : width_(width), height_(height) {
  assert(width >= 0 && height >= 0);
  assign_pixels(pixels_, static_cast<std::size_t>(width) * height, fill);
}

Framebuffer::Framebuffer(int width, int height, BufferPool* pool, Rgb888 fill)
    : width_(width), height_(height), pool_(pool) {
  assert(width >= 0 && height >= 0);
  const std::size_t n = static_cast<std::size_t>(width) * height;
  if (pool_ != nullptr) {
    pixels_ = pool_->acquire(n, fill);
  } else {
    assign_pixels(pixels_, n, fill);
  }
}

Framebuffer::~Framebuffer() {
  if (pool_ != nullptr) pool_->release(std::move(pixels_));
}

Framebuffer::Framebuffer(const Framebuffer& other)
    : width_(other.width_), height_(other.height_), pixels_(other.pixels_) {}

Framebuffer& Framebuffer::operator=(const Framebuffer& other) {
  // Keeps this buffer's own pool affiliation; only the pixels are copied.
  width_ = other.width_;
  height_ = other.height_;
  pixels_ = other.pixels_;
  return *this;
}

Framebuffer::Framebuffer(Framebuffer&& other) noexcept
    : width_(other.width_),
      height_(other.height_),
      pixels_(std::move(other.pixels_)),
      pool_(other.pool_) {
  other.width_ = 0;
  other.height_ = 0;
  other.pool_ = nullptr;
  other.pixels_.clear();
}

Framebuffer& Framebuffer::operator=(Framebuffer&& other) noexcept {
  std::swap(width_, other.width_);
  std::swap(height_, other.height_);
  std::swap(pixels_, other.pixels_);
  std::swap(pool_, other.pool_);
  return *this;
}

Rgb888 Framebuffer::at_clamped(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return colors::kBlack;
  return at(x, y);
}

void Framebuffer::fill(Rgb888 c) { fill_rect(bounds(), c); }

void Framebuffer::fill_rect(Rect r, Rgb888 c) {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return;
  // Paint the first row, then replicate it downwards with memcpy: a 3-byte
  // struct store loop does not vectorise, but row replication runs at copy
  // bandwidth.  Same bytes either way.
  Rgb888* first =
      pixels_.data() + static_cast<std::size_t>(clipped.y) * width_ +
      clipped.x;
  fill_span(first, static_cast<std::size_t>(clipped.width), c);
  const std::size_t bytes =
      static_cast<std::size_t>(clipped.width) * sizeof(Rgb888);
  for (int y = clipped.y + 1; y < clipped.bottom(); ++y) {
    std::memcpy(pixels_.data() + static_cast<std::size_t>(y) * width_ +
                    clipped.x,
                first, bytes);
  }
}

void Framebuffer::blit(const Framebuffer& src, Rect src_rect, Point dst) {
  const kernels::CopyWindow w =
      kernels::clip_copy(src_rect, src.bounds(), dst, bounds());
  if (w.empty()) return;
  kernels::copy_rows(pixels_.data(), width_, src.pixels_.data(), src.width_,
                     w);
}

void Framebuffer::scroll_up(Rect region, int dy) {
  const Rect r = region.intersect(bounds());
  if (r.empty() || dy <= 0) return;
  if (dy >= r.height) return;  // everything scrolled away; nothing to move
  for (int y = r.y; y < r.bottom() - dy; ++y) {
    const Rgb888* from =
        pixels_.data() + static_cast<std::size_t>(y + dy) * width_ + r.x;
    Rgb888* to = pixels_.data() + static_cast<std::size_t>(y) * width_ + r.x;
    std::memmove(to, from, static_cast<std::size_t>(r.width) * sizeof(Rgb888));
  }
}

void Framebuffer::shift(Rect region, int dx, int dy) {
  const Rect r = region.intersect(bounds());
  if (r.empty() || (dx == 0 && dy == 0)) return;
  if (std::abs(dx) >= r.width || std::abs(dy) >= r.height) return;

  // Destination row y takes source row y - dy; iterate so sources are read
  // before being overwritten (top-down when content moves down, bottom-up
  // when it moves up).  Within a row memmove handles the horizontal overlap.
  const int copy_w = r.width - std::abs(dx);
  const int src_x = dx >= 0 ? r.x : r.x - dx;
  const int dst_x = dx >= 0 ? r.x + dx : r.x;
  const int y_begin = dy >= 0 ? r.bottom() - 1 : r.y;
  const int y_end = dy >= 0 ? r.y + dy - 1 : r.bottom() + dy;
  const int step = dy >= 0 ? -1 : 1;
  for (int y = y_begin; y != y_end; y += step) {
    const Rgb888* from =
        pixels_.data() + static_cast<std::size_t>(y - dy) * width_ + src_x;
    Rgb888* to = pixels_.data() + static_cast<std::size_t>(y) * width_ + dst_x;
    std::memmove(to, from, static_cast<std::size_t>(copy_w) * sizeof(Rgb888));
  }
}

bool Framebuffer::equals(const Framebuffer& other) const {
  if (width_ != other.width_ || height_ != other.height_) return false;
  return std::memcmp(pixels_.data(), other.pixels_.data(),
                     pixels_.size() * sizeof(Rgb888)) == 0;
}

bool Framebuffer::region_equals(const Framebuffer& other, Rect r) const {
  if (width_ != other.width_ || height_ != other.height_) return false;
  const Rect c = r.intersect(bounds());
  if (c.empty()) return true;
  return kernels::rows_equal(pixels_.data(), other.pixels_.data(), width_, c);
}

std::uint64_t Framebuffer::fast_hash() const {
  return fold_rows(height_, [this](int y) { return row_hash(*this, y); });
}

void RowHashes::reset(const Framebuffer& fb) {
  rows_.resize(static_cast<std::size_t>(fb.height()));
  stale_.assign(rows_.size(), 0);
  for (int y = 0; y < fb.height(); ++y) rows_[y] = row_hash(fb, y);
  hash_ = fold_rows(fb.height(), [this](int y) { return rows_[y]; });
}

void RowHashes::update(const Framebuffer& fb, const Region& damage) {
  assert(static_cast<std::size_t>(fb.height()) == rows_.size());
  if (damage.empty()) return;
  // Damage rects are disjoint but may share rows; mark first so each row is
  // hashed once.
  const Rect span = damage.bounds().intersect(fb.bounds());
  for (const Rect& r : damage.rects()) {
    const Rect c = r.intersect(fb.bounds());
    for (int y = c.y; y < c.bottom(); ++y) stale_[y] = 1;
  }
  for (int y = span.y; y < span.bottom(); ++y) {
    if (stale_[y] == 0) continue;
    stale_[y] = 0;
    rows_[y] = row_hash(fb, y);
  }
  hash_ = fold_rows(fb.height(), [this](int y) { return rows_[y]; });
}

}  // namespace ccdem::gfx
