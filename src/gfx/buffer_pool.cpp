#include "gfx/buffer_pool.h"

#include <utility>

namespace ccdem::gfx {

PixelVector BufferPool::take(std::size_t n) {
  ++acquires_;
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].capacity() >= n) {
      ++reuses_;
      PixelVector v = std::move(free_[i]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      return v;
    }
  }
  if (!free_.empty()) {
    // Undersized storage: reuse the vector object but count the inevitable
    // regrowth as an allocation.
    PixelVector v = std::move(free_.back());
    free_.pop_back();
    return v;
  }
  return {};
}

PixelVector BufferPool::acquire(std::size_t n, Rgb888 fill) {
  PixelVector v = take(n);
  assign_pixels(v, n, fill);
  return v;
}

PixelVector BufferPool::acquire_reserved(std::size_t n) {
  PixelVector v = take(n);
  v.clear();
  v.reserve(n);
  return v;
}

void BufferPool::release(PixelVector&& v) {
  if (v.capacity() == 0 || free_.size() >= max_free_) return;
  free_.push_back(std::move(v));
}

std::size_t BufferPool::free_bytes() const {
  std::size_t total = 0;
  for (const auto& v : free_) total += v.capacity() * sizeof(Rgb888);
  return total;
}

}  // namespace ccdem::gfx
