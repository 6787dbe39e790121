// BufferPool: recycles pixel-buffer storage across runs.
//
// A simulated device allocates several megabytes of framebuffers per run
// (screen buffer, per-app surfaces, meter sample snapshots).  Fleet sweeps
// re-create the whole device for every config, so without recycling each of
// the 90 runs behind Fig. 9 pays those allocations again.  The pool keeps
// released storage on a bounded free list and hands it back on the next
// acquire; contents are always re-initialised (acquire() fills every pixel
// with one fill_span, acquire_reserved() returns an empty vector), so
// pooled and fresh buffers are indistinguishable and results stay
// bit-identical.
//
// NOT thread-safe by design: each fleet worker owns its own pool (and its
// own device), so no synchronisation is needed on the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gfx/pixel.h"

namespace ccdem::gfx {

class BufferPool {
 public:
  /// `max_free`: upper bound on retained buffers; releases beyond it are
  /// dropped (freed) so a burst of surfaces cannot pin memory forever.
  explicit BufferPool(std::size_t max_free = 16) : max_free_(max_free) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a buffer of exactly `n` pixels, every element set to `fill`.
  [[nodiscard]] PixelVector acquire(std::size_t n, Rgb888 fill);

  /// Returns an *empty* buffer with capacity >= `n`; the caller must write
  /// every element before reading (GridSampler::sample does).
  [[nodiscard]] PixelVector acquire_reserved(std::size_t n);

  /// Returns storage to the free list (or frees it if the list is full).
  void release(PixelVector&& v);

  /// Lifetime counters.  reuses() is the number of heap allocations avoided:
  /// acquires served from the free list with sufficient capacity.
  [[nodiscard]] std::uint64_t acquires() const { return acquires_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  [[nodiscard]] std::uint64_t allocations() const {
    return acquires_ - reuses_;
  }

  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  [[nodiscard]] std::size_t free_bytes() const;

 private:
  /// Pops the first free buffer whose capacity covers `n` (counted as a
  /// reuse); falls back to any free buffer (it will grow) or a fresh one.
  [[nodiscard]] PixelVector take(std::size_t n);

  std::vector<PixelVector> free_;
  std::size_t max_free_;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace ccdem::gfx
