// RGB888 pixel type used by framebuffers and surfaces.
//
// The Galaxy S3 panel the paper instruments is RGB; alpha is irrelevant to
// content-change detection, so we model 24-bit colour exactly.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccdem::gfx {

struct Rgb888 {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  constexpr auto operator<=>(const Rgb888&) const = default;

  [[nodiscard]] constexpr std::uint32_t packed() const {
    return (static_cast<std::uint32_t>(r) << 16) |
           (static_cast<std::uint32_t>(g) << 8) |
           static_cast<std::uint32_t>(b);
  }

  static constexpr Rgb888 from_packed(std::uint32_t v) {
    return Rgb888{static_cast<std::uint8_t>((v >> 16) & 0xff),
                  static_cast<std::uint8_t>((v >> 8) & 0xff),
                  static_cast<std::uint8_t>(v & 0xff)};
  }

  /// Perceptual-ish luma in [0, 255] (integer Rec.601 weights).
  [[nodiscard]] constexpr int luma() const {
    return (299 * r + 587 * g + 114 * b) / 1000;
  }
};

/// Fills `n` pixels at `p` with `c`, writing nothing outside [p, p + n).
///
/// Uniform bytes (grey) collapse to one memset.  Any other colour repeats
/// with a period of 8 pixels = 24 bytes, held as three 64-bit words and
/// written with fixed-size memcpy stores that the compiler emits inline:
/// most spans are short (sprite rows, text runs), where a libc call per
/// span -- or per doubling step -- costs more than the bytes.  Every store
/// starts on a pixel boundary, so every store is in phase.
inline void fill_span(Rgb888* p, std::size_t n, Rgb888 c) {
  if (c.r == c.g && c.g == c.b) {
    if (n != 0) std::memset(static_cast<void*>(p), c.r, n * sizeof(Rgb888));
    return;
  }
  if (n < 8) {
    for (std::size_t i = 0; i < n; ++i) p[i] = c;
    return;
  }
  // Bytes r g b r g b r g | b r g b r g b r | g b r g b r g b.
  unsigned char period[24];
  for (std::size_t i = 0; i < 24; i += 3) {
    period[i] = c.r;
    period[i + 1] = c.g;
    period[i + 2] = c.b;
  }
  std::uint64_t w0, w1, w2;
  std::memcpy(&w0, period, 8);
  std::memcpy(&w1, period + 8, 8);
  std::memcpy(&w2, period + 16, 8);
  const auto put24 = [&](unsigned char* d) {
    std::memcpy(d, &w0, 8);
    std::memcpy(d + 8, &w1, 8);
    std::memcpy(d + 16, &w2, 8);
  };
  auto* out = reinterpret_cast<unsigned char*>(p);
  const std::size_t bytes = n * sizeof(Rgb888);
  put24(out);
  if (n < 16) {
    // 8..15 pixels: a second, overlapping 8-pixel store ends the span.
    put24(out + bytes - 24);
    return;
  }
  put24(out + 24);
  // Further 48-byte blocks copy the first one.  The fixed-size copy is
  // emitted as 16-byte loads and stores, twice the width of the word
  // stores, which is what full-width rows need to keep up with libc.
  for (std::size_t i = 48; i + 48 < bytes; i += 48) {
    std::memcpy(out + i, out, 48);
  }
  // The last block ends exactly at p + n: it starts n - 16 pixels in, a
  // whole number of pixels, so it lands in phase.
  put24(out + bytes - 48);
  put24(out + bytes - 24);
}

/// Allocator of pixel storage whose size changes touch no pixel.
///
/// std::vector<Rgb888>::resize value-initialises each new pixel with two
/// stores (a 2-byte and a 1-byte one), and without Rgb888's member
/// initialisers GCC emits a per-pixel copy loop instead: either way 4-5x
/// the time of a memset on a 720x1280 buffer.  Here value-less construction
/// and destruction do nothing.  Rgb888 is an aggregate of three bytes, so
/// it is an implicit-lifetime type: the storage operator new returns
/// already holds its objects, and a trivial destructor needs no call.
/// Every owner writes what it sizes before reading it (assign_pixels, the
/// grid sampler's capture).
template <typename T>
struct PixelAllocator {
  static_assert(std::is_aggregate_v<T> && std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  using value_type = T;

  PixelAllocator() = default;
  template <typename U>
  constexpr PixelAllocator(const PixelAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <typename U>
  void destroy(U*) noexcept {}

  friend constexpr bool operator==(const PixelAllocator&,
                                   const PixelAllocator&) noexcept {
    return true;
  }
};

/// Pixel storage: framebuffers, pooled buffers and grid-sample snapshots.
using PixelVector = std::vector<Rgb888, PixelAllocator<Rgb888>>;

/// Makes `v` exactly `n` pixels of `c`, writing each byte once: the resize
/// stores nothing and fill_span is one memset for grey.  Nothing old is
/// copied when the storage must grow, since `v` is emptied first.
inline void assign_pixels(PixelVector& v, std::size_t n, Rgb888 c) {
  v.clear();
  v.resize(n);
  fill_span(v.data(), n, c);
}

namespace colors {
inline constexpr Rgb888 kBlack{0, 0, 0};
inline constexpr Rgb888 kWhite{255, 255, 255};
inline constexpr Rgb888 kRed{220, 40, 40};
inline constexpr Rgb888 kGreen{40, 200, 80};
inline constexpr Rgb888 kBlue{40, 80, 220};
inline constexpr Rgb888 kGray{128, 128, 128};
inline constexpr Rgb888 kDarkGray{40, 40, 40};
inline constexpr Rgb888 kLightGray{210, 210, 210};
inline constexpr Rgb888 kYellow{240, 210, 40};
}  // namespace colors

}  // namespace ccdem::gfx
