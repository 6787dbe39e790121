#include "gfx/canvas.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

namespace ccdem::gfx {

void Canvas::fill(Rgb888 c) {
  fb_->fill(c);
  mark(fb_->bounds());
}

void Canvas::fill_rect(Rect r, Rgb888 c) {
  fb_->fill_rect(r, c);
  mark(r);
}

void Canvas::draw_circle(Point center, int radius, Rgb888 c) {
  if (radius <= 0) return;
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clipped = box.intersect(fb_->bounds());
  if (clipped.empty()) return;
  const int r2 = radius * radius;
  // Row spans: dx^2 + dy^2 <= r^2 is |dx| <= s(dy) = floor(sqrt(r^2 - dy^2)),
  // so each scanline is one contiguous fill instead of a per-pixel test.
  // s only shrinks as |dy| grows, so walking outward from the centre row
  // keeps it exact with integer decrements alone: s(0) = radius, and s
  // falls by radius in total over the walk.  Rows above and below the
  // centre share s; spans on different rows are disjoint, so the paint
  // order does not change the covered pixels.
  const auto paint_row = [&](int y, int s) {
    if (y < clipped.y || y >= clipped.bottom()) return;
    const int x0 = std::max(center.x - s, clipped.x);
    const int x1 = std::min(center.x + s + 1, clipped.right());
    if (x0 >= x1) return;
    fill_span(fb_->row(y).data() + x0, static_cast<std::size_t>(x1 - x0), c);
  };
  int s = radius;
  for (int dy = 0; dy <= radius; ++dy) {
    const int span2 = r2 - dy * dy;
    while (s * s > span2) --s;
    paint_row(center.y + dy, s);
    if (dy != 0) paint_row(center.y - dy, s);
  }
  mark(clipped);
}

void Canvas::fill_gradient(Rect r, Rgb888 top, Rgb888 bottom) {
  const Rect c = r.intersect(fb_->bounds());
  if (c.empty()) return;
  for (int y = c.y; y < c.bottom(); ++y) {
    const double t =
        r.height <= 1 ? 0.0 : static_cast<double>(y - r.y) / (r.height - 1);
    const Rgb888 col{
        static_cast<std::uint8_t>(top.r + t * (bottom.r - top.r)),
        static_cast<std::uint8_t>(top.g + t * (bottom.g - top.g)),
        static_cast<std::uint8_t>(top.b + t * (bottom.b - top.b))};
    auto row = fb_->row(y);
    fill_span(row.data() + c.x, static_cast<std::size_t>(c.width), col);
  }
  mark(c);
}

void Canvas::draw_text_block(Rect r, Rgb888 fg, Rgb888 bg,
                             std::uint32_t seed) {
  const Rect c = r.intersect(fb_->bounds());
  if (c.empty()) return;
  fb_->fill_rect(c, bg);
  // Simulate lines of text as short fg runs; a simple LCG keyed by `seed`
  // varies run lengths so distinct strings yield distinct pixels.  The runs
  // of a line are generated once into a span list, then painted row by row:
  // the words of a line share their scanlines, so this walks the buffer in
  // row-major order with one fill per run instead of one clipped fill_rect
  // per word -- pixel output is unchanged (runs are disjoint; all lie
  // inside `c`).
  std::uint32_t state = seed * 2654435761u + 12345u;
  const int line_height = 14;
  const int glyph_height = 9;
  std::vector<std::pair<int, int>> runs;  // [x, end) per word of one line
  for (int ly = c.y + 3; ly + glyph_height <= c.bottom(); ly += line_height) {
    runs.clear();
    int x = c.x + 4;
    while (x < c.right() - 4) {
      state = state * 1664525u + 1013904223u;
      const int run = 3 + static_cast<int>(state % 23);   // word width
      const int gap = 3 + static_cast<int>((state >> 8) % 6);
      const int end = std::min(x + run, c.right() - 4);
      if (end > x) runs.emplace_back(x, end);
      x = end + gap;
    }
    // Paint the runs once, then replicate the scanline: every row of a
    // glyph line is identical (runs and the background between them), so
    // the other rows are straight copies of the first.
    if (runs.empty()) continue;
    auto first = fb_->row(ly);
    for (const auto& [rx, rend] : runs) {
      fill_span(first.data() + rx, static_cast<std::size_t>(rend - rx), fg);
    }
    const int span_x = runs.front().first;
    const int span_end = runs.back().second;
    for (int y = ly + 1; y < ly + glyph_height; ++y) {
      auto row = fb_->row(y);
      std::memcpy(row.data() + span_x, first.data() + span_x,
                  static_cast<std::size_t>(span_end - span_x) *
                      sizeof(Rgb888));
    }
  }
  mark(c);
}

void Canvas::draw_hline(int x0, int x1, int y, Rgb888 c) {
  fill_rect(Rect{std::min(x0, x1), y, std::abs(x1 - x0) + 1, 1}, c);
}

void Canvas::draw_vline(int x, int y0, int y1, Rgb888 c) {
  fill_rect(Rect{x, std::min(y0, y1), 1, std::abs(y1 - y0) + 1}, c);
}

void Canvas::draw_frame(Rect r, int thickness, Rgb888 c) {
  if (r.empty() || thickness <= 0) return;
  fill_rect(Rect{r.x, r.y, r.width, thickness}, c);
  fill_rect(Rect{r.x, r.bottom() - thickness, r.width, thickness}, c);
  fill_rect(Rect{r.x, r.y, thickness, r.height}, c);
  fill_rect(Rect{r.right() - thickness, r.y, thickness, r.height}, c);
}

void Canvas::blit(const Framebuffer& src, Rect src_rect, Point dst) {
  fb_->blit(src, src_rect, dst);
  mark(Rect{dst.x, dst.y, src_rect.width, src_rect.height});
}

void Canvas::scroll_up(Rect region, int dy) {
  fb_->scroll_up(region, dy);
  mark(region);
}

void Canvas::shift(Rect region, int dx, int dy) {
  fb_->shift(region, dx, dy);
  mark(region);
}

}  // namespace ccdem::gfx
