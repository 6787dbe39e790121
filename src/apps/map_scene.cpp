#include "apps/map_scene.h"

#include <algorithm>
#include <cmath>

namespace ccdem::apps {

namespace {
constexpr int kTile = 64;
constexpr int kRoadPeriod = 256;
constexpr int kRoadWidth = 6;
}  // namespace

MapScene::MapScene(const SceneSpec& spec, gfx::Size size, sim::Rng rng)
    : spec_(spec), size_(size), rng_(rng) {
  origin_x_ = static_cast<int>(rng_.uniform_int(0, 1 << 16));
  origin_y_ = static_cast<int>(rng_.uniform_int(0, 1 << 16));
}

gfx::Rgb888 MapScene::world_color(int wx, int wy) {
  // Roads form a grid over pastel terrain tiles.
  const int rx = ((wx % kRoadPeriod) + kRoadPeriod) % kRoadPeriod;
  const int ry = ((wy % kRoadPeriod) + kRoadPeriod) % kRoadPeriod;
  if (rx < kRoadWidth || ry < kRoadWidth) return gfx::Rgb888{235, 235, 230};
  const auto tx = static_cast<std::uint32_t>(wx >= 0 ? wx / kTile
                                                     : (wx - kTile + 1) / kTile);
  const auto ty = static_cast<std::uint32_t>(wy >= 0 ? wy / kTile
                                                     : (wy - kTile + 1) / kTile);
  const std::uint32_t h = (tx * 2654435761u) ^ (ty * 40503u);
  return gfx::Rgb888{static_cast<std::uint8_t>(140 + (h & 0x3f)),
                     static_cast<std::uint8_t>(170 + ((h >> 8) & 0x3f)),
                     static_cast<std::uint8_t>(130 + ((h >> 16) & 0x3f))};
}

gfx::Rect MapScene::paint_world(gfx::Framebuffer& fb, gfx::Rect band,
                                gfx::Point origin) {
  const gfx::Rect clipped = band.intersect(fb.bounds());
  // world_color is constant between edges: tile edges every kTile and road
  // edges at kRoadPeriod * k and kRoadPeriod * k + kRoadWidth along x (the
  // road period is a multiple of the tile, so its start is a tile edge).
  // Each row is therefore filled in runs that end at the next edge, with
  // the colour taken once per run.
  static_assert(kRoadPeriod % kTile == 0);
  const auto mod = [](int v, int m) { return ((v % m) + m) % m; };
  for (int y = clipped.y; y < clipped.bottom(); ++y) {
    const int wy = origin.y + y;
    gfx::Rgb888* row = fb.row(y).data();
    int x = clipped.x;
    while (x < clipped.right()) {
      const int wx = origin.x + x;
      const int to_tile_edge = kTile - mod(wx, kTile);
      const int to_road_edge = mod(kRoadWidth - 1 - wx, kRoadPeriod) + 1;
      const int run_end =
          std::min(clipped.right(), x + std::min(to_tile_edge, to_road_edge));
      gfx::fill_span(row + x, static_cast<std::size_t>(run_end - x),
                     world_color(wx, wy));
      x = run_end;
    }
  }
  return clipped;
}

void MapScene::paint_world_band(gfx::Canvas& canvas, gfx::Rect screen_band) {
  const gfx::Rect band = paint_world(
      canvas.framebuffer(), screen_band.intersect(gfx::Rect::of(size_)),
      gfx::Point{origin_x_, origin_y_});
  // fb writes bypass the canvas, so mark the band explicitly.
  canvas.mark_dirty(band);
}

void MapScene::paint_marker(gfx::Canvas& canvas, std::int64_t pulse) {
  const gfx::Point center{size_.width / 2, size_.height / 2};
  const int max_r = 20;
  // Repaint the world beneath the largest marker extent, then the pulse.
  paint_world_band(canvas,
                   gfx::Rect{center.x - max_r, center.y - max_r,
                             2 * max_r + 1, 2 * max_r + 1});
  // Radius and ring colour both cycle (with co-prime periods) so any two
  // distinct pulse values paint distinct pixels -- even across version
  // jumps after a long render gap.
  const int r = 8 + static_cast<int>(pulse % 4) * 3;
  const auto g =
      static_cast<std::uint8_t>(70 + (static_cast<std::uint64_t>(pulse) * 37) % 80);
  canvas.draw_circle(center, r, gfx::Rgb888{30, g, 220});
  canvas.draw_circle(center, 5, gfx::colors::kWhite);
}

void MapScene::init(gfx::Canvas& canvas) {
  paint_world_band(canvas, gfx::Rect::of(size_));
  paint_marker(canvas, 0);
}

void MapScene::on_touch(const input::TouchEvent& e) {
  switch (e.action) {
    case input::TouchEvent::Action::kDown:
      dragging_ = true;
      last_touch_pos_ = e.pos;
      break;
    case input::TouchEvent::Action::kMove:
      if (dragging_) {
        // Dragging right moves the viewport left (content follows finger).
        pending_dx_ -= e.pos.x - last_touch_pos_.x;
        pending_dy_ -= e.pos.y - last_touch_pos_.y;
        last_touch_pos_ = e.pos;
      }
      break;
    case input::TouchEvent::Action::kUp:
      dragging_ = false;
      break;
  }
}

void MapScene::pan(gfx::Canvas& canvas, int dx, int dy) {
  origin_x_ += dx;
  origin_y_ += dy;
  // Content moves opposite to the origin shift; shift() marks the region.
  canvas.shift(gfx::Rect::of(size_), -dx, -dy);
  // Exposed bands: vertical band on the entering side, horizontal band too.
  if (dx > 0) {
    paint_world_band(canvas, gfx::Rect{size_.width - dx, 0, dx, size_.height});
  } else if (dx < 0) {
    paint_world_band(canvas, gfx::Rect{0, 0, -dx, size_.height});
  }
  if (dy > 0) {
    paint_world_band(canvas, gfx::Rect{0, size_.height - dy, size_.width, dy});
  } else if (dy < 0) {
    paint_world_band(canvas, gfx::Rect{0, 0, size_.width, -dy});
  }
}

bool MapScene::render(gfx::Canvas& canvas, sim::Time t) {
  bool changed = false;

  if (pending_dx_ != 0 || pending_dy_ != 0) {
    const int step = spec_.scroll_px_per_frame;
    const int dx = std::clamp(pending_dx_, -step, step);
    const int dy = std::clamp(pending_dy_, -step, step);
    pending_dx_ -= dx;
    pending_dy_ -= dy;
    if (dx != 0 || dy != 0) {
      pan(canvas, dx, dy);
      changed = true;
    }
  }

  if (spec_.idle_content_fps > 0.0) {
    const auto pulse =
        static_cast<std::int64_t>(t.seconds() * spec_.idle_content_fps);
    if (pulse != last_pulse_version_) {
      last_pulse_version_ = pulse;
      paint_marker(canvas, pulse);
      changed = true;
    }
  }
  return changed;
}

double MapScene::nominal_content_fps(sim::Time) const {
  if (pending_dx_ != 0 || pending_dy_ != 0) return 60.0;
  return spec_.idle_content_fps;
}

}  // namespace ccdem::apps
