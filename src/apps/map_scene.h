// MapScene: a tile-based map viewer (Daum Maps / NaverMap class).
//
// Unlike the feed scene's vertical scrolling, a map pans in two dimensions:
// each touch move drags the viewport, the whole visible area shifts, and
// the newly exposed bands repaint from the virtual tile plane.  Map apps
// also animate markers/position pulses at a low idle rate and are known
// redundancy offenders (Fig. 3's Daum Maps ~20 redundant fps: the engine
// keeps requesting frames while the map sits still).
#pragma once

#include <cstdint>

#include "apps/scene.h"

namespace ccdem::apps {

class MapScene final : public Scene {
 public:
  MapScene(const SceneSpec& spec, gfx::Size size, sim::Rng rng);

  void init(gfx::Canvas& canvas) override;
  bool render(gfx::Canvas& canvas, sim::Time t) override;
  void on_touch(const input::TouchEvent& e) override;
  [[nodiscard]] double nominal_content_fps(sim::Time t) const override;

  [[nodiscard]] gfx::Point viewport_origin() const {
    return {origin_x_, origin_y_};
  }

  /// Colour of the virtual map at world coordinates (wx, wy).
  [[nodiscard]] static gfx::Rgb888 world_color(int wx, int wy);
  /// Paints `band` (screen coordinates, clipped to `fb`) with the map as
  /// seen from world `origin`, the world coordinate of the screen's top-left:
  /// pixel (x, y) becomes world_color(origin.x + x, origin.y + y).  Returns
  /// the clipped band.
  static gfx::Rect paint_world(gfx::Framebuffer& fb, gfx::Rect band,
                               gfx::Point origin);

 private:
  void paint_world_band(gfx::Canvas& canvas, gfx::Rect screen_band);
  void paint_marker(gfx::Canvas& canvas, std::int64_t pulse);
  void pan(gfx::Canvas& canvas, int dx, int dy);

  SceneSpec spec_;
  gfx::Size size_;
  sim::Rng rng_;
  int origin_x_ = 0;  ///< world coordinate of the screen's top-left
  int origin_y_ = 0;
  std::int64_t last_pulse_version_ = 0;
  bool dragging_ = false;
  gfx::Point last_touch_pos_{};
  int pending_dx_ = 0;  ///< queued pan, consumed per render
  int pending_dy_ = 0;
};

}  // namespace ccdem::apps
