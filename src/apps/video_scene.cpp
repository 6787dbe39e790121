#include "apps/video_scene.h"

namespace ccdem::apps {

VideoScene::VideoScene(const SceneSpec& spec, gfx::Size size, sim::Rng rng)
    : spec_(spec), size_(size), rng_(rng) {
  // 16:9-ish video band centred vertically; controls strip at the bottom.
  const int video_h = size.width * 9 / 16;
  video_ = {0, (size.height - video_h) / 2, size.width, video_h};
  controls_ = {0, size.height - 72, size.width, 72};
}

void VideoScene::init(gfx::Canvas& canvas) {
  canvas.fill(gfx::colors::kBlack);
  paint_video_frame(canvas, 0);
  last_version_ = 0;  // frame 0 is on screen; re-rendering it is redundant
  canvas.fill_rect(controls_, gfx::colors::kDarkGray);
}

void VideoScene::paint_video_frame(gfx::Canvas& canvas,
                                   std::int64_t version) {
  // A cheap synthetic video with real-codec temporal structure: a gradient
  // backdrop that only changes when the cut index changes, plus two moving
  // high-contrast blocks that reposition every decoded frame.  Within a cut
  // most rows repeat byte-for-byte (inter-frame coherence, the tile cache's
  // win); every frame still has changed pixels, so the ground-truth content
  // rate stays at the decode rate.
  const auto v = static_cast<std::uint32_t>(version);
  const std::uint32_t cut =
      spec_.video_cut_frames > 0 ? v / static_cast<std::uint32_t>(
                                           spec_.video_cut_frames)
                                 : v;
  const gfx::Rgb888 top{static_cast<std::uint8_t>(40 + (cut * 7) % 120),
                        static_cast<std::uint8_t>(30 + (cut * 11) % 100), 60};
  const gfx::Rgb888 bottom{20,
                           static_cast<std::uint8_t>(60 + (cut * 5) % 120),
                           static_cast<std::uint8_t>(90 + (cut * 3) % 100)};
  canvas.fill_gradient(video_, top, bottom);
  const int bw = video_.width / 6;
  const int bx = video_.x + static_cast<int>((v * 23) % static_cast<std::uint32_t>(
                                                 video_.width - bw));
  const int by = video_.y + static_cast<int>((v * 17) % static_cast<std::uint32_t>(
                                                 video_.height - 60));
  canvas.fill_rect(gfx::Rect{bx, by, bw, 60}, gfx::colors::kWhite);
  canvas.fill_rect(
      gfx::Rect{video_.x + video_.width - bx - bw, video_.y + 20, bw / 2, 40},
      gfx::colors::kYellow);
}

void VideoScene::on_touch(const input::TouchEvent& e) {
  if (e.action == input::TouchEvent::Action::kDown) {
    controls_dirty_ = true;
    ++controls_seed_;
  }
}

bool VideoScene::render(gfx::Canvas& canvas, sim::Time t) {
  bool changed = false;
  const auto version =
      static_cast<std::int64_t>(t.seconds() * spec_.video_fps);
  if (version != last_version_) {
    last_version_ = version;
    // The clip loops: past one period every decoded frame repeats an earlier
    // one exactly.
    const std::int64_t looped = spec_.video_loop_frames > 0
                                    ? version % spec_.video_loop_frames
                                    : version;
    paint_video_frame(canvas, looped);
    changed = true;
  }
  if (controls_dirty_) {
    controls_dirty_ = false;
    canvas.fill_rect(controls_, gfx::colors::kDarkGray);
    canvas.draw_text_block(gfx::Rect{16, controls_.y + 16,
                                     controls_.width - 32, 40},
                           gfx::colors::kWhite, gfx::colors::kDarkGray,
                           controls_seed_);
    changed = true;
  }
  return changed;
}

double VideoScene::nominal_content_fps(sim::Time) const {
  return spec_.video_fps;
}

}  // namespace ccdem::apps
