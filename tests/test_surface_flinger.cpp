#include "gfx/surface_flinger.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gfx/buffer_pool.h"
#include "obs/obs.h"
#include "sim/rng.h"

namespace ccdem::gfx {
namespace {

class RecordingListener final : public FrameListener {
 public:
  void on_frame(const FrameInfo& info, const Framebuffer&) override {
    frames.push_back(info);
  }
  std::vector<FrameInfo> frames;
};

class FlingerTest : public ::testing::Test {
 protected:
  FlingerTest() : flinger_({64, 64}) {
    flinger_.add_listener(&listener_);
    flinger_.set_obs(&sink_);
  }

  [[nodiscard]] std::uint64_t pixels_written() const {
    return sink_.counters.value("flinger.memo.pixels_written");
  }

  obs::ObsSink sink_;
  SurfaceFlinger flinger_;
  RecordingListener listener_;
};

TEST_F(FlingerTest, NoPendingFrameNoComposition) {
  flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  EXPECT_FALSE(flinger_.on_vsync(sim::Time{}));
  EXPECT_TRUE(listener_.frames.empty());
  EXPECT_EQ(flinger_.frames_composed(), 0u);
}

TEST_F(FlingerTest, ComposesPostedSurface) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  Canvas& c = s->begin_frame();
  c.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  EXPECT_TRUE(flinger_.on_vsync(sim::Time{1'000}));
  ASSERT_EQ(listener_.frames.size(), 1u);
  EXPECT_EQ(listener_.frames[0].seq, 1u);
  EXPECT_EQ(listener_.frames[0].composed_at, sim::Time{1'000});
  EXPECT_TRUE(listener_.frames[0].content_changed);
  EXPECT_EQ(listener_.frames[0].damage.bounds(), (Rect{0, 0, 8, 8}));
  EXPECT_EQ(listener_.frames[0].composed_pixels, 64);
  EXPECT_EQ(flinger_.framebuffer().at(4, 4), colors::kRed);
}

TEST_F(FlingerTest, RedundantPostComposesWithoutContentChange) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  s->begin_frame();
  s->post_frame();  // nothing drawn
  EXPECT_TRUE(flinger_.on_vsync(sim::Time{}));
  ASSERT_EQ(listener_.frames.size(), 1u);
  EXPECT_FALSE(listener_.frames[0].content_changed);
  EXPECT_EQ(listener_.frames[0].composed_pixels, 0);
  EXPECT_EQ(flinger_.content_frames(), 0u);
  EXPECT_EQ(flinger_.frames_composed(), 1u);
}

TEST_F(FlingerTest, RedrawingIdenticalPixelsIsNotAContentChange) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  // First frame paints.
  Canvas& c1 = s->begin_frame();
  c1.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  flinger_.on_vsync(sim::Time{});
  const std::uint64_t written_first = pixels_written();
  // Second frame redraws the same pixels with the same colour: the dirty
  // rect is non-empty but nothing actually changes on screen.
  Canvas& c2 = s->begin_frame();
  c2.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  flinger_.on_vsync(sim::Time{1});
  ASSERT_EQ(listener_.frames.size(), 2u);
  EXPECT_TRUE(listener_.frames[0].content_changed);
  EXPECT_FALSE(listener_.frames[1].content_changed);
  // The compare proved the rect unchanged, so nothing was written and the
  // frame carries no damage, though the app's work is still charged.
  EXPECT_EQ(pixels_written(), written_first);
  EXPECT_TRUE(listener_.frames[1].damage.empty());
  EXPECT_EQ(listener_.frames[1].composed_pixels, 64);
}

TEST_F(FlingerTest, SurfacePositionOffsetsComposition) {
  Surface* s = flinger_.create_surface("a", Rect{10, 20, 16, 16}, 0);
  Canvas& c = s->begin_frame();
  c.fill_rect(Rect{0, 0, 4, 4}, colors::kGreen);
  s->post_frame();
  flinger_.on_vsync(sim::Time{});
  EXPECT_EQ(flinger_.framebuffer().at(10, 20), colors::kGreen);
  EXPECT_EQ(flinger_.framebuffer().at(9, 19), colors::kBlack);
  EXPECT_EQ(listener_.frames[0].damage.bounds(), (Rect{10, 20, 4, 4}));
}

TEST_F(FlingerTest, ZOrderDeterminesStacking) {
  Surface* below = flinger_.create_surface("below", Rect{0, 0, 64, 64}, 0);
  Surface* above = flinger_.create_surface("above", Rect{0, 0, 64, 64}, 1);
  Canvas& cb = below->begin_frame();
  cb.fill_rect(Rect{0, 0, 16, 16}, colors::kRed);
  below->post_frame();
  Canvas& ca = above->begin_frame();
  ca.fill_rect(Rect{0, 0, 8, 8}, colors::kBlue);
  above->post_frame();
  flinger_.on_vsync(sim::Time{});
  EXPECT_EQ(flinger_.framebuffer().at(2, 2), colors::kBlue);    // above wins
  EXPECT_EQ(flinger_.framebuffer().at(12, 12), colors::kRed);   // below shows
}

TEST_F(FlingerTest, InvisibleSurfaceIgnored) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  s->set_visible(false);
  Canvas& c = s->begin_frame();
  c.fill_rect(Rect{0, 0, 8, 8}, colors::kRed);
  s->post_frame();
  EXPECT_FALSE(flinger_.on_vsync(sim::Time{}));
}

TEST_F(FlingerTest, RemoveSurfaceStopsComposition) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  s->begin_frame();
  s->post_frame();
  flinger_.remove_surface(s);
  EXPECT_FALSE(flinger_.on_vsync(sim::Time{}));
}

TEST_F(FlingerTest, FrameSeqIncrements) {
  Surface* s = flinger_.create_surface("a", Rect{0, 0, 64, 64}, 0);
  for (int i = 0; i < 3; ++i) {
    Canvas& c = s->begin_frame();
    c.fill_rect(Rect{i * 4, 0, 4, 4}, colors::kRed);
    s->post_frame();
    flinger_.on_vsync(sim::Time{i});
  }
  ASSERT_EQ(listener_.frames.size(), 3u);
  EXPECT_EQ(listener_.frames[2].seq, 3u);
  EXPECT_EQ(flinger_.content_frames(), 3u);
}

TEST_F(FlingerTest, CountsSurfacesLatched) {
  Surface* a = flinger_.create_surface("a", Rect{0, 0, 32, 32}, 0);
  Surface* b = flinger_.create_surface("b", Rect{32, 32, 32, 32}, 1);
  a->begin_frame();
  a->post_frame();
  b->begin_frame();
  b->post_frame();
  flinger_.on_vsync(sim::Time{});
  ASSERT_EQ(listener_.frames.size(), 1u);
  EXPECT_EQ(listener_.frames[0].surfaces_latched, 2);
}

/// Records which buffer each frame was delivered in.
class BufferAddressListener final : public FrameListener {
 public:
  void on_frame(const FrameInfo&, const Framebuffer& fb) override {
    buffers.push_back(&fb);
  }
  std::vector<const Framebuffer*> buffers;
};

TEST(FlingerInPlace, OneScreenBufferDeliveredToEveryListener) {
  BufferPool pool;
  SurfaceFlinger flinger({64, 64}, &pool);
  EXPECT_EQ(pool.acquires(), 1u);  // the screen buffer, nothing else

  BufferAddressListener first;
  BufferAddressListener second;
  flinger.add_listener(&first);
  flinger.add_listener(&second);
  Surface* s = flinger.create_surface("a", Rect{0, 0, 64, 64}, 0);
  for (int i = 0; i < 4; ++i) {
    s->begin_frame().fill_rect(Rect{i * 8, 0, 8, 8}, colors::kRed);
    s->post_frame();
    ASSERT_TRUE(flinger.on_vsync(sim::Time{i}));
  }
  ASSERT_EQ(first.buffers.size(), 4u);
  ASSERT_EQ(second.buffers.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first.buffers[i], &flinger.framebuffer()) << "frame " << i;
    EXPECT_EQ(second.buffers[i], &flinger.framebuffer()) << "frame " << i;
  }
}

/// Four colours, so random repaints often reproduce what is already there.
Rgb888 palette(std::int64_t i) {
  static constexpr Rgb888 kColors[] = {colors::kRed, colors::kGreen,
                                       colors::kBlue, colors::kWhite};
  return kColors[i % 4];
}

/// One seeded paint step on `s`: a frame with real changes, identical
/// repaints, re-posted unchanged pixels or an empty dirty region -- or no
/// post at all.
void paint_step(Surface* s, int step, sim::Rng& rng) {
  const auto pick = [&](int lo, int hi) {
    return static_cast<int>(rng.uniform_int(lo, hi));
  };
  const int kind = pick(0, 5);
  if (kind == 5) return;  // this surface does not post this frame
  const Size size = s->buffer().size();
  Canvas& c = s->begin_frame();
  switch (kind) {
    case 0:  // full repaint keyed to a slow epoch: often byte-identical
      c.fill(palette(step / 8));
      break;
    case 1:  // small change inside one tile
      c.fill_rect(Rect{pick(0, size.width - 6), pick(0, size.height - 6), 6, 6},
                  palette(pick(0, 3)));
      break;
    case 2:  // band across several tiles
      c.fill_rect(Rect{0, pick(0, size.height - 20), size.width, 20},
                  palette(pick(0, 3)));
      break;
    case 3:  // re-post of unchanged pixels
      c.mark_dirty(Rect{pick(0, size.width / 2), pick(0, size.height / 2),
                        size.width / 2, size.height / 2});
      break;
    default:  // empty dirty region: a redundant frame request
      break;
  }
  s->post_frame();
}

/// Composition against a reference painter that blits every latched dirty
/// rect, in z-order, into a plain framebuffer.  The screen's right and
/// bottom tiles are partial, and the overlay's offset matches no tile edge.
TEST(ComposeProperty, MatchesReferencePainter) {
  constexpr Size kScreen{200, 150};
  static_assert(kScreen.width % SurfaceFlinger::kTileSize != 0 &&
                kScreen.height % SurfaceFlinger::kTileSize != 0);
  obs::ObsSink sink;
  SurfaceFlinger flinger(kScreen);
  flinger.set_obs(&sink);
  RecordingListener listener;
  flinger.add_listener(&listener);
  Surface* app = flinger.create_surface("app", Rect::of(kScreen), 0);
  Surface* overlay = flinger.create_surface("overlay", Rect{40, 30, 90, 70}, 1);
  const Surface* const z_order[] = {app, overlay};

  Framebuffer reference(kScreen);
  sim::Rng rng(20140601);
  std::uint64_t written = 0;
  std::uint64_t skipped = 0;
  for (int step = 0; step < 300; ++step) {
    if (step % 5 == 4) {
      // Both surfaces post over one region in one frame: the app changes
      // pixels under the overlay (partly or wholly), and the overlay
      // re-posts its unchanged pixels over them.
      Canvas& c = app->begin_frame();
      c.fill_rect(step % 10 == 4 ? Rect{0, 50, 200, 30} : Rect{60, 40, 40, 40},
                  palette(step));
      app->post_frame();
      overlay->begin_frame().mark_dirty(Rect{0, 0, 90, 70});
      overlay->post_frame();
    } else {
      paint_step(app, step, rng);
      paint_step(overlay, step, rng);
    }

    const Framebuffer before = flinger.framebuffer();
    bool posted = false;
    bool differs = false;  // some latched rect differs from frame N-1
    for (const Surface* s : z_order) {
      if (!s->has_pending_frame()) continue;
      posted = true;
      const Rect at = s->screen_rect();
      for (const Rect& r : s->pending_dirty_region().rects()) {
        const Rect on_screen = r.translated(at.x, at.y).intersect(
            Rect::of(kScreen));
        for (int y = on_screen.y; y < on_screen.bottom(); ++y) {
          for (int x = on_screen.x; x < on_screen.right(); ++x) {
            differs |= s->buffer().at(x - at.x, y - at.y) != before.at(x, y);
          }
        }
        reference.blit(s->buffer(), r, Point{at.x + r.x, at.y + r.y});
      }
    }

    ASSERT_EQ(flinger.on_vsync(sim::Time{step}), posted) << "step " << step;
    if (!posted) continue;
    const FrameInfo& info = listener.frames.back();
    const Framebuffer& front = flinger.framebuffer();
    ASSERT_TRUE(front.equals(reference)) << "step " << step;
    for (int y = 0; y < kScreen.height; ++y) {
      for (int x = 0; x < kScreen.width; ++x) {
        if (front.at(x, y) != before.at(x, y)) {
          ASSERT_TRUE(info.damage.contains(Point{x, y}))
              << "step " << step << " px " << x << "," << y;
        }
      }
    }
    ASSERT_EQ(info.content_changed, differs) << "step " << step;
    const std::uint64_t w = sink.counters.value("flinger.memo.pixels_written");
    const std::uint64_t k = sink.counters.value("flinger.memo.pixels_skipped");
    ASSERT_EQ((w - written) + (k - skipped),
              static_cast<std::uint64_t>(info.composed_pixels))
        << "step " << step;
    written = w;
    skipped = k;
  }
  EXPECT_GT(written, 0u);
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace ccdem::gfx
