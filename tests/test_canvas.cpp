#include "gfx/canvas.h"

#include <gtest/gtest.h>

namespace ccdem::gfx {
namespace {

class CanvasTest : public ::testing::Test {
 protected:
  Framebuffer fb_{32, 32};
  Canvas canvas_{fb_};
};

TEST_F(CanvasTest, StartsClean) {
  EXPECT_TRUE(canvas_.dirty().empty());
}

TEST_F(CanvasTest, FillMarksWholeBufferDirty) {
  canvas_.fill(colors::kRed);
  EXPECT_EQ(canvas_.dirty(), fb_.bounds());
  EXPECT_EQ(fb_.at(31, 31), colors::kRed);
}

TEST_F(CanvasTest, FillRectMarksDirty) {
  canvas_.fill_rect(Rect{4, 4, 8, 8}, colors::kBlue);
  EXPECT_EQ(canvas_.dirty(), (Rect{4, 4, 8, 8}));
}

TEST_F(CanvasTest, DirtyAccumulatesAcrossCalls) {
  canvas_.fill_rect(Rect{0, 0, 2, 2}, colors::kBlue);
  canvas_.fill_rect(Rect{10, 10, 2, 2}, colors::kRed);
  EXPECT_EQ(canvas_.dirty(), (Rect{0, 0, 12, 12}));
}

TEST_F(CanvasTest, TakeDirtyResets) {
  canvas_.fill_rect(Rect{1, 1, 2, 2}, colors::kBlue);
  EXPECT_EQ(canvas_.take_dirty(), (Rect{1, 1, 2, 2}));
  EXPECT_TRUE(canvas_.dirty().empty());
}

TEST_F(CanvasTest, DirtyClipsToBounds) {
  canvas_.fill_rect(Rect{30, 30, 10, 10}, colors::kBlue);
  EXPECT_EQ(canvas_.dirty(), (Rect{30, 30, 2, 2}));
}

TEST_F(CanvasTest, DrawCirclePaintsInterior) {
  canvas_.draw_circle({16, 16}, 5, colors::kGreen);
  EXPECT_EQ(fb_.at(16, 16), colors::kGreen);
  EXPECT_EQ(fb_.at(16, 20), colors::kGreen);   // inside, at edge
  EXPECT_EQ(fb_.at(16 + 4, 16 + 4), colors::kBlack);  // corner outside
  EXPECT_FALSE(canvas_.dirty().empty());
}

TEST_F(CanvasTest, DrawCircleClipsAtEdge) {
  canvas_.draw_circle({0, 0}, 5, colors::kGreen);
  EXPECT_EQ(fb_.at(0, 0), colors::kGreen);
}

TEST_F(CanvasTest, DrawCircleZeroRadiusIsNoop) {
  canvas_.draw_circle({5, 5}, 0, colors::kGreen);
  EXPECT_TRUE(canvas_.dirty().empty());
}

TEST_F(CanvasTest, GradientEndpointsMatch) {
  canvas_.fill_gradient(Rect{0, 0, 32, 32}, colors::kBlack, colors::kWhite);
  EXPECT_EQ(fb_.at(0, 0), colors::kBlack);
  EXPECT_EQ(fb_.at(0, 31), colors::kWhite);
  EXPECT_GT(fb_.at(0, 16).luma(), fb_.at(0, 4).luma());
}

TEST_F(CanvasTest, TextBlockVariesWithSeed) {
  canvas_.draw_text_block(Rect{0, 0, 32, 32}, colors::kWhite,
                          colors::kBlack, 1u);
  const auto hash1 = fb_.fast_hash();
  canvas_.draw_text_block(Rect{0, 0, 32, 32}, colors::kWhite,
                          colors::kBlack, 2u);
  EXPECT_NE(hash1, fb_.fast_hash());
}

TEST_F(CanvasTest, TextBlockDeterministicForSeed) {
  canvas_.draw_text_block(Rect{0, 0, 32, 32}, colors::kWhite,
                          colors::kBlack, 7u);
  const auto hash1 = fb_.fast_hash();
  canvas_.fill(colors::kRed);
  canvas_.draw_text_block(Rect{0, 0, 32, 32}, colors::kWhite,
                          colors::kBlack, 7u);
  EXPECT_EQ(hash1, fb_.fast_hash());
}

TEST_F(CanvasTest, Lines) {
  canvas_.draw_hline(2, 10, 5, colors::kRed);
  canvas_.draw_vline(3, 2, 10, colors::kBlue);
  EXPECT_EQ(fb_.at(7, 5), colors::kRed);
  EXPECT_EQ(fb_.at(3, 7), colors::kBlue);
}

TEST_F(CanvasTest, FrameLeavesInteriorUntouched) {
  canvas_.draw_frame(Rect{4, 4, 10, 10}, 2, colors::kYellow);
  EXPECT_EQ(fb_.at(4, 4), colors::kYellow);
  EXPECT_EQ(fb_.at(9, 9), colors::kBlack);
}

TEST_F(CanvasTest, ScrollUpTracksDirty) {
  fb_.fill_rect(Rect{0, 10, 32, 1}, colors::kRed);
  canvas_.scroll_up(Rect{0, 0, 32, 32}, 4);
  EXPECT_EQ(fb_.at(0, 6), colors::kRed);
  EXPECT_EQ(canvas_.dirty(), fb_.bounds());
}

TEST_F(CanvasTest, BlitMarksDestination) {
  Framebuffer src(8, 8, colors::kGreen);
  canvas_.blit(src, Rect{0, 0, 8, 8}, Point{10, 10});
  EXPECT_EQ(fb_.at(12, 12), colors::kGreen);
  EXPECT_EQ(canvas_.dirty(), (Rect{10, 10, 8, 8}));
}

}  // namespace
}  // namespace ccdem::gfx
