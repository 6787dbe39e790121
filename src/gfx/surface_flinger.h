// SurfaceFlinger: the Surface Manager of the simulated Android stack.
//
// On every V-Sync it latches pending surface frames (if any) and composes
// them in place into the one screen framebuffer, then notifies frame
// listeners -- the content-rate meter and the power model hang off this
// notification.  The composition is dirty-region based, matching how a real
// compositor avoids recopying unchanged pixels: each latched dirty rect is
// walked in screen tiles, every piece is compared with the screen, and only
// the pieces that differ are copied.  The same compare gives experiments
// pixel-true ground truth for "meaningful vs redundant frame" and an exact
// damage region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gfx/framebuffer.h"
#include "gfx/geometry.h"
#include "gfx/region.h"
#include "gfx/surface.h"
#include "obs/obs.h"
#include "sim/time.h"

namespace ccdem::gfx {

/// Metadata for one composed frame, delivered to FrameListeners.
struct FrameInfo {
  std::uint64_t seq = 0;        ///< monotonically increasing frame number
  sim::Time composed_at{};      ///< V-Sync timestamp of the composition
  /// The exact composed damage (screen space, disjoint rects): the pieces
  /// of the latched dirty rects whose pixels were written.  Contract: every
  /// pixel that differs from the previous frame lies inside it -- the
  /// flinger composes in place and these rects are its only writes to the
  /// screen, so pixels outside the damage are byte-identical to frame N-1.
  /// Listeners (the content-rate meter) rely on this to scope their work to
  /// the damage.
  Region damage;
  /// Ground truth: some latched dirty pixel differs from frame N-1 at its
  /// screen position.
  bool content_changed = false;
  /// Logical composition work: the area of every latched dirty rect
  /// (clipped to the screen), whether its pixels were written or found
  /// unchanged and skipped.
  std::int64_t composed_pixels = 0;
  int surfaces_latched = 0;     ///< surfaces that had a pending frame
};

class FrameListener {
 public:
  virtual ~FrameListener() = default;
  /// Called after the framebuffer has been updated for this frame.  `fb` is
  /// the flinger's screen buffer and is valid only during the call: the
  /// next composition overwrites it in place, so a listener that needs the
  /// previous frame later keeps its own copy.
  virtual void on_frame(const FrameInfo& info, const Framebuffer& fb) = 0;
};

class SurfaceFlinger {
 public:
  /// Composition walks every latched dirty rect in kTileSize x kTileSize
  /// screen tiles and writes only the pieces that differ from the screen,
  /// so the tile grid sets the geometry of FrameInfo::damage.
  static constexpr int kTileSize = 64;

  /// `pool` (optional) recycles pixel storage for the screen buffer and
  /// every surface created through create_surface; it must outlive the
  /// flinger.
  explicit SurfaceFlinger(Size screen, BufferPool* pool = nullptr);

  SurfaceFlinger(const SurfaceFlinger&) = delete;
  SurfaceFlinger& operator=(const SurfaceFlinger&) = delete;

  /// Creates a surface; the flinger keeps ownership, callers get a stable
  /// pointer valid for the flinger's lifetime.
  Surface* create_surface(std::string name, Rect screen_rect, int z_order);
  void remove_surface(Surface* s);

  void add_listener(FrameListener* l) { listeners_.push_back(l); }

  /// Composes pending surface frames, if any.  Returns true if a frame was
  /// produced (i.e. at least one surface had posted).  Called at V-Sync.
  bool on_vsync(sim::Time t);

  /// The frame currently on screen: the one buffer the flinger composes
  /// into and hands to every listener.
  [[nodiscard]] const Framebuffer& framebuffer() const { return screen_fb_; }
  [[nodiscard]] Size screen_size() const { return screen_; }
  [[nodiscard]] std::uint64_t frames_composed() const { return frame_seq_; }
  [[nodiscard]] std::uint64_t content_frames() const {
    return content_frames_;
  }

  /// Attaches an observability sink (may be null to detach).  Registers the
  /// flinger's counters and emits a compose span per composed frame.
  void set_obs(obs::ObsSink* obs);

 private:
  Size screen_;
  BufferPool* pool_;
  Framebuffer screen_fb_;
  std::vector<std::unique_ptr<Surface>> surfaces_;  // kept sorted by z-order
  std::vector<FrameListener*> listeners_;
  std::uint64_t frame_seq_ = 0;
  std::uint64_t content_frames_ = 0;

  obs::ObsSink* obs_ = nullptr;
  std::uint64_t* ctr_frames_ = nullptr;
  std::uint64_t* ctr_content_ = nullptr;
  std::uint64_t* ctr_redundant_ = nullptr;
  std::uint64_t* ctr_pixels_ = nullptr;
  std::uint64_t* ctr_latched_ = nullptr;
  std::uint64_t* ctr_written_ = nullptr;
  std::uint64_t* ctr_skipped_ = nullptr;
};

}  // namespace ccdem::gfx
