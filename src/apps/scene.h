// Scene: what an application draws.
//
// A scene owns the *content timeline* of an app -- the thing the paper's
// content rate measures.  `render` is called whenever the app model decides
// to produce a frame; the scene draws only if its content actually advanced
// since the last render and reports whether it touched any pixels.  An app
// that renders faster than its content evolves therefore posts redundant
// frames, exactly the waste pattern of Fig. 2/3.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gfx/canvas.h"
#include "input/touch_event.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ccdem::apps {

class Scene {
 public:
  virtual ~Scene() = default;

  /// Paints the initial full-screen content.  Called once, before the first
  /// render, with the surface canvas.
  virtual void init(gfx::Canvas& canvas) = 0;

  /// Produces the frame for time `t`.  Returns true iff pixels changed.
  virtual bool render(gfx::Canvas& canvas, sim::Time t) = 0;

  /// Input reaches the scene directly (scroll impulses, game actions).
  virtual void on_touch(const input::TouchEvent&) {}

  /// The scene's own content rate at `t` (fps) -- the rate at which it
  /// *would* change pixels given unlimited rendering.  Used by workload
  /// tests; the meter never reads this.
  [[nodiscard]] virtual double nominal_content_fps(sim::Time t) const = 0;
};

/// One state of a UiScene state machine (the ccdem-scene-v1 DSL, see
/// apps/scene_dsl.h).  Transitions fire on a dwell timer (`next`) and on
/// touch (`touch_next`); the scene-wide interaction timeout returns the
/// machine to state 0.
struct UiState {
  enum class Kind { kIdle, kMenu, kScroll, kSlide, kMarquee, kDialog };
  Kind kind = Kind::kIdle;
  std::int64_t dwell_ms = 1000;  ///< 0 disables the timed transition
  double anim_fps = 8.0;         ///< per-state animation rate
  int next = 0;                  ///< state entered when dwell expires
  int touch_next = -1;           ///< state entered on touch-down (-1 = none)
  [[nodiscard]] bool operator==(const UiState&) const = default;
};

/// State graph + scene-wide knobs for UiScene.  State 0 is the initial
/// (and idle-timeout) state; `states` is never empty.
struct UiSceneSpec {
  std::vector<UiState> states{UiState{}};
  std::int64_t idle_timeout_ms = 3000;  ///< 0 disables timeout-to-state-0
  int marquee_px = 6;  ///< marquee band height; 1 px is the Fig. 6 case
  [[nodiscard]] bool operator==(const UiSceneSpec&) const = default;
};

/// Long static gaps punctuated by frame bursts (the BurstLink shape), with
/// EVSO-style per-segment motion levels: `motion[seg % motion.size()]` is
/// how many blocks move per burst frame (0 = the segment only changes its
/// backdrop once).
struct BurstVideoSpec {
  std::int64_t gap_ms = 900;   ///< static gap between bursts
  int burst_frames = 12;       ///< frames per burst
  double burst_fps = 30.0;     ///< decode rate inside a burst
  std::vector<int> motion{2};  ///< per-segment motion level, 0..3, cycled
  [[nodiscard]] bool operator==(const BurstVideoSpec&) const = default;
};

/// Flat description of a scene; the factory turns it into a Scene instance.
struct SceneSpec {
  enum class Type {
    kStaticUi,
    kVideo,
    kGame,
    kWallpaper,
    kTyping,
    kMap,
    kUi,
    kBurstVideo
  };
  Type type = Type::kStaticUi;

  // --- kStaticUi: browse/feed UI with an ad ticker and touch scrolling ---
  double idle_content_fps = 1.0;   ///< spontaneous changes (ad/widget ticks)
  int scroll_px_per_frame = 40;    ///< scroll consumed per rendered frame
  int scroll_px_per_move = 14;     ///< scroll queued per touch-move event
  int fling_px = 160;              ///< extra scroll queued on touch-up

  // --- kVideo: full-width video region updating at the video frame rate ---
  double video_fps = 24.0;
  /// The synthetic clip loops after this many decoded frames (0 = never):
  /// past one loop every frame is an exact repeat of a frame one period ago
  /// (video loops, trailer autoplay).
  int video_loop_frames = 96;
  /// Decoded frames per "cut": the gradient backdrop only changes when the
  /// cut index changes, so consecutive frames inside a cut share most rows
  /// -- the inter-frame coherence real codecs exhibit (and the compositor's
  /// compare skips); the moving blocks still change every frame.
  int video_cut_frames = 12;

  // --- kGame: sprites over a static background; logic ticks at content fps
  double game_content_fps = 20.0;
  double touch_content_boost_fps = 12.0;  ///< extra logic rate while touched
  double touch_boost_hold_s = 0.8;
  int sprite_count = 8;
  int sprite_radius = 44;

  // --- kWallpaper: small moving dots (the Fig. 6 adversarial workload) ---
  double wallpaper_fps = 20.0;
  int dot_count = 3;
  int dot_radius = 4;

  // --- kTyping: messenger with cursor blink, keystrokes, message bubbles ---
  double cursor_blink_fps = 2.0;
  double incoming_msg_period_s = 8.0;

  // --- kUi / kBurstVideo: DSL-described scenes (apps/scene_dsl.h) ---
  UiSceneSpec ui{};
  BurstVideoSpec burst{};

  static SceneSpec static_ui(double idle_content_fps) {
    SceneSpec s;
    s.type = Type::kStaticUi;
    s.idle_content_fps = idle_content_fps;
    return s;
  }
  static SceneSpec video(double fps) {
    SceneSpec s;
    s.type = Type::kVideo;
    s.video_fps = fps;
    return s;
  }
  static SceneSpec game(double content_fps, int sprites = 8,
                        double touch_boost_fps = 12.0) {
    SceneSpec s;
    s.type = Type::kGame;
    s.game_content_fps = content_fps;
    s.sprite_count = sprites;
    s.touch_content_boost_fps = touch_boost_fps;
    return s;
  }
  static SceneSpec wallpaper(int dots, int dot_radius, double fps = 20.0) {
    SceneSpec s;
    s.type = Type::kWallpaper;
    s.dot_count = dots;
    s.dot_radius = dot_radius;
    s.wallpaper_fps = fps;
    return s;
  }
  static SceneSpec typing(double cursor_blink_fps = 2.0,
                          double incoming_msg_period_s = 8.0) {
    SceneSpec s;
    s.type = Type::kTyping;
    s.cursor_blink_fps = cursor_blink_fps;
    s.incoming_msg_period_s = incoming_msg_period_s;
    return s;
  }
  /// 2-D panning map; `marker_pulse_fps` drives the idle position marker.
  static SceneSpec map(double marker_pulse_fps = 1.0) {
    SceneSpec s;
    s.type = Type::kMap;
    s.idle_content_fps = marker_pulse_fps;
    return s;
  }
  static SceneSpec ui_machine(UiSceneSpec spec) {
    SceneSpec s;
    s.type = Type::kUi;
    s.ui = std::move(spec);
    return s;
  }
  static SceneSpec burst_video(BurstVideoSpec spec) {
    SceneSpec s;
    s.type = Type::kBurstVideo;
    s.burst = std::move(spec);
    return s;
  }
};

/// Builds a scene for a surface-sized canvas.  `rng` seeds per-scene
/// variation (sprite paths, feed content).
[[nodiscard]] std::unique_ptr<Scene> make_scene(const SceneSpec& spec,
                                                gfx::Size surface_size,
                                                sim::Rng rng);

}  // namespace ccdem::apps
