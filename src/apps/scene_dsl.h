// ccdem-scene-v1: the scene DSL.
//
// A strict key=value text form (the shared sim/key_value.h grammar, as in
// the Scenario format, with exact round-trip through the canonical
// serialization) for the two DSL-described scenes:
//
//   schema = ccdem-scene-v1          schema = ccdem-scene-v1
//   type = ui                        type = burst_video
//   idle_timeout_ms = 3000           gap_ms = 900
//   marquee_px = 6                   burst_frames = 12
//   state = menu dwell_ms=900 fps=6 next=2 touch=3
//   state = dialog dwell_ms=600 fps=12 next=0 touch=-1
//                                    burst_fps = 30
//                                    motion = 1,3,0,2
//
// `state` lines are ordered (state 0 is initial) and each carries all four
// attributes; kinds are idle/menu/scroll/slide/marquee/dialog.  Scenario
// embeds this block verbatim between begin_scene/end_scene markers, so the
// grammar deliberately has no line that could collide with those.
#pragma once

#include <optional>
#include <string>

#include "apps/scene.h"

namespace ccdem::apps {

/// Canonical text for a kUi or kBurstVideo spec (ends with '\n').  Other
/// scene types have no DSL form and yield an empty string.
[[nodiscard]] std::string scene_spec_to_string(const SceneSpec& spec);

/// Strict parse; on failure returns nullopt and (if non-null) sets *error.
/// parse(to_string(s)) == s for every spec that to_string accepts.
[[nodiscard]] std::optional<SceneSpec> scene_spec_from_string(
    const std::string& text, std::string* error = nullptr);

}  // namespace ccdem::apps
