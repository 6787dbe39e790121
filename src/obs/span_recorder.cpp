#include "obs/span_recorder.h"

#include <cassert>

namespace ccdem::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kCompose: return "compose";
    case Phase::kMeter: return "meter";
    case Phase::kGovern: return "govern";
    case Phase::kPanelPresent: return "panel_present";
    case Phase::kRecover: return "recover";
    case Phase::kArbiter: return "arbiter";
    case Phase::kDegrade: return "degrade";
  }
  return "unknown";
}

std::optional<Phase> phase_from_name(std::string_view name) {
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (name == phase_name(p)) return p;
  }
  return std::nullopt;
}

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::vector<Span> SpanRecorder::spans() const {
  // The oldest retained span sits at head_ (0 until the ring has wrapped).
  std::vector<Span> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void SpanRecorder::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
}

}  // namespace ccdem::obs
