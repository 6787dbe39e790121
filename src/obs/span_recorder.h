// SpanRecorder: per-frame phase spans on the simulated timeline.
//
// A span is one phase of one frame -- compose, meter, govern, panel-present
// -- stamped with its simulation begin time and modeled duration plus a
// free-form integer argument (pixels composed, samples compared, target Hz).
// Spans land in a fixed-capacity ring buffer that grows as it records, so a
// recorder that records few spans (or none: disabled sinks) holds few.  Once
// the ring is full, recording stops allocating, and a long run simply keeps
// the most recent window (dropped() says how much history fell off the
// front).
//
// Recording compiles out entirely when CCDEM_OBS_SPANS=0 (see obs/obs.h for
// the call-site macro): record() becomes an empty inline and enabled() is a
// compile-time false, so the disabled build carries no branch, no store and
// no ring buffer traffic.  With spans compiled in, a recorder can still be
// disabled at runtime (set_enabled(false)) -- FleetRunner does this for its
// workers, whose span streams nobody reads.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/time.h"

#ifndef CCDEM_OBS_SPANS
#define CCDEM_OBS_SPANS 1
#endif

namespace ccdem::obs {

/// The per-frame phases the simulated device stamps.
enum class Phase : std::uint8_t {
  kCompose = 0,       ///< SurfaceFlinger latches + composes at V-Sync
  kMeter = 1,         ///< content-rate meter grid comparison
  kGovern = 2,        ///< controller evaluation tick (DPM or governor)
  kPanelPresent = 3,  ///< panel scans out a composed frame
  kRecover = 4,       ///< self-healing action (retry, fallback, safe mode)
  kArbiter = 5,       ///< policy-pipeline arbitration (one per evaluation)
  kDegrade = 6,       ///< degradation-ladder rung change (arg = new rung)
};
inline constexpr int kPhaseCount = 7;

[[nodiscard]] const char* phase_name(Phase p);
[[nodiscard]] std::optional<Phase> phase_from_name(std::string_view name);

struct Span {
  sim::Time begin{};       ///< simulation time the phase started
  sim::Duration dur{};     ///< modeled duration (0 for instantaneous phases)
  std::uint64_t frame = 0; ///< frame sequence number (or evaluation index)
  std::int64_t arg = 0;    ///< phase-specific payload (pixels, Hz, ...)
  Phase phase = Phase::kCompose;

  [[nodiscard]] bool operator==(const Span&) const = default;
};

class SpanRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit SpanRecorder(std::size_t capacity = kDefaultCapacity);

  /// True when span support is compiled into this build at all.
  [[nodiscard]] static constexpr bool compiled_in() {
    return CCDEM_OBS_SPANS != 0;
  }

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return compiled_in() && enabled_; }

#if CCDEM_OBS_SPANS
  void record(Phase phase, sim::Time begin, sim::Duration dur,
              std::uint64_t frame, std::int64_t arg) {
    if (!enabled_) return;
    const Span s{begin, dur, frame, arg, phase};
    if (ring_.size() < capacity_) {
      ring_.push_back(s);  // growing: the oldest span stays at head_ == 0
    } else {
      ring_[head_] = s;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    ++recorded_;
  }
#else
  void record(Phase, sim::Time, sim::Duration, std::uint64_t, std::int64_t) {}
#endif

  /// The retained spans, oldest first (at most capacity() of them).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Spans ever recorded / spans that fell off the ring.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - ring_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drops every retained span and resets the counts.
  void clear();

 private:
  std::size_t capacity_;
  std::vector<Span> ring_;     // grows to capacity_, then wraps
  std::size_t head_ = 0;       // oldest span; next write once full
  std::uint64_t recorded_ = 0;
  bool enabled_ = true;
};

}  // namespace ccdem::obs
