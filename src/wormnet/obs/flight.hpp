// The flight recorder: a fixed-capacity ring buffer of channel-level
// lifecycle events inside the Simulator, cheap enough to leave on by default.
//
// The recorder is one of the two sinks of the simulator's single event
// stream (obs/trace.hpp): sinks_of() routes the flight-bound kinds here, and
// record() projects each TraceEvent into a compact 24-byte record.  Unlike a
// TraceSink (a virtual call plus serialization per event), the recorder
// keeps only the most recent `capacity` records in a preallocated ring:
// recording is a bounds-free store + two counter increments, there is no
// allocation after construction, and nothing is rendered until a postmortem
// asks for the tail.  Drops by ring wraparound are counted, never silent
// (SimStats::flight_events_dropped).
//
// Determinism contract (DESIGN 3.9): recording is driven exclusively by the
// simulator's own deterministic event order and cycle counter — no wall
// clock, no thread ids — so the recorded sequence is bit-identical across
// runs, hosts, and any `--threads` value of the sweep engine (each sweep
// point owns a private recorder).
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/obs/trace.hpp"

namespace wormnet::obs {

/// One compact record.  `aux` carries the kind-specific extra: the input
/// channel for an acquire (kVcAlloc), the node for a wait (kBlock), the
/// fault epoch for kFault/kRepair/kWaitVoid, the attempt count for
/// kAbort/kRetry, the knot size of a deadlock or the blocked-packet count
/// of a watchdog trip, the transition epoch for kSwitch/kRollback/
/// kDrainSwitch.  Unused ids stay kNone.
struct FlightEvent {
  static constexpr std::uint32_t kNone = kNoId;

  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kVcAlloc;
  bool flag = false;  ///< TraceEvent::flag (marks a watchdog trip)
  std::uint32_t packet = kNone;
  std::uint32_t channel = kNone;
  std::uint32_t aux = kNone;
};
static_assert(sizeof(FlightEvent) == 24, "flight records stay compact");

/// The record's name in postmortems: "acquire", "release", "wait",
/// "wait_void", "fault", "repair", "abort", "retry", "drop", "deadlock",
/// "watchdog", "switch", "rollback" or "drain-switch".
[[nodiscard]] const char* flight_name(const FlightEvent& ev) noexcept;

class FlightRecorder {
 public:
  /// `capacity` of 0 disables the recorder entirely (record() still safe).
  explicit FlightRecorder(std::size_t capacity);

  /// Projects a flight-bound event into the ring: one record per channel
  /// for fault/repair epochs, one record otherwise.
  void record(const TraceEvent& ev) noexcept {
    if (ring_.empty()) return;
    const auto value = static_cast<std::uint32_t>(ev.value);
    switch (ev.kind) {
      case EventKind::kFault:
      case EventKind::kRepair:  // aux = epoch
        for (const std::uint32_t c : ev.list) {
          store({ev.cycle, ev.kind, false, kNoId, c, value});
        }
        return;
      case EventKind::kVcAlloc:  // acquired channel, aux = input channel
        store({ev.cycle, ev.kind, false, ev.packet, ev.channel, ev.channel2});
        return;
      case EventKind::kBlock:  // input channel, aux = node
        store({ev.cycle, ev.kind, false, ev.packet, ev.channel2, ev.node});
        return;
      case EventKind::kRelease:
      case EventKind::kDrop:
        store({ev.cycle, ev.kind, false, ev.packet, ev.channel, kNoId});
        return;
      default:  // aux = value: epoch, attempt, knot size or blocked count
        store({ev.cycle, ev.kind, ev.flag, ev.packet, ev.channel, value});
        return;
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Records ever stored (including those since overwritten).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Records lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// The retained records in chronological order (oldest first).
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// The most recent `n` records in chronological order.
  [[nodiscard]] std::vector<FlightEvent> tail(std::size_t n) const;

  void clear() noexcept;

 private:
  void store(const FlightEvent& event) noexcept {
    ring_[next_] = event;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
    ++recorded_;
  }

  std::vector<FlightEvent> ring_;
  std::size_t next_ = 0;  ///< slot the next record lands in
  std::size_t size_ = 0;  ///< retained records (<= capacity)
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace wormnet::obs
