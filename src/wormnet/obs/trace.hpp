// The simulator's event vocabulary and its trace sinks.
//
// Every state change the simulator reports is one flat `TraceEvent`, passed
// once to the simulator's single emit call.  A fixed per-kind table
// (sinks_of) sends it to the flight recorder's ring (obs/flight.hpp), to the
// attached `TraceSink`, or to both; an event no sink takes costs a few
// branches, and the traced run is behaviour-identical to the untraced one
// (instrumentation never touches RNG state or arbitration).
//
// Trace sinks:
//   * JsonlTraceSink  — one JSON object per line; grep/jq-friendly, and the
//     format the golden-file tests pin down.
//   * ChromeTraceSink — Chrome trace_event JSON; open the file directly in
//     chrome://tracing or https://ui.perfetto.dev.  Packets render as async
//     spans (creation -> delivery) with nested "blocked" spans; flit hops and
//     allocator decisions render as instants on per-channel tracks.
//   * MemoryTraceSink — bounded in-memory ring, for tests and post-mortems
//     (deadlock_autopsy reconstructs wait cycles from it).
//   * NullTraceSink   — discards everything; measures pure emission overhead.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace wormnet::obs {

inline constexpr std::uint32_t kNoId = 0xffffffffu;

enum class EventKind : std::uint8_t {
  kPacketCreate,      ///< packet entered its source queue
  kInject,            ///< head flit entered the network
  kRouteCompute,      ///< header computed its candidate set at a hop
  kVcAlloc,           ///< header acquired a virtual channel
  kLinkTraverse,      ///< one flit crossed a physical link
  kBlock,             ///< header transitioned to blocked
  kUnblock,           ///< previously blocked header acquired a channel
  kEject,             ///< one flit consumed at its destination
  kPacketDone,        ///< tail flit consumed; packet complete
  kDeadlockCheck,     ///< periodic wait-for-graph probe ran
  kDeadlockDetected,  ///< wait-for cycle (or watchdog) fired
  kFault,             ///< fault epoch: channels transitioned to faulty
  kRepair,            ///< channels transitioned back to healthy
  kAbort,             ///< victim packet aborted (recovery)
  kRetry,             ///< aborted packet re-entered its source queue
  kRecovered,         ///< packet delivered after at least one abort
  kSwitch,            ///< reconfig epoch: destinations cut over to a new
                      ///< routing version
  kRollback,          ///< guard reverted migrated destinations to the base
  kDrainSwitch,       ///< guard drained the network, then applied the
                      ///< steady state through it
  kRelease,           ///< tail flit left a channel (or an abort cleared it)
  kWaitVoid,          ///< a committed wait was voided (channel died, or the
                      ///< destination switched relation)
  kDrop,              ///< packet gave up (retry budget spent, drain refusal)
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// Which sinks take an event kind.
struct EventSinks {
  bool trace;   ///< the attached TraceSink (JSONL, Chrome, memory, ...)
  bool flight;  ///< the flight recorder's ring
};

/// The fixed routing table.  Packet and flit narration is trace-only (too
/// hot for an always-on ring); release, voided waits and drops are
/// flight-only channel bookkeeping; the rest feed both.
[[nodiscard]] constexpr EventSinks sinks_of(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kPacketCreate:
    case EventKind::kInject:
    case EventKind::kRouteCompute:
    case EventKind::kLinkTraverse:
    case EventKind::kUnblock:
    case EventKind::kEject:
    case EventKind::kPacketDone:
    case EventKind::kDeadlockCheck:
    case EventKind::kRecovered:
      return {true, false};
    case EventKind::kRelease:
    case EventKind::kWaitVoid:
    case EventKind::kDrop:
      return {false, true};
    case EventKind::kVcAlloc:
    case EventKind::kBlock:
    case EventKind::kDeadlockDetected:
    case EventKind::kFault:
    case EventKind::kRepair:
    case EventKind::kAbort:
    case EventKind::kRetry:
    case EventKind::kSwitch:
    case EventKind::kRollback:
    case EventKind::kDrainSwitch:
      return {true, true};
  }
  return {true, true};
}

/// One flat record.  Field meaning varies per kind (see JsonlTraceSink for
/// the authoritative field mapping, FlightRecorder::record for the flight
/// projection); unused ids stay kNoId.
struct TraceEvent {
  EventKind kind = EventKind::kPacketCreate;
  std::uint64_t cycle = 0;
  std::uint32_t packet = kNoId;
  std::uint32_t node = kNoId;      ///< node where the event happened
  std::uint32_t node2 = kNoId;     ///< secondary node (packet destination)
  std::uint32_t channel = kNoId;   ///< primary channel (acquired / moved to)
  std::uint32_t channel2 = kNoId;  ///< secondary channel (input / moved from)
  std::uint64_t value = 0;         ///< length, candidate count, latency, ...
  bool flag = false;               ///< head flit / watchdog / retry
  bool flag2 = false;              ///< tail flit
  /// Rare-event payload (waiting channel set, deadlock packet cycle); kept
  /// empty on hot-path events so emission stays allocation-free.
  std::vector<std::uint32_t> list;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// One compact JSON object per event, newline-terminated.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& os) : os_(os) {}
  void emit(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& os_;
};

/// Chrome trace_event ("Trace Event Format") JSON for chrome://tracing and
/// Perfetto.  Cycles map to microseconds of trace time.
class ChromeTraceSink final : public TraceSink {
 public:
  /// `channel_names[c]`, when provided, names the per-channel tracks.
  explicit ChromeTraceSink(std::ostream& os,
                           std::vector<std::string> channel_names = {});
  ~ChromeTraceSink() override;

  void emit(const TraceEvent& event) override;
  void flush() override;

 private:
  void preamble();
  void event_prefix(const char* phase, const std::string& name,
                    const char* category, std::uint64_t ts, std::uint32_t tid);

  std::ostream& os_;
  std::vector<std::string> channel_names_;
  std::unordered_map<std::uint32_t, std::string> packet_labels_;
  bool first_ = true;
  bool closed_ = false;
};

/// Keeps the most recent `capacity` events in memory.
class MemoryTraceSink final : public TraceSink {
 public:
  explicit MemoryTraceSink(std::size_t capacity = static_cast<std::size_t>(-1))
      : capacity_(capacity) {}

  void emit(const TraceEvent& event) override;

  [[nodiscard]] const std::deque<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t total_emitted() const noexcept {
    return total_emitted_;
  }
  void clear();

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t total_emitted_ = 0;
};

/// Counts and discards; isolates the emission overhead itself.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent&) override { ++count_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace wormnet::obs
