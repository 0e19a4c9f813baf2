#include "wormnet/obs/flight.hpp"

namespace wormnet::obs {

const char* flight_name(const FlightEvent& ev) noexcept {
  switch (ev.kind) {
    case EventKind::kVcAlloc: return "acquire";
    case EventKind::kBlock: return "wait";
    case EventKind::kDeadlockDetected: return ev.flag ? "watchdog" : "deadlock";
    case EventKind::kDrainSwitch: return "drain-switch";
    default: return to_string(ev.kind);
  }
}

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(size_);
  // When the ring has wrapped, the oldest retained event sits at next_.
  const std::size_t start = size_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  std::vector<FlightEvent> all = snapshot();
  if (all.size() <= n) return all;
  return std::vector<FlightEvent>(all.end() - static_cast<std::ptrdiff_t>(n),
                                  all.end());
}

void FlightRecorder::clear() noexcept {
  next_ = 0;
  size_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

}  // namespace wormnet::obs
