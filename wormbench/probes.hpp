// Outside-in instrumentation for the wormnet benchmark.
//
// Everything here observes the library through its public extension points
// only: a forwarding RoutingFunction handed to sim::Simulator, a TraceSink
// passed via SimConfig::trace, and spans the benchmark records around the
// calls it makes itself.  Nothing inside the library is changed or patched.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "wormnet/obs/json.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/routing/routing_function.hpp"

namespace wormbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak of the bytes held by live operator new allocations since the last
/// reset_peak_heap() (or the start of the process), counted by the
/// replacement operators in heap_count.cpp.  Unlike the resident set, it
/// does not depend on how the OS pages memory.
std::size_t peak_heap_bytes();
/// Restarts the peak from the bytes live now.
void reset_peak_heap();

/// Forwards every call to `inner` and counts (and times) the two calls the
/// simulator's allocator makes per header attempt: route_into() and
/// waiting().  route() is forwarded and counted with route_into(), since a
/// caller may use either form for a route computation.  Not thread-safe:
/// one instance serves one single-threaded Simulator.
class CountingRouting final : public wormnet::routing::RoutingFunction {
 public:
  explicit CountingRouting(const RoutingFunction& inner)
      : RoutingFunction(inner.topo()), inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] wormnet::routing::RelationForm form() const override {
    return inner_.form();
  }
  [[nodiscard]] wormnet::routing::WaitMode wait_mode() const override {
    return inner_.wait_mode();
  }
  [[nodiscard]] bool minimal() const override { return inner_.minimal(); }

  [[nodiscard]] wormnet::routing::ChannelSet route(
      wormnet::routing::ChannelId input, wormnet::routing::NodeId current,
      wormnet::routing::NodeId dest) const override {
    const auto start = Clock::now();
    auto out = inner_.route(input, current, dest);
    route_ns_ += elapsed_ns(start);
    ++route_calls_;
    return out;
  }

  void route_into(wormnet::routing::ChannelId input,
                  wormnet::routing::NodeId current,
                  wormnet::routing::NodeId dest,
                  wormnet::routing::ChannelSet& out) const override {
    const auto start = Clock::now();
    inner_.route_into(input, current, dest, out);
    route_ns_ += elapsed_ns(start);
    ++route_calls_;
  }

  [[nodiscard]] wormnet::routing::ChannelSet waiting(
      wormnet::routing::ChannelId input, wormnet::routing::NodeId current,
      wormnet::routing::NodeId dest) const override {
    const auto start = Clock::now();
    auto out = inner_.waiting(input, current, dest);
    waiting_ns_ += elapsed_ns(start);
    ++waiting_calls_;
    return out;
  }

  [[nodiscard]] std::uint64_t route_calls() const { return route_calls_; }
  [[nodiscard]] std::uint64_t waiting_calls() const { return waiting_calls_; }
  /// Host seconds inside route()/route_into() and waiting(), clock reads
  /// included.
  [[nodiscard]] double route_seconds() const { return route_ns_ * 1e-9; }
  [[nodiscard]] double waiting_seconds() const { return waiting_ns_ * 1e-9; }

 private:
  static std::uint64_t elapsed_ns(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  const RoutingFunction& inner_;
  mutable std::uint64_t route_calls_ = 0;
  mutable std::uint64_t waiting_calls_ = 0;
  mutable std::uint64_t route_ns_ = 0;
  mutable std::uint64_t waiting_ns_ = 0;
};

/// Counts trace events per kind and discards them.
class CountingSink final : public wormnet::obs::TraceSink {
 public:
  void emit(const wormnet::obs::TraceEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.kind)];
  }
  [[nodiscard]] std::uint64_t count(wormnet::obs::EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts_) sum += c;
    return sum;
  }

 private:
  std::array<std::uint64_t, 64> counts_{};
};

/// In-memory span store.  A span has a name ("<layer>.<what>"), a start and
/// end, a parent and the id of the workload batch it belongs to.  Spans
/// nest by call order (the benchmark records from one thread).  Aggregates
/// stand for many high-frequency calls inside a parent span (count + total
/// time, e.g. every route_into of one Simulator::run); they cover their
/// parent for self-time purposes but have no position of their own.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t batch = 0;
    std::int64_t parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t calls = 0;  ///< > 0 marks an aggregate
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, std::string name)
        : spans_(spans), id_(spans.open(std::move(name))) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::size_t id() const { return id_; }

   private:
    Spans& spans_;
    std::size_t id_;
  };

  /// Subsequent spans belong to workload batch `batch`.
  void set_batch(std::uint64_t batch) { batch_ = batch; }

  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.batch = batch_;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.start_s = seconds_since(origin_);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    spans_[id].end_s = seconds_since(origin_);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Records `calls` calls totalling `seconds` under span `parent`.
  void aggregate(std::size_t parent, std::string name, std::uint64_t calls,
                 double seconds) {
    Span s;
    s.name = std::move(name);
    s.batch = spans_[parent].batch;
    s.parent = static_cast<std::int64_t>(parent);
    s.start_s = spans_[parent].start_s;
    s.end_s = s.start_s + seconds;
    s.calls = calls;
    spans_.push_back(std::move(s));
  }

  /// Self time of span `id`: its duration minus what its children cover.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

  /// Per batch, per layer (name up to the first '.'): summed self time.
  [[nodiscard]] std::map<std::uint64_t, std::map<std::string, double>>
  layer_self_seconds() const {
    const std::vector<double> self = self_seconds();
    std::map<std::uint64_t, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string& n = spans_[i].name;
      out[spans_[i].batch][n.substr(0, n.find('.'))] += self[i];
    }
    return out;
  }

  /// Chrome trace-event JSON (open in ui.perfetto.dev); aggregates become
  /// complete events with their call count in `args`.
  void write_chrome(wormnet::obs::JsonWriter& w) const {
    const std::vector<double> self = self_seconds();
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.field("name", s.name);
      w.field("cat", s.name.substr(0, s.name.find('.')));
      w.field("ph", "X");
      w.field("ts", s.start_s * 1e6);
      w.field("dur", (s.end_s - s.start_s) * 1e6);
      w.field("pid", std::uint64_t{1});
      w.field("tid", s.batch + 1);
      w.key("args");
      w.begin_object();
      w.field("span", std::uint64_t{i});
      w.key("parent");
      w.number(s.parent);
      w.field("batch", s.batch);
      w.field("self_s", self[i]);
      if (s.calls > 0) w.field("calls", s.calls);
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::uint64_t batch_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// A span scope when `spans` is set; nothing for untraced batches.
inline std::optional<Spans::Scope> span_if(Spans* spans, std::string name) {
  if (spans == nullptr) return std::nullopt;
  return std::optional<Spans::Scope>(std::in_place, *spans, std::move(name));
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a, used to compare deterministic outputs across repetitions.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace wormbench
