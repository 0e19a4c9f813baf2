// Wake-bound regression: a blocked header is re-arbitrated only when a
// channel it waits on is released (or the candidate space changes), so the
// relation is consulted about twice per hop even past saturation — once for
// the hop's first attempt and about once more for the wake that lets it
// through.  Waking every blocked header on every release anywhere in the
// network re-runs route_into over seven times per hop on the same run (a
// hotspot-saturated torus:4x4:3, where blocked headers pile up behind the
// hot node).
//
// The relation is wrapped in a counting decorator; hops are the
// route-compute events the simulator emits (one per hop, on its first
// attempt).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "wormnet/core/registry.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::sim {
namespace {

/// Forwards to `inner`, counting route computations.
class CountingRouting final : public routing::RoutingFunction {
 public:
  explicit CountingRouting(const RoutingFunction& inner)
      : RoutingFunction(inner.topo()), inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] routing::RelationForm form() const override {
    return inner_.form();
  }
  [[nodiscard]] routing::WaitMode wait_mode() const override {
    return inner_.wait_mode();
  }
  [[nodiscard]] bool minimal() const override { return inner_.minimal(); }
  [[nodiscard]] routing::ChannelSet route(ChannelId input, NodeId current,
                                          NodeId dest) const override {
    ++route_calls_;
    return inner_.route(input, current, dest);
  }
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  routing::ChannelSet& out) const override {
    ++route_calls_;
    inner_.route_into(input, current, dest, out);
  }
  [[nodiscard]] routing::ChannelSet waiting(ChannelId input, NodeId current,
                                            NodeId dest) const override {
    return inner_.waiting(input, current, dest);
  }

  [[nodiscard]] std::uint64_t route_calls() const { return route_calls_; }

 private:
  const RoutingFunction& inner_;
  mutable std::uint64_t route_calls_ = 0;
};

/// Counts route-compute events (one per hop) and discards the rest.
class HopCounter final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& ev) override {
    if (ev.kind == obs::EventKind::kRouteCompute) ++hops_;
  }
  [[nodiscard]] std::uint64_t hops() const { return hops_; }

 private:
  std::uint64_t hops_ = 0;
};

// Waking on every release costs ~7.3 route computations per hop on this
// run; waking only the waiters of the released channel costs ~2.
constexpr double kMaxRouteCallsPerHop = 3.0;

TEST(WakeBound, RouteCallsPerHopStayBoundedPastSaturation) {
  const auto topo = core::make_topology("torus:4x4:3");
  const auto base = core::make_algorithm("duato-torus", topo);
  const CountingRouting counting(*base);

  SimConfig cfg;
  cfg.injection_rate = 0.6;
  cfg.packet_length = 8;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1000;
  cfg.drain_cycles = 20000;
  cfg.pattern = Pattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.seed = 5;
  HopCounter hops;
  cfg.trace = &hops;

  const SimStats stats = Simulator(topo, counting, cfg).run();
  ASSERT_FALSE(stats.deadlocked);
  ASSERT_GT(stats.offered_load, stats.accepted_throughput)
      << "the run must be past saturation to load the wake path";
  ASSERT_GT(hops.hops(), 0u);
  const double per_hop = static_cast<double>(counting.route_calls()) /
                         static_cast<double>(hops.hops());
  RecordProperty("route_calls_per_hop", std::to_string(per_hop));
  EXPECT_LT(per_hop, kMaxRouteCallsPerHop)
      << counting.route_calls() << " route computations for " << hops.hops()
      << " hops";
}

}  // namespace
}  // namespace wormnet::sim
