// Characterization of blocked-header scheduling at saturation.
//
// Small runs driven past saturation so that most headers spend most of
// their life blocked, across every input that decides when a blocked header
// is re-arbitrated and what a re-arbitration may do: the three selection
// policies (random and most-credits consume RNG or read credits on
// success), both wait-mode overrides (wait-specific headers commit to one
// channel after their first failure), a kill+repair fault plan that voids
// commitments and changes candidate sets under parked headers, and a
// rollback-guarded transition ramp that restamps source-queued packets
// while the network is congested.  For each run the SimStats JSON, the JSONL
// trace and the complete flight-recorder stream are pinned byte-for-byte in
// tests/golden/wake_saturation.jsonl, so a scheduler change that alters any
// allocation outcome, its cycle, or the RNG stream shows up as drift.
//
// Regenerate the fixture:  WORMNET_UPDATE_GOLDEN=1 ./test_wake_saturation
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/reconfig/guard.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::sim {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

SimConfig saturated_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.7;
  cfg.pattern = Pattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.packet_length = 6;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 10;
  cfg.measure_cycles = 25;
  cfg.drain_cycles = 3000;
  cfg.deadlock_check_interval = 32;
  cfg.seed = 11;
  cfg.flight_capacity = 1u << 16;  // keep the whole stream
  return cfg;
}

struct Scenario {
  const char* name;
  const char* topology;
  const char* algorithm;
  const char* fault_plan;       ///< "none" = no plan
  const char* transition_plan;  ///< "none" = no plan (guarded otherwise)
  std::function<void(SimConfig&)> tune;
};

const Scenario kScenarios[] = {
    {"torus_in_order", "torus:4x4:3", "duato-torus", "none", "none",
     [](SimConfig&) {}},
    {"torus_random", "torus:4x4:3", "duato-torus", "none", "none",
     [](SimConfig& cfg) {
       cfg.selection = routing::SelectionPolicy::kRandom;
     }},
    {"mesh_most_credits", "mesh:4x4:2", "duato-mesh", "none", "none",
     [](SimConfig& cfg) {
       cfg.selection = routing::SelectionPolicy::kMostCredits;
     }},
    // Wait-specific: after its first failure a header only ever asks for
    // the one channel it committed to.
    {"mesh_force_specific", "mesh:4x4:2", "duato-mesh", "none", "none",
     [](SimConfig& cfg) {
       cfg.wait_override = WaitOverride::kForceSpecific;
       cfg.selection = routing::SelectionPolicy::kRandom;
     }},
    {"torus_force_any", "torus:4x4:3", "duato-torus", "none", "none",
     [](SimConfig& cfg) {
       cfg.wait_override = WaitOverride::kForceAny;
       cfg.selection = routing::SelectionPolicy::kMostCredits;
       cfg.injection_rate = 0.9;
     }},
    // A link dies under parked headers (voiding wait-specific commitments
    // to it) and comes back; headers stranded meanwhile time out and retry.
    {"mesh_kill_repair", "mesh:4x4:2", "duato-mesh",
     "kill:9-8@40+kill:12-8@40+repair:9-8@110+repair:12-8@110", "none",
     [](SimConfig& cfg) {
       cfg.wait_override = WaitOverride::kForceSpecific;
       cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
       cfg.recovery.packet_timeout = 60;
       cfg.recovery.retry_budget = 2;
       cfg.recovery.backoff_base = 20;
     }},
    // The first negative-first batch certifies, the second is refuted and
    // rolled back, all while the e-cube mesh is saturated.
    {"mesh_rollback_ramp", "mesh:4x4:2", "e-cube", "none",
     "ramp:negative-first/4/15@25",
     [](SimConfig& cfg) { cfg.injection_rate = 0.8; }},
};

std::string render_flight(const obs::FlightEvent& ev) {
  std::ostringstream os;
  os << "{\"c\":" << ev.cycle << ",\"flight\":\"" << obs::flight_name(ev)
     << '"';
  if (ev.packet != obs::FlightEvent::kNone) os << ",\"pkt\":" << ev.packet;
  if (ev.channel != obs::FlightEvent::kNone) os << ",\"ch\":" << ev.channel;
  if (ev.aux != obs::FlightEvent::kNone) os << ",\"aux\":" << ev.aux;
  os << "}\n";
  return os.str();
}

struct Rendered {
  std::string text;  ///< header, stats JSON, trace lines, flight lines
  SimStats stats;
};

Rendered run_scenario(const Scenario& s) {
  const auto topo = core::make_topology(s.topology);
  const auto algo = core::make_algorithm(s.algorithm, topo);
  SimConfig cfg = saturated_config();
  s.tune(cfg);

  ft::CompiledFaultPlan faults;
  if (std::string(s.fault_plan) != "none") {
    faults = ft::compile(ft::parse_fault_plan(s.fault_plan), topo);
    cfg.fault_plan = &faults;
  }
  reconfig::CompiledTransitionPlan plan;
  reconfig::TransitionGuard guard;
  if (std::string(s.transition_plan) != "none") {
    plan = reconfig::compile(reconfig::parse_transition_plan(s.transition_plan),
                             topo, s.algorithm);
    cfg.transition = &plan;
    guard = reconfig::build_transition_guard(topo, plan, cfg.fault_plan);
    cfg.guard = &guard;
  }

  std::ostringstream trace_os;
  obs::JsonlTraceSink trace(trace_os);
  cfg.trace = &trace;
  Simulator simulator(topo, *algo, cfg);
  Rendered out;
  out.stats = simulator.run();

  std::ostringstream os;
  os << "{\"scenario\":\"" << s.name << "\"}\n";
  os << out.stats.to_json() << '\n';
  os << trace_os.str();
  for (const obs::FlightEvent& ev : simulator.flight().snapshot()) {
    os << render_flight(ev);
  }
  out.text = os.str();
  return out;
}

void expect_matches_golden(const std::string& actual,
                           const std::string& filename) {
  const std::string path = std::string(WORMNET_GOLDEN_DIR) + "/" + filename;
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream expected;
  expected << file.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected.str()) << "golden drift in " << filename;
}

TEST(WakeSaturation, ScenariosSaturateAndExerciseTheirEvents) {
  for (const Scenario& s : kScenarios) {
    const SimStats stats = run_scenario(s).stats;
    SCOPED_TRACE(s.name);
    EXPECT_FALSE(stats.deadlocked);
    // Past saturation: the offered load exceeds what the network accepts.
    EXPECT_GT(stats.offered_load, stats.accepted_throughput);
    if (std::string(s.fault_plan) != "none") {
      EXPECT_EQ(stats.fault_epochs, 2u);
    }
    if (std::string(s.transition_plan) != "none") {
      EXPECT_EQ(stats.rollbacks, 1u);
    }
  }
}

TEST(WakeSaturation, StatsTraceAndFlightMatchGolden) {
  std::string all;
  for (const Scenario& s : kScenarios) all += run_scenario(s).text;
  expect_matches_golden(all, "wake_saturation.jsonl");
}

}  // namespace
}  // namespace wormnet::sim
