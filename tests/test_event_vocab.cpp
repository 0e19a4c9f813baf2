// Characterization of the simulator's event vocabulary.
//
// A handful of small runs that, together, make the simulator produce every
// kind of event it knows: packet lifecycle, fault epochs with repair,
// abort-retry recovery (abort, retry, recovered, drop), voided wait
// commitments, the reconfiguration guard's rollback and drain-then-switch,
// a halting wait-for deadlock and a watchdog trip.  For each run the JSONL
// trace and the complete flight-recorder stream are pinned byte-for-byte in
// tests/golden/event_vocab.jsonl, and the suite asserts that every trace
// kind and every flight kind shows up at least once — so a change to how
// events are produced or routed to sinks cannot silently drop a kind.
//
// Regenerate the fixture:  WORMNET_UPDATE_GOLDEN=1 ./test_event_vocab
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
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

SimConfig small_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.15;
  cfg.packet_length = 2;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 60;
  cfg.drain_cycles = 1500;
  cfg.deadlock_check_interval = 32;
  cfg.seed = 3;
  cfg.flight_capacity = 1u << 16;  // keep the whole stream
  return cfg;
}

/// Counts destinations routed by a non-base version in a union spec.
std::size_t non_base_dests(const reconfig::UnionSpec& spec) {
  std::size_t n = 0;
  for (std::size_t d = 0; d < spec.num_nodes; ++d) {
    for (std::size_t v = 1; v < spec.active.size(); ++v) {
      if (spec.active[v][d]) {
        ++n;
        break;
      }
    }
  }
  return n;
}

struct Scenario {
  const char* name;
  const char* topology;
  const char* algorithm;
  const char* fault_plan;       ///< "none" = no plan
  const char* transition_plan;  ///< "none" = no plan
  std::function<void(SimConfig&)> tune;
  /// Builds the guard certifier (null = no guard).
  std::function<reconfig::GuardCertifier()> certifier;
};

/// Guard certifier accepting epochs that migrate at most two destinations.
reconfig::GuardCertifier accept_small() {
  return [](const reconfig::UnionSpec& spec, const std::string&) {
    return non_base_dests(spec) <= 2;
  };
}

/// Guard certifier accepting only the first epoch it is asked about.
reconfig::GuardCertifier accept_first() {
  auto calls = std::make_shared<std::size_t>(0);
  return [calls](const reconfig::UnionSpec&, const std::string&) {
    return ++*calls == 1;
  };
}

constexpr const char* kStagedPlan =
    "stage:west-first/0-1@30+stage:west-first/2-3@50";

const Scenario kScenarios[] = {
    // A deterministic relation loses a link mid-run: headers behind it see
    // an empty candidate set, time out, abort and retry; the tight budget
    // drops some, and the repair lets the rest recover.
    {"recovery", "mesh:3x3:1", "e-cube", "kill:4-5@30+repair:4-5@200", "none",
     [](SimConfig& cfg) {
       cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
       cfg.recovery.packet_timeout = 40;
       cfg.recovery.retry_budget = 1;
       cfg.recovery.backoff_base = 30;
     },
     nullptr},
    // Wait-specific headers commit to one channel; killing committed
    // channels voids the commitments, and the repair restores them.
    {"wait_void", "mesh:3x3:1", "e-cube",
     "kill:4-5@45+kill:4-3@45+kill:4-1@45+kill:4-7@45+repair:4-5@80+"
     "repair:4-3@80+repair:4-1@80+repair:4-7@80",
     "none",
     [](SimConfig& cfg) {
       cfg.injection_rate = 0.5;
       cfg.measure_cycles = 40;
       cfg.wait_override = WaitOverride::kForceSpecific;
     },
     nullptr},
    // Stage one certifies and switches; stage two is refused and the guard
    // rolls the migrated destinations back.
    {"rollback", "mesh:2x2:1", "e-cube", "none", kStagedPlan,
     [](SimConfig& cfg) { cfg.injection_rate = 0.4; }, accept_small},
    // Both stage two and its rollback are refused: the guard drains the
    // network and switches through it.
    {"drain_switch", "mesh:2x2:1", "e-cube", "none", kStagedPlan,
     [](SimConfig& cfg) { cfg.injection_rate = 0.4; }, accept_first},
    // Unrestricted minimal routing on a unidirectional ring closes a
    // wait-for cycle; the halt policy stops the run there.
    {"deadlock", "ring:6:1", "unrestricted", "none", "none",
     [](SimConfig& cfg) {
       cfg.injection_rate = 0.9;
       cfg.packet_length = 6;
     },
     nullptr},
    // A dead link strands headers on empty candidate sets: no wait-for
    // cycle forms, so the no-progress watchdog trips instead.
    {"watchdog", "mesh:3x3:1", "e-cube", "kill:4-5@30", "none",
     [](SimConfig& cfg) { cfg.watchdog_cycles = 150; }, nullptr},
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
  std::string text;  ///< trace lines, then flight lines
  std::set<std::string> trace_kinds;
  std::set<std::string> flight_kinds;   ///< wire names
  std::set<obs::EventKind> flight_events;  ///< kinds of the flight records
};

Rendered run_scenario(const Scenario& s) {
  const auto topo = core::make_topology(s.topology);
  const auto algo = core::make_algorithm(s.algorithm, topo);
  SimConfig cfg = small_config();
  if (s.tune) s.tune(cfg);

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
    if (s.certifier) {
      guard = reconfig::build_transition_guard(
          topo, plan, cfg.fault_plan, s.certifier());
      cfg.guard = &guard;
    }
  }

  std::ostringstream trace_os;
  obs::JsonlTraceSink trace(trace_os);
  cfg.trace = &trace;
  Simulator simulator(topo, *algo, cfg);
  const SimStats stats = simulator.run();

  Rendered out;
  std::ostringstream os;
  os << "{\"scenario\":\"" << s.name << "\",\"flight_recorded\":"
     << stats.flight_events_recorded
     << ",\"flight_dropped\":" << stats.flight_events_dropped << "}\n";
  os << trace_os.str();
  for (const obs::FlightEvent& ev : simulator.flight().snapshot()) {
    os << render_flight(ev);
    out.flight_kinds.insert(obs::flight_name(ev));
    out.flight_events.insert(ev.kind);
  }
  out.text = os.str();

  std::istringstream lines(trace_os.str());
  std::string line;
  const std::string key = "\"ev\":\"";
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) continue;
    const std::size_t begin = at + key.size();
    out.trace_kinds.insert(line.substr(begin, line.find('"', begin) - begin));
  }
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

TEST(EventVocab, ScenariosCoverEveryKind) {
  std::set<std::string> trace_kinds;
  std::set<std::string> flight_kinds;
  std::set<obs::EventKind> flight_events;
  for (const Scenario& s : kScenarios) {
    const Rendered r = run_scenario(s);
    trace_kinds.insert(r.trace_kinds.begin(), r.trace_kinds.end());
    flight_kinds.insert(r.flight_kinds.begin(), r.flight_kinds.end());
    flight_events.insert(r.flight_events.begin(), r.flight_events.end());
  }
  const std::set<std::string> all_trace = {
      "create",   "inject",   "route",     "vc_alloc", "flit",
      "block",    "unblock",  "eject",     "done",     "dl_check",
      "deadlock", "fault",    "repair",    "abort",    "retry",
      "recovered", "switch",  "rollback",  "drain_switch"};
  const std::set<std::string> all_flight = {
      "acquire", "release",  "wait",   "wait_void", "fault",
      "repair",  "abort",    "retry",  "drop",      "deadlock",
      "watchdog", "switch",  "rollback", "drain-switch"};
  for (const std::string& kind : all_trace) {
    EXPECT_TRUE(trace_kinds.count(kind)) << "no trace event of kind " << kind;
  }
  for (const std::string& kind : all_flight) {
    EXPECT_TRUE(flight_kinds.count(kind)) << "no flight event of kind " << kind;
  }
  // Every kind of the one vocabulary reaches exactly the sinks its routing
  // entry names.
  for (auto k = static_cast<std::uint8_t>(obs::EventKind::kPacketCreate);
       k <= static_cast<std::uint8_t>(obs::EventKind::kDrop); ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    const obs::EventSinks sinks = obs::sinks_of(kind);
    EXPECT_TRUE(sinks.trace || sinks.flight) << obs::to_string(kind);
    EXPECT_EQ(trace_kinds.count(obs::to_string(kind)) == 1, sinks.trace)
        << obs::to_string(kind);
    EXPECT_EQ(flight_events.count(kind) == 1, sinks.flight)
        << obs::to_string(kind);
  }
}

TEST(EventVocab, TraceAndFlightStreamsMatchGolden) {
  std::string all;
  for (const Scenario& s : kScenarios) all += run_scenario(s).text;
  expect_matches_golden(all, "event_vocab.jsonl");
}

}  // namespace
}  // namespace wormnet::sim
