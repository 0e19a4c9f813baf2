// wormbench: the wormnet benchmark binary.
//
//   wormbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--trace-out FILE]
//
// Runs one workload as a batch loop from this process (no open-loop
// arrivals): whole batches, each preceded by timed set-ups, until the time
// budget is spent.  With --trace 1 the budget is split
// between an untraced half and a traced half that repeats the same batches
// under the probes in probes.hpp and checks they leave every output
// unchanged.  Prints one JSON object on stdout; run.py adds provenance and
// reduces it to the benchmark's result line.
//
// The library is driven only through public functions; every layer is
// measured from outside (see probes.hpp).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.hpp"
#include "wormnet/audit/certificate.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/cdg/states.hpp"
#include "wormnet/core/certify.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/exp/sweep_spec.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/obs/json.hpp"
#include "wormnet/obs/probe.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormbench {
namespace {

using namespace wormnet;
using obs::EventKind;

/// Timed set-ups before each untraced batch; setup_s is the median of all
/// of them, so it samples the whole run.
constexpr std::size_t kSetupsPerBatch = 3;
/// Untraced batches per run even when one batch outlasts the budget.  The
/// first is a warm-up (caches, allocator, lazy set-up): its outputs are
/// checked but its time is not reported.
constexpr std::size_t kMinBatches = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

/// Everything one run measures and checks.
class Report {
 public:
  /// Records one outcome of check `name`; a check fails if any outcome does.
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    Check& c = checks_[name];
    if (ok) {
      ++c.passed;
    } else if (c.failed++ == 0) {
      c.detail = detail;
    }
  }
  /// A deterministic output that must repeat exactly: the first value seen
  /// under `name` is the reference every later one is compared with.
  void same(const std::string& name, const std::string& value,
            const std::string& where) {
    auto [it, inserted] = reference_.emplace(name, value);
    if (!inserted) {
      check(name, it->second == value, where + " differs from the first run");
    }
  }
  void layer(const std::string& name, double value, const char* unit) {
    layer_[name] = {value, unit};
  }
  void param(const std::string& name, const std::string& value) {
    params_[name] = value;
  }
  void param(const std::string& name, double value) { numbers_[name] = value; }

  std::vector<double> setup_s;
  std::vector<double> batch_s;
  std::vector<double> heap_peak_mb;  ///< per batch, with its set-ups
  std::vector<double> traced_batch_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const {
    for (const auto& [name, c] : checks_) {
      if (c.failed > 0 || c.passed == 0) return false;
    }
    return !checks_.empty();
  }

  void write(std::ostream& os, const Options& o) const {
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("workload", o.workload);
    w.field("seed", o.seed);
    w.field("size", o.tiny ? "tiny" : "full");
    w.field("trace", o.trace);
    w.key("params");
    w.begin_object();
    for (const auto& [k, v] : params_) w.field(k, v);
    for (const auto& [k, v] : numbers_) w.field(k, v);
    w.end_object();
    w.key("build");
    w.begin_object();
    w.field("type", WORMBENCH_BUILD_TYPE);
    w.field("compiler", WORMBENCH_COMPILER);
    w.end_object();
    w.field("batches", std::uint64_t{batch_s.size()});
    w.field("traced_batches", std::uint64_t{traced_batch_s.size()});
    w.field("correct", correct());
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("checks");
    w.begin_array();
    for (const auto& [name, c] : checks_) {
      w.begin_object();
      w.field("name", name);
      w.field("ok", c.failed == 0 && c.passed > 0);
      w.field("passed", c.passed);
      w.field("failed", c.failed);
      if (!c.detail.empty()) w.field("detail", c.detail);
      w.end_object();
    }
    w.end_array();
    w.key("metrics");
    w.begin_object();
    const auto metric = [&](const std::string& name, double value,
                            const char* unit) {
      w.key(name);
      w.begin_object();
      w.field("value", value);
      w.field("unit", unit);
      w.end_object();
    };
    if (o.trace) {
      for (const auto& [name, v] : layer_) metric(name, v.first, v.second);
    } else {
      metric("setup_s", median(setup_s), "s");
      // Neighbours on a shared host only add time to a batch's fixed work,
      // and they come and go in phases of seconds to minutes: the fastest
      // batch is far steadier than the median (see README.md).
      metric("fastest_batch_s",
             *std::min_element(batch_s.begin(), batch_s.end()), "s");
      metric("peak_heap_mb", median(heap_peak_mb), "MiB");
    }
    w.end_object();
    w.key("samples");
    w.begin_object();
    const auto series = [&](const char* name, const std::vector<double>& v) {
      w.key(name);
      w.begin_array();
      for (const double x : v) w.number(x);
      w.end_array();
    };
    series("setup_s", setup_s);
    series("batch_wall_s", batch_s);
    series("peak_heap_mb", heap_peak_mb);
    series("traced_batch_wall_s", traced_batch_s);
    w.end_object();
    w.end_object();
    os << '\n';
  }

 private:
  struct Check {
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::string detail;
  };
  std::map<std::string, Check> checks_;
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::pair<double, const char*>> layer_;
  std::map<std::string, std::string> params_;
  std::map<std::string, double> numbers_;
};

/// Calls `batch(i)` until `budget_s` has passed and at least `min_batches`
/// ran.
template <class Batch>
void repeat_for(double budget_s, std::size_t min_batches, Batch&& batch) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < min_batches || seconds_since(start) < budget_s;
       ++i) {
    batch(i);
  }
}

/// The untraced half of a run (all of it with --trace 0): before each batch
/// `setup()` runs kSetupsPerBatch times and returns its seconds; `batch(i)`
/// returns the batch's seconds.  The heap peak is taken per batch: over a
/// whole run, the sweep's would be the highest of many thread interleavings.
template <class Setup, class Batch>
void untraced_phase(const Options& o, Report& r, Setup&& setup,
                    Batch&& batch) {
  repeat_for(o.trace ? o.seconds / 2 : o.seconds, kMinBatches,
             [&](std::size_t i) {
               reset_peak_heap();
               for (std::size_t k = 0; k < kSetupsPerBatch; ++k) {
                 r.setup_s.push_back(setup());
               }
               const double wall = batch(i);
               if (i > 0) {
                 r.batch_s.push_back(wall);
                 r.heap_peak_mb.push_back(
                     static_cast<double>(peak_heap_bytes()) / 1048576.0);
               }
             });
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Layer metrics every workload prints; a workload that bypasses a layer
/// leaves its metrics at 0.
void zero_layers(Report& r) {
  for (const char* name :
       {"routing.route_calls", "routing.waiting_calls", "sim.hops",
        "sim.vc_allocs",
        "sim.blocks", "sim.link_traversals", "sim.ejects",
        "sim.deadlock_checks", "sim.cycles_run", "sim.flit_moves",
        "sim.flight_events_recorded", "sim.trace_events",
        "sim.measured_delivered", "cdg.search_candidates",
        "audit.states_checked", "audit.edges_checked",
        "exp.points", "exp.cache_hits", "exp.cache_misses",
        "reconfig.transition_epochs", "reconfig.uncertified_transition_epochs",
        "reconfig.rollbacks", "ft.fault_epochs", "ft.packets_aborted",
        "ft.packets_dropped"}) {
    r.layer(name, 0.0, "count");
  }
  for (const char* name :
       {"routing.route_s", "sim.construct_s", "sim.run_s", "sim.self_s",
        "topology.build_s", "cdg.state_graph_s", "cdg.cdg_build_s",
        "cdg.ecdg_build_s", "cdg.search_s", "core.certify_s",
        "core.verify_certified_s", "audit.check_s", "audit.json_roundtrip_s",
        "exp.expand_s", "exp.point_s_p50", "exp.point_s_max",
        "exp.analysis_s"}) {
    r.layer(name, 0.0, "s");
  }
  for (const char* name :
       {"routing.route_calls_per_hop", "routing.route_share",
        "sim.alloc_success_ratio",
        "exp.pool_busy_ratio", "obs.trace_overhead_ratio"}) {
    r.layer(name, 0.0, "ratio");
  }
  r.layer("audit.cert_bytes", 0.0, "bytes");
  r.layer("sim.flits_per_s", 0.0, "1/s");
  r.layer("sim.accepted_throughput", 0.0, "flits/node/cycle");
  r.layer("sim.latency_p50_cycles", 0.0, "cycles");
  r.layer("sim.latency_p99_cycles", 0.0, "cycles");
}

// ---------------------------------------------------------------------------
// sim-sat (and sim-low, runnable but not registered in BENCHMARK.json): one
// long Simulator::run() per batch.
// ---------------------------------------------------------------------------

struct SimWorkload {
  std::string topo;
  std::string alg;
  double load = 0.1;
  std::uint64_t warmup = 1000;
  std::uint64_t measure = 0;
  std::uint64_t drain = 30000;
};

/// `measure` sets the batch size: ~40k measured cycles give sim-low ~130k
/// latency samples; sim-sat costs ~6x more per cycle and 5k cycles already
/// give ~80k.
SimWorkload sim_workload(const Options& o, double load, std::uint64_t measure) {
  SimWorkload w;
  w.topo = o.tiny ? "torus:4x4:3" : "torus:16x16:3";
  w.alg = "duato-torus";
  w.load = load;
  w.warmup = o.tiny ? 200 : 1000;
  w.measure = o.tiny ? 500 : measure;
  return w;
}

sim::SimConfig sim_config(const SimWorkload& w, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.injection_rate = w.load;
  cfg.packet_length = 8;
  cfg.buffer_depth = 4;
  cfg.warmup_cycles = w.warmup;
  cfg.measure_cycles = w.measure;
  cfg.drain_cycles = w.drain;
  cfg.seed = seed;
  return cfg;
}

/// Output checks shared by the untraced and traced batches.
void check_sim(Report& r, const sim::SimStats& st, std::uint64_t moves,
               const std::string& where) {
  r.check("sim.packet_conservation",
          st.packets_delivered + st.packets_dropped == st.packets_created,
          where + ": delivered + dropped != created");
  r.check("sim.no_deadlock", !st.deadlocked, where + ": deadlock detected");
  r.check("sim.measured_packets", st.measured_created > 0,
          where + ": no measured packets");
  r.same("sim.stats_digest_repeats", st.to_json() + std::to_string(moves),
         where + " SimStats::to_json()");
  r.attempted += st.measured_created;
  r.failed += st.measured_created - st.measured_delivered;
}

void run_sim(const Options& o, const SimWorkload& w, Report& r,
             Spans& spans) {
  const sim::SimConfig cfg = sim_config(w, o.seed);
  r.param("topology", w.topo);
  r.param("routing", w.alg);
  r.param("pattern", "uniform");
  r.param("offered_load", w.load);
  r.param("packet_length", static_cast<double>(cfg.packet_length));
  r.param("buffer_depth", static_cast<double>(cfg.buffer_depth));
  r.param("warmup_cycles", static_cast<double>(w.warmup));
  r.param("measure_cycles", static_cast<double>(w.measure));
  r.param("drain_cycles", static_cast<double>(w.drain));
  r.param("sim_seed", static_cast<double>(cfg.seed));

  std::vector<double> build_s;
  std::vector<double> construct_s;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    const topology::Topology topo = core::make_topology(w.topo);
    const auto alg = core::make_algorithm(w.alg, topo);
    const double built = seconds_since(t0);
    const sim::Simulator simulator(topo, *alg, cfg);
    const double total = seconds_since(t0);
    build_s.push_back(built);
    construct_s.push_back(total - built);
    return total;
  };
  const topology::Topology topo = core::make_topology(w.topo);
  const auto alg = core::make_algorithm(w.alg, topo);
  double moves = 0.0;
  untraced_phase(o, r, setup, [&](std::size_t i) {
    sim::Simulator simulator(topo, *alg, cfg);
    const auto t0 = Clock::now();
    const sim::SimStats st = simulator.run();
    const double wall = seconds_since(t0);
    moves = static_cast<double>(simulator.total_flit_moves());
    check_sim(r, st, simulator.total_flit_moves(),
              "batch " + std::to_string(i));
    return wall;
  });

  zero_layers(r);
  r.layer("topology.build_s", median(build_s), "s");
  r.layer("sim.construct_s", median(construct_s), "s");
  r.layer("sim.flits_per_s", moves / median(r.batch_s), "1/s");
  if (!o.trace) return;

  std::vector<double> route_s;
  std::vector<double> route_share;
  std::vector<double> self_s;
  repeat_for(o.seconds / 2, 1, [&](std::size_t i) {
    spans.set_batch(i);
    const Spans::Scope batch(spans, "bench.batch");
    std::optional<topology::Topology> t;
    std::unique_ptr<routing::RoutingFunction> a;
    {
      const Spans::Scope s(spans, "topology.build");
      t.emplace(core::make_topology(w.topo));
      a = core::make_algorithm(w.alg, *t);
    }
    const CountingRouting counted(*a);
    CountingSink sink;
    sim::SimConfig traced = cfg;
    traced.trace = &sink;
    std::optional<sim::Simulator> simulator;
    {
      const Spans::Scope s(spans, "sim.construct");
      simulator.emplace(*t, counted, traced);
    }
    sim::SimStats st;
    std::size_t run_span = 0;
    double run_s = 0.0;
    {
      const Spans::Scope s(spans, "sim.run");
      run_span = s.id();
      const auto t0 = Clock::now();
      st = simulator->run();
      run_s = seconds_since(t0);
    }
    spans.aggregate(run_span, "routing.route_into", counted.route_calls(),
                    counted.route_seconds());
    spans.aggregate(run_span, "routing.waiting", counted.waiting_calls(),
                    counted.waiting_seconds());
    r.traced_batch_s.push_back(run_s);
    check_sim(r, st, simulator->total_flit_moves(),
              "traced batch " + std::to_string(i));

    route_s.push_back(counted.route_seconds());
    route_share.push_back(safe_ratio(counted.route_seconds(), run_s));
    self_s.push_back(run_s - counted.route_seconds() -
                     counted.waiting_seconds());
    const auto hops = static_cast<double>(sink.count(EventKind::kRouteCompute));
    const auto allocs = static_cast<double>(sink.count(EventKind::kVcAlloc));
    const auto calls = static_cast<double>(counted.route_calls());
    r.layer("routing.route_calls", calls, "count");
    r.layer("routing.waiting_calls",
            static_cast<double>(counted.waiting_calls()), "count");
    r.layer("routing.route_calls_per_hop", safe_ratio(calls, hops), "ratio");
    r.layer("sim.hops", hops, "count");
    r.layer("sim.vc_allocs", allocs, "count");
    r.layer("sim.alloc_success_ratio", safe_ratio(allocs, calls), "ratio");
    r.layer("sim.blocks", static_cast<double>(sink.count(EventKind::kBlock)),
            "count");
    r.layer("sim.link_traversals",
            static_cast<double>(sink.count(EventKind::kLinkTraverse)), "count");
    r.layer("sim.ejects", static_cast<double>(sink.count(EventKind::kEject)),
            "count");
    r.layer("sim.deadlock_checks",
            static_cast<double>(sink.count(EventKind::kDeadlockCheck)),
            "count");
    r.layer("sim.trace_events", static_cast<double>(sink.total()), "count");
    r.layer("sim.cycles_run", static_cast<double>(st.cycles_run), "count");
    r.layer("sim.flit_moves",
            static_cast<double>(simulator->total_flit_moves()), "count");
    r.layer("sim.flight_events_recorded",
            static_cast<double>(st.flight_events_recorded), "count");
    r.layer("sim.measured_delivered",
            static_cast<double>(st.measured_delivered), "count");
    r.layer("sim.accepted_throughput", st.accepted_throughput,
            "flits/node/cycle");
    r.layer("sim.latency_p50_cycles", st.p50_latency, "cycles");
    r.layer("sim.latency_p99_cycles", st.p99_latency, "cycles");
    r.layer("ft.fault_epochs", static_cast<double>(st.fault_epochs), "count");
    r.layer("ft.packets_aborted", static_cast<double>(st.packets_aborted),
            "count");
    r.layer("ft.packets_dropped", static_cast<double>(st.packets_dropped),
            "count");
    r.layer("reconfig.transition_epochs",
            static_cast<double>(st.reconfig_epochs), "count");
    r.layer("reconfig.rollbacks", static_cast<double>(st.rollbacks), "count");
  });
  r.layer("routing.route_s", median(route_s), "s");
  r.layer("routing.route_share", median(route_share), "ratio");
  r.layer("sim.run_s", median(r.traced_batch_s), "s");
  r.layer("sim.self_s", median(self_s), "s");
  r.layer("obs.trace_overhead_ratio",
          safe_ratio(median(r.traced_batch_s), median(r.batch_s)), "ratio");
}

// ---------------------------------------------------------------------------
// verify-certify: verify_certified + audit::check + JSON round trip.
// ---------------------------------------------------------------------------

struct Pair {
  std::string topo;
  std::string alg;
  bool deadlock_free = true;  ///< expected verdict
};

struct Bound {
  topology::Topology topo;
  std::unique_ptr<routing::RoutingFunction> alg;
  bool deadlock_free = true;
  std::string label;
};

std::vector<Pair> verify_pairs(const Options& o) {
  std::vector<Pair> pairs;
  if (o.tiny) {
    pairs = {{"mesh:4x4:2", "duato", true},
             {"torus:4x4:3", "duato", true},
             {"hypercube:3:2", "duato", true}};
  } else {
    pairs = {{"mesh:12x12:2", "duato", true},
             {"torus:12x12:3", "duato", true},
             {"hypercube:7:2", "duato", true}};
  }
  pairs.push_back({"ring:6:1", "unrestricted", false});
  pairs.push_back({"mesh:2x2:1", "unrestricted", false});
  // The seed only permutes the batch order (Fisher-Yates over splitmix64):
  // the pair set is fixed so every seed does the same work.
  std::uint64_t state = o.seed;
  for (std::size_t i = pairs.size() - 1; i > 0; --i) {
    const std::size_t j = util::splitmix64(state) % (i + 1);
    std::swap(pairs[i], pairs[j]);
  }
  return pairs;
}

std::vector<std::unique_ptr<Bound>> bind_pairs(const std::vector<Pair>& pairs) {
  std::vector<std::unique_ptr<Bound>> out;
  for (const Pair& p : pairs) {
    auto b = std::make_unique<Bound>(
        Bound{core::make_topology(p.topo), nullptr, p.deadlock_free,
              p.topo + " " + p.alg});
    b->alg = core::make_algorithm(p.alg, b->topo);
    out.push_back(std::move(b));
  }
  return out;
}

/// Per-pair timings of one verify batch (summed over the pair set).
struct VerifyTimes {
  double verify_s = 0.0;
  double audit_s = 0.0;
  double json_s = 0.0;
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  std::uint64_t bytes = 0;
};

/// Verifies, audits and round-trips one pair; returns false on any failed
/// output check.  `spans` (nullable) receives one span per stage.
bool verify_pair(const Bound& b, Report& r, VerifyTimes& t, Spans* spans,
                 std::string& digest) {
  std::optional<core::CertifiedVerdict> cv;
  {
    const auto span = span_if(spans, "core.verify_certified");
    const auto t0 = Clock::now();
    cv.emplace(core::verify_certified(b.topo, *b.alg));
    t.verify_s += seconds_since(t0);
  }
  const core::Conclusion expect = b.deadlock_free
                                      ? core::Conclusion::kDeadlockFree
                                      : core::Conclusion::kDeadlockable;
  const bool verdict_ok = cv->verdict.conclusion == expect;
  r.check("verify.expected_verdict", verdict_ok,
          b.label + ": got " + core::to_string(cv->verdict.conclusion));
  const bool has_cert =
      cv->certificate.has_value() &&
      cv->certificate->kind == (b.deadlock_free ? audit::CertKind::kCertified
                                                : audit::CertKind::kRefuted);
  r.check("verify.certificate_emitted", has_cert,
          b.label + ": no certificate of the expected kind");
  if (!verdict_ok || !has_cert) return false;
  const audit::Certificate& cert = *cv->certificate;

  audit::AuditResult audited;
  {
    const auto span = span_if(spans, "audit.check");
    const auto t0 = Clock::now();
    audited = audit::check(b.topo, *b.alg, cert);
    t.audit_s += seconds_since(t0);
  }
  r.check("verify.audit_accepts", audited.ok(),
          b.label + ": " + audit::to_string(audited.code) + " " +
              audited.detail);
  t.states += audited.states_checked;
  t.edges += audited.edges_checked;

  std::string text;
  audit::ParseResult parsed;
  bool fixed_point = false;
  {
    const auto span = span_if(spans, "audit.json_roundtrip");
    const auto t0 = Clock::now();
    text = cert.to_json();
    parsed = audit::parse_certificate(text);
    fixed_point = parsed.certificate.has_value() &&
                  *parsed.certificate == cert &&
                  parsed.certificate->to_json() == text;
    t.json_s += seconds_since(t0);
  }
  r.check("verify.json_fixed_point", fixed_point,
          b.label + ": to_json -> parse_certificate is not a fixed point " +
              parsed.error);
  t.bytes += text.size();

  digest += b.label + ":" + core::to_string(cv->verdict.conclusion) + ":" +
            std::to_string(fnv1a(text)) + ";";
  return audited.ok() && fixed_point;
}

void run_verify(const Options& o, Report& r, Spans& spans) {
  const std::vector<Pair> pairs = verify_pairs(o);
  std::string order;
  for (const Pair& p : pairs) order += (order.empty() ? "" : ",") + p.topo + " " + p.alg;
  r.param("pairs", order);
  r.param("method", "duato");

  const auto setup = [&] {
    const auto t0 = Clock::now();
    (void)bind_pairs(pairs);
    return seconds_since(t0);
  };
  const auto bound = bind_pairs(pairs);

  const auto batch = [&](Spans* s, const std::string& where) {
    VerifyTimes t;
    std::string digest;
    const auto t0 = Clock::now();
    for (const auto& b : bound) {
      const auto span = span_if(s, "bench.pair");
      const bool ok = verify_pair(*b, r, t, s, digest);
      ++r.attempted;
      if (!ok) ++r.failed;
    }
    const double wall = seconds_since(t0);
    r.same("verify.outputs_repeat", digest, where + " verdicts/certificates");
    return std::make_pair(wall, t);
  };

  untraced_phase(o, r, setup, [&](std::size_t i) {
    return batch(nullptr, "batch " + std::to_string(i)).first;
  });
  zero_layers(r);
  r.layer("topology.build_s", median(r.setup_s), "s");
  if (!o.trace) return;

  std::map<std::string, std::vector<double>> per_batch;
  VerifyTimes last;
  repeat_for(o.seconds / 2, 1, [&](std::size_t i) {
    spans.set_batch(i);
    {
      const Spans::Scope root(spans, "bench.batch");
      {
        const Spans::Scope s(spans, "topology.build");
        (void)bind_pairs(pairs);
      }
      const auto [wall, t] = batch(&spans, "traced batch " + std::to_string(i));
      r.traced_batch_s.push_back(wall);
      per_batch["core.verify_certified_s"].push_back(t.verify_s);
      per_batch["audit.check_s"].push_back(t.audit_s);
      per_batch["audit.json_roundtrip_s"].push_back(t.json_s);
      last = t;
    }
    // The verification stages one by one, outside the timed batch: the
    // split of verify_certified by layer.
    const Spans::Scope root(spans, "bench.stages");
    double state_s = 0, cdg_s = 0, search_s = 0, ecdg_s = 0, certify_s = 0;
    std::uint64_t candidates = 0;
    for (const auto& b : bound) {
      std::optional<cdg::StateGraph> states;
      auto t0 = Clock::now();
      {
        const Spans::Scope s(spans, "cdg.state_graph");
        states.emplace(b->topo, *b->alg);
      }
      state_s += seconds_since(t0);
      t0 = Clock::now();
      {
        const Spans::Scope s(spans, "cdg.cdg_build");
        (void)cdg::build_cdg(*states);
      }
      cdg_s += seconds_since(t0);
      obs::CheckerStats probe;
      cdg::SearchResult found;
      t0 = Clock::now();
      {
        const Spans::Scope s(spans, "cdg.search");
        const obs::ProbeScope installed(probe);
        found = cdg::search(*states);
      }
      search_s += seconds_since(t0);
      ecdg_s += probe.phase_seconds["ecdg_build"];
      candidates += found.candidates_tried;
      t0 = Clock::now();
      std::optional<audit::Certificate> cert;
      {
        const Spans::Scope s(spans, "core.certify");
        cert = core::certify_duato(*states, found);
      }
      certify_s += seconds_since(t0);
      const core::CertifiedVerdict cv = core::verify_certified(b->topo, *b->alg);
      r.check("verify.stages_match_facade", cert == cv.certificate,
              b->label + ": staged certificate differs from verify_certified");
    }
    per_batch["cdg.state_graph_s"].push_back(state_s);
    per_batch["cdg.cdg_build_s"].push_back(cdg_s);
    per_batch["cdg.search_s"].push_back(search_s);
    per_batch["cdg.ecdg_build_s"].push_back(ecdg_s);
    per_batch["core.certify_s"].push_back(certify_s);
    r.layer("cdg.search_candidates", static_cast<double>(candidates), "count");
  });
  for (const auto& [name, v] : per_batch) r.layer(name, median(v), "s");
  r.layer("audit.states_checked", static_cast<double>(last.states), "count");
  r.layer("audit.edges_checked", static_cast<double>(last.edges), "count");
  r.layer("audit.cert_bytes", static_cast<double>(last.bytes), "bytes");
  r.layer("obs.trace_overhead_ratio",
          safe_ratio(median(r.traced_batch_s), median(r.batch_s)), "ratio");
}

// ---------------------------------------------------------------------------
// sweep-reconfig: exp::run_sweep over a fault x reconfiguration grid.
// ---------------------------------------------------------------------------

constexpr std::size_t kSweepThreads = 2;

std::string sweep_grid(const Options& o) {
  // A certified single-VC kill (an odd channel id is an adaptive VC1, so
  // both bases keep their escape layer) crossed with a negative-first ramp
  // whose union epochs do not certify, so the guard rolls them back.
  const std::string topo = o.tiny ? "mesh:3x3:2" : "mesh:4x4:2";
  const std::string kill = o.tiny ? "killch:11@300" : "killch:25@600";
  return "topo=" + topo + ";routing=e-cube,duato;load=0.1,0.3;fault=none," +
         kill + ";reconfig=none,ramp:negative-first/4/100@400;reps=2;seed=" +
         std::to_string(o.seed);
}

exp::SweepSpec sweep_spec(const std::string& grid, bool tiny) {
  exp::SweepSpec spec = exp::parse_grid(grid);
  spec.base.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  spec.base.recovery.retry_budget = 4;
  spec.base.recovery.packet_timeout = 400;
  if (tiny) spec.base.measure_cycles = 1000;
  return spec;
}

/// One sweep set-up: the grid parsed and expanded (timed into `expand_s`),
/// then the construction run_sweep repeats per point before it simulates:
/// the topology (once per spec), the routing instance, and the compiled
/// fault and transition plans.  Returns the number of points.
std::size_t sweep_setup(const std::string& grid, bool tiny,
                        std::vector<double>& expand_s) {
  const auto t0 = Clock::now();
  const exp::ExpandedSweep expanded = exp::expand(sweep_spec(grid, tiny));
  expand_s.push_back(seconds_since(t0));
  std::map<std::string, topology::Topology> topos;
  for (const exp::SweepPoint& p : expanded.points) {
    auto it = topos.find(p.topology);
    if (it == topos.end()) {
      it = topos.emplace(p.topology, core::make_topology(p.topology)).first;
    }
    (void)core::make_algorithm(p.routing, it->second);
    if (p.fault_plan != "none") {
      (void)ft::compile(ft::parse_fault_plan(p.fault_plan), it->second);
    }
    if (p.reconfig_plan != "none") {
      (void)reconfig::compile(reconfig::parse_transition_plan(p.reconfig_plan),
                              it->second, p.routing);
    }
  }
  return expanded.points.size();
}

void check_sweep(Report& r, const exp::SweepOutcome& out,
                 const std::string& where) {
  const exp::Aggregate& agg = out.aggregate;
  r.check("sweep.no_certified_deadlocks", agg.certified_deadlocks == 0,
          where + ": deadlock on a certified point");
  r.check("sweep.no_deadlocks", agg.deadlocks == 0,
          where + ": guarded point deadlocked");
  bool conserved = true;
  std::uint32_t fault_epochs = 0, uncertified_fault = 0, uncertified_union = 0;
  for (const exp::SweepResult& res : out.results) {
    conserved = conserved && res.stats.packets_delivered +
                                     res.stats.packets_dropped ==
                                 res.stats.packets_created;
    fault_epochs += res.fault_epochs;
    uncertified_fault += res.uncertified_epochs;
    uncertified_union += res.uncertified_transition_epochs;
  }
  r.check("sweep.packet_conservation", conserved,
          where + ": delivered + dropped != created on some point");
  // The grid must exercise what it is there for.
  r.check("sweep.certified_fault_epochs",
          fault_epochs > 0 && uncertified_fault == 0,
          where + ": the kill is not a certified fault epoch");
  r.check("sweep.uncertified_unions_rolled_back",
          uncertified_union > 0 && agg.rollbacks > 0,
          where + ": no uncertified union epoch was rolled back");
  std::ostringstream rows;
  exp::write_jsonl(rows, out);
  r.same("sweep.rows_repeat", rows.str(), where + " sweep rows");
  r.attempted += agg.packets_created;
  r.failed += agg.packets_dropped;
}

void run_sweep(const Options& o, Report& r, Spans& spans) {
  const std::string grid = sweep_grid(o);
  r.param("grid", grid);
  r.param("threads", static_cast<double>(kSweepThreads));
  r.param("rollback", "on");
  r.param("recovery", "abort-retry, retry budget 4, packet timeout 400");

  std::vector<double> expand_s;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    const std::size_t points = sweep_setup(grid, o.tiny, expand_s);
    r.check("sweep.grid_expands", points > 0, "empty grid");
    return seconds_since(t0);
  };
  const exp::SweepSpec spec = sweep_spec(grid, o.tiny);
  exp::RunnerOptions options;
  options.threads = kSweepThreads;
  options.rollback = true;

  untraced_phase(o, r, setup, [&](std::size_t i) {
    const auto t0 = Clock::now();
    const exp::SweepOutcome out = exp::run_sweep(spec, options);
    const double wall = seconds_since(t0);
    check_sweep(r, out, "batch " + std::to_string(i));
    return wall;
  });
  zero_layers(r);
  r.layer("exp.expand_s", median(expand_s), "s");
  if (!o.trace) return;

  std::map<std::string, std::vector<double>> per_batch;
  repeat_for(o.seconds / 2, 1, [&](std::size_t i) {
    spans.set_batch(i);
    const Spans::Scope root(spans, "bench.batch");
    {
      const Spans::Scope s(spans, "exp.setup");
      std::vector<double> ignored;
      (void)sweep_setup(grid, o.tiny, ignored);
    }
    obs::Profiler profiler;
    exp::RunnerOptions traced = options;
    traced.profiler = &profiler;
    std::optional<exp::SweepOutcome> out;
    double wall = 0.0;
    {
      const Spans::Scope s(spans, "exp.run_sweep");
      const auto t0 = Clock::now();
      out.emplace(exp::run_sweep(spec, traced));
      wall = seconds_since(t0);
    }
    r.traced_batch_s.push_back(wall);
    check_sweep(r, *out, "traced batch " + std::to_string(i));

    // Per-point wall times, aggregated (never one span per point).
    std::vector<double> point_s;
    double busy = 0.0;
    for (const exp::SweepResult& res : out->results) {
      point_s.push_back(res.point_ms / 1000.0);
      busy += res.point_ms / 1000.0;
    }
    per_batch["exp.point_s_p50"].push_back(median(point_s));
    per_batch["exp.point_s_max"].push_back(
        *std::max_element(point_s.begin(), point_s.end()));
    per_batch["exp.pool_busy_ratio"].push_back(
        safe_ratio(busy, static_cast<double>(kSweepThreads) * wall));
    const auto total_s = [&](const char* phase) {
      return profiler.total_ms(phase) / 1000.0;
    };
    per_batch["exp.analysis_s"].push_back(total_s("sweep.analysis") +
                                          total_s("sweep.epoch_reverify"));
    // Analysis phases run on the worker threads: these are summed thread
    // seconds, not wall time.
    per_batch["cdg.state_graph_s"].push_back(total_s("verify.state_graph"));
    per_batch["cdg.cdg_build_s"].push_back(total_s("checker.cdg_build"));
    per_batch["cdg.ecdg_build_s"].push_back(total_s("checker.ecdg_build"));
    double search = 0.0;
    for (const std::string& phase : profiler.phases()) {
      if (phase.rfind("checker.search_", 0) == 0) search += total_s(phase.c_str());
    }
    per_batch["cdg.search_s"].push_back(search);

    const exp::Aggregate& agg = out->aggregate;
    std::uint64_t unions = 0, uncertified = 0;
    for (const exp::SweepResult& res : out->results) {
      unions += res.transition_epochs;
      uncertified += res.uncertified_transition_epochs;
    }
    r.layer("exp.points", static_cast<double>(agg.points), "count");
    r.layer("exp.cache_hits", static_cast<double>(out->cache_hits), "count");
    r.layer("exp.cache_misses", static_cast<double>(out->cache_misses),
            "count");
    r.layer("reconfig.transition_epochs", static_cast<double>(unions),
            "count");
    r.layer("reconfig.uncertified_transition_epochs",
            static_cast<double>(uncertified), "count");
    r.layer("reconfig.rollbacks", static_cast<double>(agg.rollbacks), "count");
    r.layer("ft.fault_epochs", static_cast<double>(agg.fault_epochs), "count");
    r.layer("ft.packets_aborted", static_cast<double>(agg.packets_aborted),
            "count");
    r.layer("ft.packets_dropped", static_cast<double>(agg.packets_dropped),
            "count");
    r.layer("sim.cycles_run", static_cast<double>(agg.cycles_run), "count");
    r.layer("sim.measured_delivered",
            static_cast<double>(agg.measured_delivered), "count");
  });
  for (const auto& [name, v] : per_batch) {
    r.layer(name, median(v), name == "exp.pool_busy_ratio" ? "ratio" : "s");
  }
  r.layer("obs.trace_overhead_ratio",
          safe_ratio(median(r.traced_batch_s), median(r.batch_s)), "ratio");
}

// ---------------------------------------------------------------------------

void write_trace(const Options& o, const Spans& spans) {
  std::ofstream os(o.trace_out);
  if (!os) throw std::runtime_error("cannot write " + o.trace_out);
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.key("layer_self_s");
  w.begin_array();
  for (const auto& [batch, layers] : spans.layer_self_seconds()) {
    w.begin_object();
    w.field("batch", batch);
    for (const auto& [layer, s] : layers) w.field(layer, s);
    w.end_object();
  }
  w.end_array();
  w.key("traceEvents");
  spans.write_chrome(w);
  w.end_object();
  os << '\n';
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload sim-low|sim-sat|verify-certify|sweep-reconfig"
               " --seed N --seconds S --trace 0|1 [--size full|tiny]"
               " [--trace-out FILE]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return usage(argv[0]);
      o.tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) return usage(argv[0]);

  Report r;
  Spans spans;
  if (o.workload == "sim-low") {
    run_sim(o, sim_workload(o, 0.1, 40000), r, spans);
  } else if (o.workload == "sim-sat") {
    run_sim(o, sim_workload(o, 0.5, 5000), r, spans);
  } else if (o.workload == "verify-certify") {
    run_verify(o, r, spans);
  } else if (o.workload == "sweep-reconfig") {
    run_sweep(o, r, spans);
  } else {
    return usage(argv[0]);
  }
  if (o.trace && !o.trace_out.empty()) write_trace(o, spans);
  r.write(std::cout, o);
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace wormbench

int main(int argc, char** argv) {
  try {
    return wormbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wormbench: " << e.what() << '\n';
    return 2;
  }
}
