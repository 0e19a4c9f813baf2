#include "wormnet/exp/sweep_spec.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::exp {
namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

double parse_double(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("sweep grid: bad " + what + " '" + text +
                                "'");
  }
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("sweep grid: bad " + what + " '" + text +
                                "'");
  }
}

/// "0.05:0.45:0.10" -> {0.05, 0.15, ..., 0.45}; "a,b,c" -> {a, b, c}.
std::vector<double> parse_loads(const std::string& clause) {
  const auto range = split(clause, ':');
  if (range.size() == 3) {
    const double lo = parse_double(range[0], "load");
    const double hi = parse_double(range[1], "load");
    const double step = parse_double(range[2], "load step");
    if (!(step > 0.0) || !(hi >= lo) || !std::isfinite(hi - lo)) {
      throw std::invalid_argument("sweep grid: bad load range '" + clause +
                                  "'");
    }
    // Count before allocating: a tiny step must be refused, not expanded.
    const double span = (hi - lo) / step + 1e-9;
    if (!(span < static_cast<double>(kMaxGridPoints))) {
      std::ostringstream count;
      count << std::fixed << std::setprecision(0) << std::floor(span) + 1;
      throw std::invalid_argument("sweep grid: load axis '" + clause +
                                  "' expands to " + count.str() +
                                  " points, over the " +
                                  std::to_string(kMaxGridPoints) +
                                  "-point cap");
    }
    std::vector<double> out;
    // Integer stepping avoids drift deciding whether `hi` itself is hit.
    const auto steps = static_cast<std::size_t>(span);
    for (std::size_t i = 0; i <= steps; ++i) {
      out.push_back(lo + static_cast<double>(i) * step);
    }
    return out;
  }
  std::vector<double> out;
  for (const auto& part : split(clause, ',')) {
    out.push_back(parse_double(part, "load"));
  }
  if (out.empty()) throw std::invalid_argument("sweep grid: empty load list");
  return out;
}

}  // namespace

ExpandedSweep expand(const SweepSpec& spec) {
  if (spec.topologies.empty()) {
    throw std::invalid_argument("sweep: no topologies");
  }
  if (spec.routings.empty()) {
    throw std::invalid_argument("sweep: no routings");
  }
  if (spec.loads.empty()) throw std::invalid_argument("sweep: no loads");
  if (spec.patterns.empty()) throw std::invalid_argument("sweep: no patterns");
  if (spec.fault_plans.empty()) {
    throw std::invalid_argument("sweep: no fault plans (use \"none\")");
  }
  if (spec.reconfig_plans.empty()) {
    throw std::invalid_argument("sweep: no reconfig plans (use \"none\")");
  }
  if (spec.replications == 0) {
    throw std::invalid_argument("sweep: replications must be >= 1");
  }
  // Workers run the config unguarded (an exception there terminates), so
  // an impossible one is refused here, before any of them starts.
  sim::validate_config(spec.base);
  // Count before allocating (topology x routing combos that later turn out
  // inapplicable still count, so the cap is conservative).
  const std::pair<const char*, std::size_t> axes[] = {
      {"topo", spec.topologies.size()},
      {"routing", spec.routings.size()},
      {"fault", spec.fault_plans.size()},
      {"reconfig", spec.reconfig_plans.size()},
      {"pattern", spec.patterns.size()},
      {"load", spec.loads.size()},
      {"reps", spec.replications}};
  std::size_t points = 1;
  for (const auto& [axis, size] : axes) {
    if (size > kMaxGridPoints / points) {
      throw std::invalid_argument(
          "sweep: grid exceeds the " + std::to_string(kMaxGridPoints) +
          "-point cap at the " + axis + " axis (" + std::to_string(size) +
          " values after " + std::to_string(points) + " points)");
    }
    points *= size;
  }

  ExpandedSweep out;
  // The seed stream: point i uses the first output of the i-times-jumped
  // generator.  Jumps are cumulative, so expansion is O(points), and the
  // assignment depends only on canonical order — not on sharding.
  util::Xoshiro256 stream(spec.seed);
  for (const auto& topo_spec : spec.topologies) {
    const topology::Topology topo = core::make_topology(topo_spec);
    for (const auto& routing : spec.routings) {
      std::string canonical;
      try {
        canonical = core::canonical_algorithm_name(routing, topo);
      } catch (const std::invalid_argument&) {
        // Alias with no applicable construction here (e.g. "duato" on a
        // topology without a duato-* variant): a skip, not an error.
        out.skipped.push_back(topo_spec + " × " + routing);
        continue;
      }
      const auto& algorithms = core::all_algorithms();
      const auto entry = std::find_if(
          algorithms.begin(), algorithms.end(),
          [&](const core::AlgorithmEntry& e) { return e.name == canonical; });
      if (entry == algorithms.end()) {
        throw std::invalid_argument("sweep: unknown routing '" + routing +
                                    "'");
      }
      if (!entry->applicable(topo)) {
        out.skipped.push_back(topo_spec + " × " + routing);
        continue;
      }
      for (const auto& plan_text : spec.fault_plans) {
        // Parse + compile eagerly: a malformed plan or one that names links
        // absent from this topology throws here, not mid-run on a worker.
        const ft::FaultPlan plan = ft::parse_fault_plan(plan_text);
        const ft::CompiledFaultPlan compiled_faults = ft::compile(plan, topo);
        const std::string normalized = plan.empty() ? "none" : plan.to_string();
        for (const auto& reconfig_text : spec.reconfig_plans) {
          // Same eager discipline for transition plans; compiling against
          // this point's base routing also normalizes identity plans (zero
          // surviving cutovers) to "none", making their rows byte-identical
          // to no-plan rows.
          const reconfig::TransitionPlan tplan =
              reconfig::parse_transition_plan(reconfig_text);
          std::string reconfig_normalized = "none";
          reconfig::CompiledTransitionPlan compiled_transition;
          if (!tplan.empty()) {
            compiled_transition = reconfig::compile(tplan, topo, canonical);
            if (!compiled_transition.is_identity()) {
              reconfig_normalized = tplan.to_string();
            }
          }
          // Fault and transition plans compose (DESIGN 3.13) — except when
          // one cycle both kills a channel and cuts its head node's traffic
          // over: the two events would race for the same packets' waiting
          // state with no defined winner.  Stagger either event by a cycle.
          if (normalized != "none" && reconfig_normalized != "none") {
            for (const ft::CompiledStep& fs : compiled_faults.steps) {
              for (const reconfig::CompiledCutover& cs :
                   compiled_transition.steps) {
                if (fs.cycle != cs.cycle) continue;
                for (const topology::ChannelId c : fs.down) {
                  const topology::NodeId victim = topo.channel(c).dst;
                  for (const reconfig::CutoverAssignment& a :
                       cs.assignments) {
                    if (a.dest == victim) {
                      throw std::invalid_argument(
                          "sweep: at cycle " + std::to_string(fs.cycle) +
                          " the fault plan kills channel " +
                          std::to_string(c) +
                          " while the reconfig plan cuts destination " +
                          std::to_string(victim) +
                          " over; stagger one of the events by a cycle");
                    }
                  }
                }
              }
            }
          }
          for (const sim::Pattern pattern : spec.patterns) {
            for (const double load : spec.loads) {
              for (std::uint32_t rep = 0; rep < spec.replications; ++rep) {
                SweepPoint point;
                point.index = out.points.size();
                point.topology = topo_spec;
                point.routing = canonical;
                point.fault_plan = normalized;
                point.reconfig_plan = reconfig_normalized;
                point.pattern = pattern;
                point.load = load;
                point.replication = rep;
                point.seed = util::Xoshiro256(stream)();  // copy; stream stays
                stream.jump();
                out.points.push_back(std::move(point));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

SweepSpec parse_grid(const std::string& text) {
  SweepSpec spec;
  spec.patterns.clear();
  spec.loads.clear();
  for (const auto& clause : split(text, ';')) {
    const auto eq = clause.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("sweep grid: clause '" + clause +
                                  "' is not key=value");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (value.empty()) {
      throw std::invalid_argument("sweep grid: empty value for '" + key +
                                  "'");
    }
    if (key == "topo" || key == "topology") {
      spec.topologies = split(value, ',');
    } else if (key == "routing") {
      spec.routings = split(value, ',');
    } else if (key == "fault") {
      // Plan syntax uses '+' between events precisely because ',' and ';'
      // are taken by the grid grammar, so a plain comma split is safe here.
      spec.fault_plans = split(value, ',');
    } else if (key == "reconfig") {
      // Transition plans share the fault plans' '+'-joined event syntax.
      spec.reconfig_plans = split(value, ',');
    } else if (key == "pattern") {
      for (const auto& name : split(value, ',')) {
        const auto pattern = sim::pattern_from_string(name);
        if (!pattern) {
          throw std::invalid_argument("sweep grid: unknown pattern '" + name +
                                      "'");
        }
        spec.patterns.push_back(*pattern);
      }
    } else if (key == "load") {
      spec.loads = parse_loads(value);
    } else if (key == "reps") {
      const std::uint64_t reps = parse_u64(value, "reps");
      if (reps == 0) {
        throw std::invalid_argument("sweep grid: reps must be >= 1");
      }
      if (reps > kMaxGridPoints) {
        throw std::invalid_argument("sweep grid: reps axis " + value +
                                    " is over the " +
                                    std::to_string(kMaxGridPoints) +
                                    "-point cap");
      }
      spec.replications = static_cast<std::uint32_t>(reps);
    } else if (key == "seed") {
      spec.seed = parse_u64(value, "seed");
    } else {
      throw std::invalid_argument("sweep grid: unknown key '" + key + "'");
    }
  }
  if (spec.patterns.empty()) spec.patterns = {sim::Pattern::kUniform};
  if (spec.loads.empty()) spec.loads = {0.1};
  if (spec.topologies.empty()) {
    throw std::invalid_argument("sweep grid: missing topo=");
  }
  if (spec.routings.empty()) {
    throw std::invalid_argument("sweep grid: missing routing=");
  }
  return spec;
}

}  // namespace wormnet::exp
