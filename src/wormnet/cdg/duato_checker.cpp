#include "wormnet/cdg/duato_checker.hpp"

#include <algorithm>
#include <optional>

#include "wormnet/obs/probe.hpp"

namespace wormnet::cdg {

namespace {

/// The condition for `sub` given its two gate witnesses, already computed:
/// builds the extended CDG and looks for a cycle.  Leaves
/// witness_cycle_kinds empty — only check() explains the cycle it returns.
DuatoReport check_gated(const Subfunction& sub,
                        const SubfunctionWitness& connectivity,
                        const SubfunctionWitness& escape) {
  DuatoReport report;
  report.subfunction_label = sub.label();
  report.connected = connectivity.ok();
  report.escape_everywhere = escape.ok();
  if (!report.connected) {
    report.connectivity_witness = connectivity;
  } else if (!report.escape_everywhere) {
    report.connectivity_witness = escape;
  }
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  report.direct_edges = ecdg.direct_edges;
  report.indirect_edges = ecdg.indirect_edges;
  report.cross_edges = ecdg.cross_edges;
  auto cycle = ecdg.graph.find_cycle();
  report.acyclic = !cycle.has_value();
  if (cycle) report.witness_cycle = std::move(*cycle);
  return report;
}

/// Evaluates one candidate whose gates have not been computed yet: each gate
/// runs once, escape-everywhere only if connectivity passed, and the
/// extended CDG only if both did.  Empty when a gate fails.
std::optional<DuatoReport> evaluate(const Subfunction& sub) {
  const SubfunctionWitness connectivity = sub.connectivity_witness();
  if (!connectivity.ok()) return std::nullopt;
  const SubfunctionWitness escape = sub.escape_witness();
  if (!escape.ok()) return std::nullopt;
  return check_gated(sub, connectivity, escape);
}

/// Tries one candidate set; updates `result` on success.
bool try_candidate(const StateGraph& states, std::vector<bool> c1,
                   const std::string& label, SearchResult& result) {
  ++result.candidates_tried;
  if (auto* probe = obs::checker_probe()) ++probe->subfunction_candidates;
  std::optional<DuatoReport> report =
      evaluate(Subfunction(states, c1, label));
  if (!report || !report->holds()) return false;
  result.found = true;
  result.c1 = std::move(c1);
  result.report = std::move(*report);
  return true;
}

/// Greedy cycle breaking: repeatedly drop one channel that participates in a
/// cycle of the current candidate's extended CDG, as long as connectivity
/// survives; depth-first with backtracking over which cycle channel to drop.
bool greedy_search(const StateGraph& states, SearchResult& result,
                   std::size_t budget) {
  struct Frame {
    std::vector<bool> c1;
    std::vector<graph::Vertex> cycle;
    std::size_t next_choice = 0;
  };
  std::vector<Frame> stack;
  std::vector<bool> all(states.topo().num_channels(), true);
  stack.push_back(Frame{std::move(all), {}, 0});

  std::size_t spent = 0;
  while (!stack.empty() && spent < budget) {
    Frame& frame = stack.back();
    if (frame.cycle.empty()) {
      ++spent;
      ++result.candidates_tried;
      if (auto* probe = obs::checker_probe()) {
        ++probe->greedy_expansions;
        ++probe->subfunction_candidates;
      }
      std::optional<DuatoReport> report =
          evaluate(Subfunction(states, frame.c1, "greedy"));
      if (!report) {
        stack.pop_back();
        continue;
      }
      if (report->holds()) {
        result.found = true;
        result.c1 = frame.c1;
        result.report = std::move(*report);
        result.report.subfunction_label = "greedy-derived escape set";
        return true;
      }
      frame.cycle = std::move(report->witness_cycle);
      if (frame.cycle.empty()) {
        // Cyclic report must carry a cycle; defensive.
        stack.pop_back();
        continue;
      }
    }
    if (frame.next_choice >= frame.cycle.size()) {
      stack.pop_back();
      continue;
    }
    const graph::Vertex drop = frame.cycle[frame.next_choice++];
    std::vector<bool> next_c1 = frame.c1;
    next_c1[drop] = false;
    stack.push_back(Frame{std::move(next_c1), {}, 0});
  }
  return false;
}

}  // namespace

DuatoReport check(const Subfunction& sub) {
  DuatoReport report =
      check_gated(sub, sub.connectivity_witness(), sub.escape_witness());
  const std::size_t n = report.witness_cycle.size();
  report.witness_cycle_kinds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    report.witness_cycle_kinds.push_back(classify_edge(
        sub, report.witness_cycle[i], report.witness_cycle[(i + 1) % n]));
  }
  return report;
}

SearchResult search(const StateGraph& states, const SearchOptions& options) {
  SearchResult result;
  const Topology& topo = states.topo();
  const std::size_t channels = topo.num_channels();

  // Stage 1: the full set (classical acyclic-CDG test; with C1 = C the
  // extended CDG has no excursions, so it equals the plain CDG).  Its report
  // is kept on the result either way: when every later stage fails, the
  // full-set witness cycle is the concrete "why".
  {
    const obs::PhaseTimer timer("search_full_set");
    ++result.candidates_tried;
    if (auto* probe = obs::checker_probe()) ++probe->subfunction_candidates;
    std::vector<bool> all(channels, true);
    const Subfunction sub(states, all, "all-channels");
    result.full_set_report = check(sub);
    if (result.full_set_report.holds()) {
      result.found = true;
      result.c1 = std::move(all);
      result.report = result.full_set_report;
      return result;
    }
  }

  // Stage 2: caller-seeded candidates (e.g. known escape layers).
  {
    const obs::PhaseTimer timer("search_seeded");
    for (const auto& [c1, label] : options.seeded_candidates) {
      if (try_candidate(states, c1, label, result)) return result;
    }
  }

  // Stage 3: virtual-channel-class subsets on cube topologies.
  if (topo.is_cube() && topo.cube().vcs > 1) {
    const obs::PhaseTimer timer("search_vc_classes");
    const std::uint8_t vcs = topo.cube().vcs;
    for (std::uint32_t mask = 1; mask < (1u << vcs); ++mask) {
      if (mask == (1u << vcs) - 1) continue;  // full set already tried
      std::vector<bool> c1(channels, false);
      for (ChannelId c = 0; c < channels; ++c) {
        if (mask & (1u << topo.channel(c).vc)) c1[c] = true;
      }
      std::string label = "vc-classes:";
      for (std::uint8_t v = 0; v < vcs; ++v) {
        if (mask & (1u << v)) label += std::to_string(int(v));
      }
      if (try_candidate(states, std::move(c1), label, result)) return result;
    }
  }

  // Stage 4: greedy cycle breaking.
  {
    const obs::PhaseTimer timer("search_greedy");
    if (greedy_search(states, result, options.greedy_budget)) return result;
  }

  // Stage 5: exhaustive enumeration for tiny networks.
  if (channels <= options.exhaustive_channel_limit) {
    const obs::PhaseTimer timer("search_exhaustive");
    for (std::uint64_t mask = 1; mask + 1 < (1ULL << channels); ++mask) {
      std::vector<bool> c1(channels, false);
      for (ChannelId c = 0; c < channels; ++c) {
        if (mask & (1ULL << c)) c1[c] = true;
      }
      if (try_candidate(states, std::move(c1), "exhaustive", result)) {
        return result;
      }
    }
    result.exhaustive_complete = true;
  }
  return result;
}

}  // namespace wormnet::cdg
