#include "wormnet/cdg/extended_cdg.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "wormnet/obs/probe.hpp"

namespace wormnet::cdg {

const char* to_string(DepKind kind) {
  switch (kind) {
    case DepKind::kDirect:
      return "direct";
    case DepKind::kIndirect:
      return "indirect";
    case DepKind::kDirectCross:
      return "direct-cross";
    case DepKind::kIndirectCross:
      return "indirect-cross";
  }
  return "?";
}

namespace {

/// Depth-first walk over the excursions that leave escape state (ci, dest):
/// successor states whose channel is NOT escape for dest, followed
/// transitively.  `visit(cj)` sees every successor cj of an excursion state
/// and stops the walk by returning true; returns whether it was stopped.
template <typename Visit>
bool walk_excursions(const Subfunction& sub, ChannelId ci, NodeId dest,
                     std::vector<bool>& visited, std::vector<ChannelId>& stack,
                     obs::CheckerStats* probe, Visit&& visit) {
  const StateGraph& states = sub.states();
  std::fill(visited.begin(), visited.end(), false);
  stack.clear();
  for (ChannelId mid : states.successors(ci, dest)) {
    if (!sub.in_c1(mid, dest) && !visited[mid]) {
      visited[mid] = true;
      stack.push_back(mid);
    }
  }
  while (!stack.empty()) {
    const ChannelId mid = stack.back();
    stack.pop_back();
    if (probe) ++probe->ecdg_excursion_visits;
    for (ChannelId cj : states.successors(mid, dest)) {
      if (visit(cj)) return true;
      if (!sub.in_c1(cj, dest) && !visited[cj]) {
        visited[cj] = true;
        stack.push_back(cj);
      }
    }
  }
  return false;
}

}  // namespace

ExtendedCdg build_extended_cdg(const Subfunction& sub) {
  const obs::PhaseTimer timer("ecdg_build");
  obs::CheckerStats* const probe = obs::checker_probe();
  const StateGraph& states = sub.states();
  const Topology& topo = states.topo();
  const std::size_t channels = topo.num_channels();

  ExtendedCdg out;
  out.graph = graph::Digraph(channels);

  std::vector<bool> visited(channels);
  std::vector<ChannelId> stack;

  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    for (ChannelId ci = 0; ci < channels; ++ci) {
      if (!states.reachable(ci, dest) || !sub.in_c1(ci, dest)) continue;

      // Direct (and direct-cross) edges: escape successors of (ci, dest).
      for (ChannelId cj : states.successors(ci, dest)) {
        if (!sub.in_any_c1(cj)) continue;
        if (out.graph.add_edge(ci, cj)) {
          ++out.direct_edges;
          if (!sub.in_c1(cj, dest)) ++out.cross_edges;
        }
      }

      // Indirect (and indirect-cross) edges: the escape channels supplied
      // anywhere along an excursion.
      walk_excursions(sub, ci, dest, visited, stack, probe, [&](ChannelId cj) {
        if (sub.in_any_c1(cj) && out.graph.add_edge(ci, cj)) {
          ++out.indirect_edges;
          if (!sub.in_c1(cj, dest)) ++out.cross_edges;
        }
        return false;
      });
    }
  }
  if (probe) {
    ++probe->ecdg_builds;
    probe->ecdg_direct_edges += out.direct_edges;
    probe->ecdg_indirect_edges += out.indirect_edges;
    probe->ecdg_cross_edges += out.cross_edges;
  }
  return out;
}

DepKind classify_edge(const Subfunction& sub, graph::Vertex u,
                      graph::Vertex v) {
  const StateGraph& states = sub.states();
  const Topology& topo = states.topo();
  std::optional<DepKind> best;
  if (!sub.in_any_c1(v)) return DepKind::kDirect;

  std::vector<bool> visited(topo.num_channels());
  std::vector<ChannelId> stack;
  for (NodeId dest = 0; dest < topo.num_nodes() && best != DepKind::kDirect;
       ++dest) {
    if (!states.reachable(u, dest) || !sub.in_c1(u, dest)) continue;
    const bool cross = !sub.in_c1(v, dest);
    const auto succ = states.successors(u, dest);
    DepKind kind = cross ? DepKind::kDirectCross : DepKind::kDirect;
    if (std::find(succ.begin(), succ.end(), v) == succ.end()) {
      // Not direct for dest; an indirect witness only helps if stronger.
      kind = cross ? DepKind::kIndirectCross : DepKind::kIndirect;
      if ((best && *best <= kind) ||
          !walk_excursions(sub, u, dest, visited, stack, nullptr,
                           [v](ChannelId cj) { return cj == v; })) {
        continue;
      }
    }
    if (!best || kind < *best) best = kind;
  }
  return best.value_or(DepKind::kDirect);
}

}  // namespace wormnet::cdg
