// The extended channel dependency graph of a routing subfunction — the graph
// whose acyclicity the paper's necessary-and-sufficient condition tests.
//
// For each destination d and each reachable escape state (ci, d) with
// ci ∈ C1(d), edges are added to every escape channel the message may come to
// wait for next:
//
//   direct          cj ∈ R(head(ci), d) ∩ C1(d)
//   indirect        cj ∈ R(n', d) ∩ C1(d) after one or more intermediate hops
//                   on channels supplied by R for d but NOT in C1(d)
//   direct cross    like direct, but cj ∈ C1(d') for some d' != d only
//   indirect cross  like indirect, but cj ∈ C1(d') for some d' != d only
//
// Cross dependencies only arise for per-destination subfunctions — they are
// exactly the coupling between different pairs' escape sets that the ICPP'94
// condition adds over the 1993 sufficient condition.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wormnet/cdg/subfunction.hpp"
#include "wormnet/graph/digraph.hpp"

namespace wormnet::cdg {

/// Classification of one extended-CDG edge (file comment above).  An edge
/// witnessed several ways keeps the strongest explanation; the enumerators
/// are ordered strongest first: direct < direct-cross < indirect <
/// indirect-cross.
enum class DepKind : std::uint8_t {
  kDirect,
  kDirectCross,
  kIndirect,
  kIndirectCross,
};

[[nodiscard]] const char* to_string(DepKind kind);

struct ExtendedCdg {
  graph::Digraph graph;  ///< all dependency edges
  std::size_t direct_edges = 0;
  std::size_t indirect_edges = 0;        ///< indirect edges not already direct
  std::size_t cross_edges = 0;           ///< edges whose target is escape only
                                         ///< for other destinations
};

/// Builds the extended CDG of `sub` over its state graph.
[[nodiscard]] ExtendedCdg build_extended_cdg(const Subfunction& sub);

/// Kind of the extended-CDG edge u -> v of `sub`: the strongest explanation
/// over every destination that witnesses it.  Computed on demand from the
/// state graph, for the few edges a cycle witness explains; kDirect when
/// nothing witnesses the edge.
[[nodiscard]] DepKind classify_edge(const Subfunction& sub, graph::Vertex u,
                                    graph::Vertex v);

}  // namespace wormnet::cdg
