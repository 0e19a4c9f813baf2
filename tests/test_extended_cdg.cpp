#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace wormnet::cdg {
namespace {

using topology::make_hypercube;
using topology::make_mesh;
using topology::make_torus;

std::vector<bool> vc_class(const Topology& topo, std::uint8_t vc_max) {
  std::vector<bool> c1(topo.num_channels(), false);
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc <= vc_max) c1[c] = true;
  }
  return c1;
}

/// The direct (and direct-cross) edges of `ecdg`: those with a one-hop
/// witness for some destination.
graph::Digraph direct_edges_of(const Subfunction& sub,
                               const ExtendedCdg& ecdg) {
  graph::Digraph direct(ecdg.graph.num_vertices());
  for (graph::Vertex u = 0; u < ecdg.graph.num_vertices(); ++u) {
    for (const graph::Vertex v : ecdg.graph.out(u)) {
      const DepKind kind = classify_edge(sub, u, v);
      if (kind == DepKind::kDirect || kind == DepKind::kDirectCross) {
        direct.add_edge(u, v);
      }
    }
  }
  return direct;
}

TEST(ExtendedCdg, DuatoMeshEscapeIsAcyclicWithIndirectEdges) {
  // EXP-C core: the full CDG is cyclic, but the escape subfunction's
  // extended CDG — including the indirect dependencies created by adaptive
  // excursions — is acyclic.
  const Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  const Subfunction sub(states, vc_class(topo, 0), "vc0");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_FALSE(ecdg.graph.has_cycle());
  EXPECT_GT(ecdg.direct_edges, 0u);
  EXPECT_GT(ecdg.indirect_edges, 0u);  // adaptive excursions exist
  EXPECT_EQ(ecdg.cross_edges, 0u);     // uniform C1: no cross dependencies
}

TEST(ExtendedCdg, AdaptiveClassAsEscapeIsCyclic) {
  // Choosing the unrestricted class as the "escape" must fail: it has all
  // the turns, hence cycles.
  const Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  std::vector<bool> c1(topo.num_channels(), false);
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc == 1) c1[c] = true;
  }
  const Subfunction sub(states, c1, "vc1");
  EXPECT_TRUE(build_extended_cdg(sub).graph.has_cycle());
}

TEST(ExtendedCdg, FullSetEqualsPlainCdg) {
  // With C1 = C there are no excursions: extended CDG == CDG.
  const Topology topo = make_mesh({3, 3}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  const Subfunction sub(states, std::vector<bool>(topo.num_channels(), true),
                        "all");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_EQ(ecdg.indirect_edges, 0u);
  const auto cdg = build_cdg(states);
  EXPECT_EQ(ecdg.graph.num_edges(), cdg.num_edges());
}

TEST(ExtendedCdg, IndirectSelfDependencyInIncoherentExample) {
  // EXP-D core: for the incoherent example with C1 = the minimal channels,
  // the direct dependency graph of R1 is ACYCLIC, but the detour through
  // cA1 (not in C1) lets a dest-n0 message that used cL2 need cL2 again —
  // an indirect self-dependency that closes a cycle.  A checker that omits
  // indirect dependencies would wrongly certify this relation.
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo);
  const StateGraph states(topo, routing);
  const auto ch = routing::incoherent_channels(topo);
  std::vector<bool> c1(topo.num_channels(), true);
  c1[ch.cA1] = false;
  c1[ch.cB2] = false;
  const Subfunction sub(states, c1, "minimal-channels");
  EXPECT_TRUE(sub.connected());
  EXPECT_TRUE(sub.escape_everywhere());
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  const graph::Digraph direct = direct_edges_of(sub, ecdg);
  EXPECT_EQ(direct.num_edges(), ecdg.direct_edges);
  EXPECT_FALSE(direct.has_cycle())
      << "direct dependencies alone must be acyclic here";
  EXPECT_TRUE(ecdg.graph.has_cycle())
      << "indirect dependencies must close a cycle";
  EXPECT_GT(ecdg.indirect_edges, 0u);
  // The specific indirect self-dependency: cL2 -> cL2 via cA1.
  EXPECT_TRUE(ecdg.graph.has_edge(ch.cL2, ch.cL2));
  EXPECT_FALSE(direct.has_edge(ch.cL2, ch.cL2));
}

TEST(ExtendedCdg, PerDestinationCrossDependencies) {
  // Per-destination escape sets create cross dependencies: give destination
  // d0 the vc0 class and every other destination the vc1 class on a 2-VC
  // mesh; escape channels of one class then depend on the other class's.
  const Topology topo = make_mesh({3, 3}, 2);
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  std::vector<std::vector<bool>> by_dest(topo.num_nodes());
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    by_dest[d].assign(topo.num_channels(), false);
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      const std::uint8_t want = (d == 0) ? 0 : 1;
      if (topo.channel(c).vc == want) by_dest[d][c] = true;
    }
  }
  const Subfunction sub(states, by_dest, "split-by-dest");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_GT(ecdg.cross_edges, 0u);
}

TEST(ExtendedCdg, DatelineEscapeOnTorus) {
  const Topology topo = make_torus({4, 4}, 3);
  const auto routing = routing::make_duato_torus(topo);
  const StateGraph states(topo, *routing);
  const Subfunction sub(states, vc_class(topo, 1), "vc01");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_FALSE(ecdg.graph.has_cycle());
  EXPECT_GT(ecdg.indirect_edges, 0u);
}

TEST(ExtendedCdg, BrokenTorusEscapeIsCyclic) {
  // Escape = plain minimal on vc0/vc1 (no dateline): the wrap dependency
  // cycle survives in the extended CDG.
  const Topology topo = make_torus({4}, 3);
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  const Subfunction sub(states, vc_class(topo, 1), "vc01-no-dateline");
  EXPECT_TRUE(build_extended_cdg(sub).graph.has_cycle());
}

}  // namespace
}  // namespace wormnet::cdg
