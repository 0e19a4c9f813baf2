// Characterization of the Duato subfunction search.
//
// `cdg::search` is run over every row of the lint example matrix (each
// registry algorithm on its canonical topology), the per-destination escape
// fixtures of test_per_dest_escape, and the transition-union relations the
// reconfiguration sweep certifies (every verification epoch of a
// negative-first ramp from e-cube and from duato-mesh on mesh:4x4:2, and
// of a negative-first switch from e-cube on mesh:2x2:1 — the unions whose
// greedy stage exhausts its budget).  For each input the outcome (found,
// label, the chosen C1, candidates tried, exhaustive completeness) and both
// reports (stage-1 full set and the qualifying subfunction) are pinned
// byte-for-byte in tests/golden/search_outcomes.jsonl: connectivity,
// escape and acyclicity flags, edge counts, the witness cycle with the kind
// of each of its edges, and the connectivity witness.  The per-destination
// fixtures, the incoherent example's minimal channels and the vc0 class of
// each 2-VC union also pin `check()` on that subfunction, so witness cycles
// whose edges are indirect or cross dependencies are covered too.
//
// Regenerate the fixture:  WORMNET_UPDATE_GOLDEN=1 ./test_search_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/lint/examples.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/routing/dateline.hpp"
#include "wormnet/routing/duato_adaptive.hpp"
#include "wormnet/routing/examples.hpp"
#include "wormnet/routing/unrestricted.hpp"
#include "wormnet/topology/builders.hpp"

namespace wormnet::cdg {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

std::string render_report(const DuatoReport& r) {
  std::ostringstream os;
  os << "{\"label\":\"" << r.subfunction_label << "\",\"connected\":"
     << r.connected << ",\"escape\":" << r.escape_everywhere
     << ",\"acyclic\":" << r.acyclic << ",\"direct\":" << r.direct_edges
     << ",\"indirect\":" << r.indirect_edges << ",\"cross\":" << r.cross_edges
     << ",\"cycle\":[";
  for (std::size_t i = 0; i < r.witness_cycle.size(); ++i) {
    os << (i ? "," : "") << r.witness_cycle[i];
  }
  os << "],\"kinds\":[";
  for (std::size_t i = 0; i < r.witness_cycle_kinds.size(); ++i) {
    os << (i ? "," : "") << '"' << to_string(r.witness_cycle_kinds[i]) << '"';
  }
  const SubfunctionWitness& w = r.connectivity_witness;
  os << "],\"witness\":{\"kind\":" << static_cast<int>(w.kind)
     << ",\"node\":" << w.node << ",\"channel\":" << w.channel
     << ",\"dest\":" << w.dest << "}}";
  return os.str();
}

std::string render_search(const std::string& name, const StateGraph& states) {
  const SearchResult r = search(states);
  std::ostringstream os;
  os << "{\"input\":\"" << name << "\",\"found\":" << r.found
     << ",\"c1\":\"" << (r.found ? ft::mask_to_hex(r.c1) : "")
     << "\",\"candidates_tried\":" << r.candidates_tried
     << ",\"exhaustive_complete\":" << r.exhaustive_complete
     << ",\"full_set\":" << render_report(r.full_set_report)
     << ",\"report\":" << render_report(r.report) << "}\n";
  return os.str();
}

std::string render_check(const std::string& name, const Subfunction& sub) {
  return "{\"input\":\"" + name + "\",\"check\":" + render_report(check(sub)) +
         "}\n";
}

std::string registry_examples() {
  std::string out;
  for (const lint::ExampleExpectation& row : lint::example_matrix()) {
    const topology::Topology topo = core::make_topology(row.topology_spec);
    const auto routing = core::make_algorithm(row.algorithm, topo);
    const StateGraph states(topo, *routing);
    out += render_search(row.topology_spec + " " + row.algorithm, states);
  }
  return out;
}

std::string per_destination_fixtures() {
  std::string out;
  {
    const topology::Topology topo = topology::make_unidirectional_ring(4, 2);
    const routing::UnrestrictedMinimal routing(topo);
    const routing::DatelineRouting dateline(topo);
    const StateGraph states(topo, routing);
    out += render_search("uniring:4:2 unrestricted", states);
    out += render_check(
        "uniring:4:2 unrestricted / dateline per-dest",
        per_destination_from_escape(states, dateline, "dateline-per-dest"));
  }
  {
    const topology::Topology topo = topology::make_mesh({3, 3}, 2);
    const auto routing = routing::make_duato_mesh(topo);
    const StateGraph states(topo, *routing);
    out += render_search("mesh:3x3:2 duato-mesh", states);
    out += render_check(
        "mesh:3x3:2 duato-mesh / escape per-dest",
        per_destination_from_escape(states, routing->escape(), "per-dest-vc0"));
  }
  {
    const topology::Topology topo = topology::make_unidirectional_ring(6, 2);
    const routing::DatelineRouting dateline(topo);
    const StateGraph states(topo, dateline);
    out += render_search("uniring:6:2 dateline", states);
    out += render_check(
        "uniring:6:2 dateline / self per-dest",
        per_destination_from_escape(states, dateline, "self-escape"));
  }
  {
    // Destination 0 escapes on vc0, every other destination on vc1.
    const topology::Topology topo = topology::make_mesh({3, 3}, 2);
    const routing::UnrestrictedMinimal routing(topo);
    const StateGraph states(topo, routing);
    std::vector<std::vector<bool>> by_dest(topo.num_nodes());
    for (NodeId d = 0; d < topo.num_nodes(); ++d) {
      by_dest[d].assign(topo.num_channels(), false);
      for (ChannelId c = 0; c < topo.num_channels(); ++c) {
        by_dest[d][c] = topo.channel(c).vc == (d == 0 ? 0 : 1);
      }
    }
    out += render_search("mesh:3x3:2 unrestricted", states);
    out += render_check("mesh:3x3:2 unrestricted / vc0 for d0, vc1 else",
                        Subfunction(states, std::move(by_dest), "split-vc"));
  }
  {
    // The minimal channels of the incoherent example: acyclic direct
    // dependencies, closed into a cycle by an indirect self-dependency.
    const topology::Topology topo = routing::make_incoherent_net();
    const routing::IncoherentRouting routing(topo);
    const StateGraph states(topo, routing);
    const routing::IncoherentChannels ch = routing::incoherent_channels(topo);
    std::vector<bool> c1(topo.num_channels(), true);
    c1[ch.cA1] = false;
    c1[ch.cB2] = false;
    out += render_check("incoherent / minimal channels",
                        Subfunction(states, std::move(c1), "minimal-channels"));
  }
  return out;
}

std::string transition_unions() {
  struct Case {
    const char* topo;
    const char* base;
    const char* plan;
  };
  static const Case kCases[] = {
      {"mesh:4x4:2", "e-cube", "ramp:negative-first/4/100@400"},
      {"mesh:4x4:2", "duato", "ramp:negative-first/4/100@400"},
      {"mesh:2x2:1", "e-cube", "switch:negative-first@100"},
  };
  std::string out;
  for (const Case& c : kCases) {
    const topology::Topology topo = core::make_topology(c.topo);
    const reconfig::CompiledTransitionPlan compiled = reconfig::compile(
        reconfig::parse_transition_plan(c.plan), topo, c.base);
    for (const reconfig::UnionSpec& epoch : compiled.verification_epochs()) {
      const auto relation = reconfig::make_union_routing(topo, epoch);
      const StateGraph states(topo, *relation);
      const std::string name = std::string(c.topo) + " " + epoch.to_string();
      out += render_search(name, states);
      if (topo.cube().vcs > 1) {
        // The vc0 class: the escape layer of both bases, cyclic once
        // negative-first hops are added to it.
        std::vector<bool> c1(topo.num_channels());
        for (ChannelId ch = 0; ch < topo.num_channels(); ++ch) {
          c1[ch] = topo.channel(ch).vc == 0;
        }
        out += render_check(name + " / vc0",
                            Subfunction(states, std::move(c1), "vc-classes:0"));
      }
    }
  }
  return out;
}

TEST(SearchGolden, OutcomesMatchFixture) {
  const std::string actual =
      registry_examples() + per_destination_fixtures() + transition_unions();
  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/search_outcomes.jsonl";
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
  EXPECT_EQ(actual, expected.str()) << "golden drift in search_outcomes.jsonl";
}

}  // namespace
}  // namespace wormnet::cdg
