// Work-bound regression: the Duato subfunction search reads only the
// memoized state graph.  Every candidate's connectivity gate, escape gate,
// extended CDG and witness-cycle explanation comes from the successor,
// waiting and injection sets the StateGraph stored when it was built, so
// once the graph exists the search never consults the routing relation.
// Re-evaluating first hops per connectivity gate cost ~490k relation calls
// on the budget-exhausting union below, and ~2.2k on the torus.
//
// The relation is wrapped in a counting decorator; its counter is read
// after the state graph is built and again after the search.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/obs/probe.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace wormnet::cdg {
namespace {

/// Forwards to `inner`, counting every relation evaluation.
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
    ++calls_;
    return inner_.route(input, current, dest);
  }
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  routing::ChannelSet& out) const override {
    ++calls_;
    inner_.route_into(input, current, dest, out);
  }
  [[nodiscard]] routing::ChannelSet waiting(ChannelId input, NodeId current,
                                            NodeId dest) const override {
    ++calls_;
    return inner_.waiting(input, current, dest);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  const RoutingFunction& inner_;
  mutable std::uint64_t calls_ = 0;
};

/// Relation evaluations made by cdg::search alone (state graph excluded).
std::uint64_t search_calls(const routing::RoutingFunction& relation,
                           SearchResult& result) {
  const CountingRouting counting(relation);
  const StateGraph states(relation.topo(), counting);
  const std::uint64_t built = counting.calls();
  EXPECT_GT(built, 0u) << "the state graph evaluates the relation";
  result = search(states);
  return counting.calls() - built;
}

TEST(SearchBound, BudgetExhaustingUnionSearchMakesNoRelationCalls) {
  // e-cube ∪ negative-first with both versions active for every
  // destination: uncertified, and the greedy stage spends its whole budget.
  const auto topo = core::make_topology("mesh:4x4:2");
  const reconfig::CompiledTransitionPlan compiled = reconfig::compile(
      reconfig::parse_transition_plan("switch:negative-first@100"), topo,
      "e-cube");
  const std::vector<reconfig::UnionSpec> epochs =
      compiled.verification_epochs();
  ASSERT_FALSE(epochs.empty());
  const auto relation = reconfig::make_union_routing(topo, epochs.front());
  ASSERT_EQ(epochs.front().to_string(), "e-cube>negative-first/ffff.ffff");

  SearchResult result;
  obs::CheckerStats stats;
  {
    const obs::ProbeScope scope(stats);
    EXPECT_EQ(search_calls(*relation, result), 0u);
  }
  EXPECT_FALSE(result.found);
  EXPECT_EQ(stats.greedy_expansions, SearchOptions{}.greedy_budget)
      << "the greedy stage must run to its budget to load the search";
}

TEST(SearchBound, CertifiedTorusSearchMakesNoRelationCalls) {
  const auto topo = core::make_topology("torus:4x4:3");
  const auto relation = core::make_algorithm("duato-torus", topo);
  SearchResult result;
  EXPECT_EQ(search_calls(*relation, result), 0u);
  EXPECT_TRUE(result.found);
}

}  // namespace
}  // namespace wormnet::cdg
