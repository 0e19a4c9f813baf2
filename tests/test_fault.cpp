#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"

namespace wormnet::routing {
namespace {

using topology::make_mesh;
using topology::make_torus;

TEST(Fault, FilterRemovesFaultyChannels) {
  const Topology topo = make_mesh({4, 4}, 2);
  std::vector<bool> faulty(topo.num_channels(), false);
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 2u);
  FaultAwareRouting routing(topo, std::make_unique<UnrestrictedMinimal>(topo),
                            faulty);
  EXPECT_EQ(routing.fault_count(), 2u);  // both VCs of the link
  const auto out = routing.route(topology::kInvalidChannel, 0, 1);
  for (ChannelId c : out) {
    EXPECT_FALSE(routing.is_faulty(c));
    EXPECT_NE(topo.channel(c).dst, 1u);  // must detour... wait: minimal only
  }
  // Minimal relation with the only direct link dead: no candidates remain
  // toward an adjacent destination.
  EXPECT_TRUE(out.empty());
}

TEST(Fault, DeterministicRelationLosesConnectivity) {
  const Topology topo = make_mesh({4, 4});
  std::vector<bool> faulty(topo.num_channels(), false);
  // Fault the first X-hop of e-cube's unique path from (0,0) eastward.
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 1u);
  FaultAwareRouting routing(topo, std::make_unique<DimensionOrder>(topo),
                            faulty);
  const cdg::StateGraph states(topo, routing);
  EXPECT_FALSE(cdg::relation_connected(states));
}

TEST(Fault, AdaptiveLayerFaultIsTolerated) {
  // Kill one *adaptive* (vc1) channel of Duato's mesh construction: the
  // relation stays connected, the condition still holds, and the simulator
  // still delivers everything.
  const Topology topo = make_mesh({4, 4}, 2);
  std::vector<bool> faulty(topo.num_channels(), false);
  const ChannelId victim = topo.find_channel(5, 6, 1);
  ASSERT_NE(victim, topology::kInvalidChannel);
  faulty[victim] = true;
  FaultAwareRouting routing(topo, make_duato_mesh(topo), faulty);

  const cdg::StateGraph states(topo, routing);
  EXPECT_TRUE(cdg::relation_connected(states));
  const cdg::SearchResult search = cdg::search(states);
  EXPECT_TRUE(search.found);

  sim::SimConfig cfg;
  cfg.injection_rate = 0.2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 6000;
  cfg.seed = 4;
  const sim::SimStats stats = sim::run(topo, routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.measured_delivered, stats.measured_created);
}

TEST(Fault, EscapeLayerFaultBreaksTheProof) {
  // Kill an *escape* (vc0) channel instead: escape-everywhere fails for the
  // canonical subfunction, and the checker no longer certifies via vc0.
  const Topology topo = make_mesh({4, 4}, 2);
  std::vector<bool> faulty(topo.num_channels(), false);
  const ChannelId victim = topo.find_channel(5, 6, 0);
  ASSERT_NE(victim, topology::kInvalidChannel);
  faulty[victim] = true;
  FaultAwareRouting routing(topo, make_duato_mesh(topo), faulty);

  const cdg::StateGraph states(topo, routing);
  std::vector<bool> c1(topo.num_channels(), false);
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc == 0 && !faulty[c]) c1[c] = true;
  }
  const cdg::Subfunction sub(states, c1, "vc0-degraded");
  EXPECT_FALSE(sub.connected());
}

TEST(Fault, RandomFaultsAreDeterministic) {
  const Topology topo = make_torus({4, 4}, 2);
  const auto a = random_link_faults(topo, 3, 99);
  const auto b = random_link_faults(topo, 3, 99);
  EXPECT_EQ(a, b);
  const auto c = random_link_faults(topo, 3, 100);
  EXPECT_NE(a, c);
  std::size_t count = 0;
  for (bool f : a) count += f ? 1 : 0;
  EXPECT_EQ(count, 3u * 2u);  // 3 links x 2 VCs
}

TEST(Fault, MarkLinkFaultyReportsNonAdjacentPairs) {
  const Topology topo = make_mesh({3, 3}, 2);
  std::vector<bool> faulty;
  // (0,0) and (1,1) share no link: zero channels marked, mask untouched.
  EXPECT_EQ(mark_link_faulty(topo, 0, 4, faulty), 0u);
  EXPECT_EQ(std::count(faulty.begin(), faulty.end(), true), 0);
  // Marking an adjacent pair counts each channel once, even when repeated.
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 2u);
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 0u);
}

TEST(Fault, AllocatorFilterTracksMaskMutation) {
  // The simulator's live fault filter is the allocator's borrowed mask: a
  // kill or repair between attempts takes effect with no rebuild.
  const Topology topo = make_mesh({4, 4}, 2);
  const UnrestrictedMinimal base(topo);
  std::vector<bool> mask(topo.num_channels(), false);
  sim::RouteAllocator allocator(topo, base, SelectionPolicy::kInOrder,
                                sim::WaitOverride::kFollowRouting, 4, 1,
                                &mask);
  sim::NetworkState net(topo);
  sim::Packet pkt;
  pkt.id = 0;
  pkt.src = 0;
  pkt.dst = 5;  // diagonal neighbour: +x and +y are both productive
  const ChannelSet before =
      allocator.blocked_on(pkt, topology::kInvalidChannel, 0);
  EXPECT_EQ(before, base.route(topology::kInvalidChannel, 0, 5));

  // Kill the +x link mid-run: both its VCs leave the candidate set and the
  // next acquisition takes a +y channel.
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, mask), 2u);
  const ChannelSet degraded =
      allocator.blocked_on(pkt, topology::kInvalidChannel, 0);
  EXPECT_EQ(degraded.size(), before.size() - 2);
  for (const ChannelId c : degraded) EXPECT_EQ(topo.channel(c).dst, 4u);
  const auto acquired =
      allocator.attempt(pkt, topology::kInvalidChannel, 0, net);
  ASSERT_TRUE(acquired.has_value());
  EXPECT_FALSE(mask[*acquired]);
  EXPECT_EQ(allocator.last_candidates(), degraded);

  // And a repair restores the original candidates.
  std::fill(mask.begin(), mask.end(), false);
  EXPECT_EQ(allocator.blocked_on(pkt, topology::kInvalidChannel, 0), before);
}

TEST(Fault, WaitSpecificCommitmentSkipsDeadChannelsUnderTransition) {
  // HPL waits only for the negative channel of its highest negative
  // dimension.  With that channel dead, a blocked header must not commit to
  // it: the commitment would pin it to an empty candidate set for good.  A
  // pending transition plan routes every packet by its stamped pure
  // relation, so the allocator's own fault filter is the only one in play.
  const Topology topo = make_mesh({4, 4});
  const auto hpl = core::make_algorithm("hpl", topo);
  const reconfig::CompiledTransitionPlan plan = reconfig::compile(
      reconfig::parse_transition_plan("switch:hpl-minimal@100000"), topo,
      "hpl");
  // Every -y link out of the middle row dies early and stays dead.
  const ft::CompiledFaultPlan faults = ft::compile(
      ft::parse_fault_plan("kill:4-0@20+kill:5-1@20+kill:6-2@20+kill:7-3@20+"
                           "kill:8-4@20+kill:9-5@20+kill:10-6@20+kill:11-7@20"),
      topo);
  std::vector<bool> dead(topo.num_channels(), false);
  for (const ChannelId c : faults.steps.front().down) dead[c] = true;

  sim::SimConfig cfg;
  cfg.injection_rate = 0.4;
  cfg.packet_length = 4;
  cfg.buffer_depth = 2;
  cfg.seed = 5;
  cfg.transition = &plan;
  cfg.fault_plan = &faults;
  sim::Simulator simulator(topo, *hpl, cfg);
  std::size_t committed_checks = 0;
  for (int cycle = 0; cycle < 1500; ++cycle) {
    simulator.step();
    if (simulator.now() <= faults.steps.front().cycle) continue;
    // Headers in the network own their input channel.
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      const sim::PacketId owner = simulator.network().owner(c);
      if (owner == sim::kNoPacket) continue;
      const ChannelId wait = simulator.packet(owner).committed_wait;
      if (wait == topology::kInvalidChannel) continue;
      ++committed_checks;
      ASSERT_FALSE(dead[wait]) << "packet " << owner
                               << " committed to dead channel " << wait
                               << " at cycle " << simulator.now();
    }
  }
  EXPECT_GT(committed_checks, 0u);  // the commitment path was exercised
}

TEST(Fault, MaskSizeMismatchThrows) {
  const Topology topo = make_mesh({3, 3});
  EXPECT_THROW(FaultAwareRouting(topo,
                                 std::make_unique<UnrestrictedMinimal>(topo),
                                 std::vector<bool>(3, false)),
               std::invalid_argument);
}

TEST(Fault, NonminimalHplRoutesAroundFaults) {
  // HPL's nonminimal freedom below dimension p lets it pass a dead link
  // that would strand a minimal algorithm, for the pairs whose highest
  // negative dimension lies above the fault.
  const Topology topo = make_mesh({4, 4});
  std::vector<bool> faulty(topo.num_channels(), false);
  // Kill the eastward link in row 3 between (1,3) and (2,3).
  const NodeId a = topo.node_at(std::vector<std::uint32_t>{1, 3});
  const NodeId b = topo.node_at(std::vector<std::uint32_t>{2, 3});
  ASSERT_EQ(mark_link_faulty(topo, a, b, faulty), 1u);
  FaultAwareRouting hpl(topo, std::make_unique<HighestPositiveLast>(topo, true),
                        faulty);
  // A message from (0,3) to (3,0): needs +x, -y; p=1, so it may drop south
  // first and cross in another row — candidates must remain nonempty at the
  // fault site.
  const auto out = hpl.route(topology::kInvalidChannel, a,
                             topo.node_at(std::vector<std::uint32_t>{3, 0}));
  EXPECT_FALSE(out.empty());
}

}  // namespace
}  // namespace wormnet::routing
