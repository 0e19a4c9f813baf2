#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.hpp"

namespace wormnet::topology {
namespace {

TEST(Mesh, NodeAndChannelCounts2D) {
  const Topology topo = make_mesh({4, 3}, 2);
  EXPECT_EQ(topo.num_nodes(), 12u);
  // Links: dim0: 3*3=9 node pairs, dim1: 4*2=8 pairs; bidirectional = 2x;
  // 2 VCs per physical link.
  EXPECT_EQ(topo.num_channels(), (9 + 8) * 2 * 2u);
  EXPECT_TRUE(topo.strongly_connected());
  EXPECT_TRUE(topo.is_cube());
  EXPECT_EQ(topo.cube().vcs, 2);
}

TEST(Mesh, CoordinateRoundTrip) {
  const Topology topo = make_mesh({5, 4, 3});
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const auto xs = topo.coords(n);
    EXPECT_EQ(topo.node_at(xs), n);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(topo.coord(n, d), xs[d]);
    }
  }
}

TEST(Mesh, NeighborAtBoundary) {
  const Topology topo = make_mesh({3, 3});
  const NodeId corner = topo.node_at(std::vector<std::uint32_t>{0, 0});
  EXPECT_FALSE(topo.neighbor(corner, 0, Direction::kNeg).has_value());
  EXPECT_FALSE(topo.neighbor(corner, 1, Direction::kNeg).has_value());
  ASSERT_TRUE(topo.neighbor(corner, 0, Direction::kPos).has_value());
  EXPECT_EQ(topo.coord(*topo.neighbor(corner, 0, Direction::kPos), 0), 1u);
}

TEST(Mesh, DistanceIsManhattan) {
  const Topology topo = make_mesh({6, 6});
  const NodeId a = topo.node_at(std::vector<std::uint32_t>{1, 2});
  const NodeId b = topo.node_at(std::vector<std::uint32_t>{4, 5});
  EXPECT_EQ(topo.distance(a, b), 6u);
  EXPECT_EQ(topo.distance(a, a), 0u);
}

TEST(Torus, WrapNeighborAndDistance) {
  const Topology topo = make_torus({5, 5});
  const NodeId origin = topo.node_at(std::vector<std::uint32_t>{0, 0});
  const auto west = topo.neighbor(origin, 0, Direction::kNeg);
  ASSERT_TRUE(west.has_value());
  EXPECT_EQ(topo.coord(*west, 0), 4u);
  const NodeId far = topo.node_at(std::vector<std::uint32_t>{4, 4});
  EXPECT_EQ(topo.distance(origin, far), 2u);  // wraps both dims
}

TEST(Torus, WrapChannelsFlagged) {
  const Topology topo = make_torus({4});
  std::size_t wraps = 0;
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).wrap) ++wraps;
  }
  EXPECT_EQ(wraps, 2u);  // one wrap link per direction
}

TEST(Torus, Radix2HasNoDoubleLinks) {
  // 2-ary torus == hypercube: exactly one physical link per direction pair.
  const Topology torus = make_torus({2, 2});
  const Topology cube = make_hypercube(2);
  EXPECT_EQ(torus.num_channels(), cube.num_channels());
}

TEST(Hypercube, CountsAndDistance) {
  const Topology topo = make_hypercube(4);
  EXPECT_EQ(topo.num_nodes(), 16u);
  EXPECT_EQ(topo.num_channels(), 16u * 4u);  // n*2^n directed links, 1 VC
  EXPECT_EQ(topo.distance(0b0000, 0b1111), 4u);
  EXPECT_EQ(topo.distance(0b1010, 0b1001), 2u);
}

TEST(UnidirectionalRing, Structure) {
  const Topology topo = make_unidirectional_ring(4);
  EXPECT_EQ(topo.num_nodes(), 4u);
  EXPECT_EQ(topo.num_channels(), 4u);
  EXPECT_TRUE(topo.strongly_connected());
  EXPECT_EQ(topo.distance(3, 0), 1u);
  EXPECT_EQ(topo.distance(0, 3), 3u);
  // No negative-direction neighbors.
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    EXPECT_EQ(topo.channel(c).dir, Direction::kPos);
  }
}

TEST(UnidirectionalRing, TwoNodesStillConnected) {
  const Topology topo = make_unidirectional_ring(2);
  EXPECT_TRUE(topo.strongly_connected());
  EXPECT_EQ(topo.distance(1, 0), 1u);
}

TEST(Ring, BidirectionalDistance) {
  const Topology topo = make_ring(8);
  EXPECT_EQ(topo.distance(0, 5), 3u);  // shorter the other way
}

TEST(FindChannel, ByVcIndex) {
  const Topology topo = make_mesh({3, 3}, 3);
  const NodeId a = 0;
  const NodeId b = 1;
  for (std::uint8_t vc = 0; vc < 3; ++vc) {
    const ChannelId c = topo.find_channel(a, b, vc);
    ASSERT_NE(c, kInvalidChannel);
    EXPECT_EQ(topo.channel(c).vc, vc);
    EXPECT_EQ(topo.channel(c).src, a);
    EXPECT_EQ(topo.channel(c).dst, b);
  }
  EXPECT_EQ(topo.find_channel(a, b, 3), kInvalidChannel);
  EXPECT_EQ(topo.find_channel(0, 5, 0), kInvalidChannel);  // not adjacent
  EXPECT_EQ(topo.channels_between(a, b).size(), 3u);
}

TEST(ChannelName, HumanReadable) {
  const Topology topo = make_mesh({3, 3});
  const ChannelId c = topo.find_channel(0, 1, 0);
  EXPECT_EQ(topo.channel_name(c), "(0,0)->(1,0).v0");
}

TEST(CustomTopology, BuildAndQuery) {
  std::vector<Channel> channels;
  channels.push_back({0, 1, 0, Direction::kPos, 0, false, "a"});
  channels.push_back({1, 0, 0, Direction::kNeg, 0, false, "b"});
  const Topology topo("pair", 2, std::move(channels));
  EXPECT_FALSE(topo.is_cube());
  EXPECT_TRUE(topo.strongly_connected());
  EXPECT_EQ(topo.distance(0, 1), 1u);
  EXPECT_EQ(topo.channel_name(0), "a");
}

TEST(CustomTopology, RejectsBadEndpoints) {
  std::vector<Channel> channels;
  channels.push_back({0, 7, 0, Direction::kPos, 0, false, ""});
  EXPECT_THROW(Topology("bad", 2, std::move(channels)), std::invalid_argument);
}

TEST(Builders, RejectRadixOne) {
  EXPECT_THROW(make_mesh({1, 4}), std::invalid_argument);
}

// Parameterized structural sweep: every cube topology is strongly connected
// and every channel's endpoints differ in exactly its dimension.
struct CubeCase {
  std::vector<std::uint32_t> radices;
  bool torus;
  std::uint8_t vcs;
};

class CubeStructure : public ::testing::TestWithParam<CubeCase> {};

TEST_P(CubeStructure, WellFormed) {
  const auto& param = GetParam();
  const Topology topo =
      param.torus ? make_torus(param.radices, param.vcs)
                  : make_mesh(param.radices, param.vcs);
  EXPECT_TRUE(topo.strongly_connected());
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    const Channel& ch = topo.channel(c);
    EXPECT_NE(ch.src, ch.dst);
    int differing = 0;
    for (std::size_t d = 0; d < topo.num_dims(); ++d) {
      if (topo.coord(ch.src, d) != topo.coord(ch.dst, d)) {
        ++differing;
        EXPECT_EQ(d, ch.dim);
      }
    }
    EXPECT_EQ(differing, 1);
    EXPECT_LT(ch.vc, param.vcs);
    // Reverse channel exists on the same VC (bidirectional builders).
    EXPECT_NE(topo.find_channel(ch.dst, ch.src, ch.vc), kInvalidChannel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeStructure,
    ::testing::Values(CubeCase{{4}, false, 1}, CubeCase{{4}, true, 2},
                      CubeCase{{3, 3}, false, 1}, CubeCase{{4, 4}, true, 3},
                      CubeCase{{2, 2, 2}, false, 2},
                      CubeCase{{3, 4, 5}, false, 1},
                      CubeCase{{5, 3}, true, 2},
                      CubeCase{{2, 2, 2, 2, 2}, false, 1}));

// --- the shared topology-spec grammar (core::make_topology) --------------

TEST(TopologySpec, AcceptsWellFormedSpecs) {
  EXPECT_EQ(core::make_topology("mesh:4x4").cube().vcs, 1);
  EXPECT_EQ(core::make_topology("mesh:4x4:2").cube().vcs, 2);
  EXPECT_EQ(core::make_topology("torus:4x4:3").cube().vcs, 3);
  EXPECT_EQ(core::make_topology("ring:8:255").cube().vcs, 255);
  EXPECT_EQ(core::make_topology("hypercube:3:2").num_nodes(), 8u);
  EXPECT_EQ(core::make_topology("uniring:5").num_nodes(), 5u);
  EXPECT_GT(core::make_topology("incoherent").num_nodes(), 0u);
}

TEST(TopologySpec, RejectsMalformedSpecsNamingThem) {
  // VC counts that used to wrap through uint8_t (257 -> 1, 258 -> 2,
  // 256 -> 0), numbers with signs, spaces or trailing characters, empty
  // fields and extra fields.
  for (const char* spec :
       {"mesh:4x4:256", "mesh:4x4:257", "mesh:4x4:258", "mesh:4x4:0",
        "mesh:4x4:2abc", "mesh:4x4:+2", "mesh:4x4:-2", "mesh:4x4: 2",
        "mesh:4x4:0x2", "mesh:4x4:2:9", "mesh:4x4:", "mesh:4xx4",
        "mesh:4x4x", "mesh:x4", "ring:8a", "ring:8:99999999999999999999",
        "torus:4x4:3:", "incoherent:2", "mesh", "", ":4x4", "blob:4x4"}) {
    SCOPED_TRACE(spec);
    try {
      (void)core::make_topology(spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      const std::string kind = std::string(spec).substr(
          0, std::string(spec).find(':'));
      EXPECT_TRUE(what.find(spec) != std::string::npos ||
                  (!kind.empty() && what.find(kind) != std::string::npos) ||
                  what.find("empty") != std::string::npos)
          << what;
    }
  }
}

TEST(TopologySpec, VcCountErrorNamesTheRange) {
  try {
    (void)core::make_topology("mesh:4x4:258");
    FAIL() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "bad VC count '258' in topology spec 'mesh:4x4:258' "
                 "(expected an integer in 1..255)");
  }
}

TEST(ParseCount, AcceptsDigitsInRangeOnly) {
  EXPECT_EQ(core::parse_count("0", 0, 10), 0u);
  EXPECT_EQ(core::parse_count("10", 0, 10), 10u);
  EXPECT_EQ(core::parse_count("007", 1, 10), 7u);
  EXPECT_EQ(core::parse_count("18446744073709551615", 0,
                              std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                          "18446744073709551616", "4294967297"}) {
    EXPECT_FALSE(core::parse_count(bad, 0, 4294967295u).has_value())
        << "'" << bad << "'";
  }
  EXPECT_FALSE(core::parse_count("0", 1, 10).has_value());
  EXPECT_FALSE(core::parse_count("11", 1, 10).has_value());
}

TEST(TopologySpec, RefusesNetworksOverTheChannelCapBeforeBuilding) {
  // At the cap: 65536 nodes x 4 directions x 4 VCs = 2^20 channels.
  EXPECT_EQ(core::kMaxTopologyChannels, 1u << 20);
  // Each of these would allocate gigabytes (or wrap a 64-bit count) if
  // built; the count is computed from the parsed fields and refused first.
  for (const char* spec :
       {"mesh:4096x4096:255", "torus:256x256:5", "mesh:1048576x1048576",
        "torus:1048576x1048576x1048576x1048576:255", "hypercube:20",
        "hypercube:64", "hypercube:1048576:255", "ring:1048576",
        "uniring:1048576:2", "mesh:1024x1024:2"}) {
    SCOPED_TRACE(spec);
    try {
      (void)core::make_topology(spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + spec + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("more than the limit of 1048576"), std::string::npos)
          << what;
    }
  }
}

TEST(TopologySpec, ChannelCapErrorGivesTheCount) {
  try {
    (void)core::make_topology("mesh:4096x4096:255");
    FAIL() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "topology spec 'mesh:4096x4096:255' has 17108582400 "
                 "channels, more than the limit of 1048576");
  }
  try {
    (void)core::make_topology("hypercube:64");
    FAIL() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "topology spec 'hypercube:64' has over 2^64 channels, more "
                 "than the limit of 1048576");
  }
}

TEST(TopologySpec, BenchmarkNetworksAreUnderTheChannelCap) {
  for (const char* spec : {"torus:16x16:3", "mesh:12x12:2", "torus:12x12:3",
                           "hypercube:7:2", "uniring:5:2", "ring:2"}) {
    SCOPED_TRACE(spec);
    EXPECT_LE(core::make_topology(spec).num_channels(),
              core::kMaxTopologyChannels);
  }
}

}  // namespace
}  // namespace wormnet::topology
