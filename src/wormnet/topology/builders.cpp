#include "wormnet/topology/builders.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace wormnet::topology {
namespace {

[[nodiscard]] NodeId product(std::span<const std::uint32_t> radices) {
  std::uint64_t n = 1;
  for (std::uint32_t k : radices) {
    if (k < 2) throw std::invalid_argument("radix must be >= 2");
    n *= k;  // n <= 2^24 before the product, so it cannot wrap
    if (n > (1u << 24)) throw std::invalid_argument("network too large");
  }
  return static_cast<NodeId>(n);
}

/// Shared cube builder.  For radix-2 dimensions the + and - physical links
/// between a node pair are distinct channels (full-duplex), matching the
/// standard hypercube model where each direction has its own wire.
Topology make_cube(std::string name, std::span<const std::uint32_t> radices,
                   const std::vector<bool>& wrap, bool unidirectional,
                   std::uint8_t vcs) {
  if (vcs == 0) throw std::invalid_argument("need at least one virtual channel");
  if (wrap.size() != radices.size()) {
    throw std::invalid_argument("wrap flags must match dimension count");
  }
  const NodeId n = product(radices);
  CubeInfo info;
  info.radices.assign(radices.begin(), radices.end());
  // Radix-2 mesh and torus coincide; suppress wraps there so each neighbor
  // pair gets exactly one physical link per direction.
  info.wraps.resize(radices.size());
  for (std::size_t d = 0; d < radices.size(); ++d) {
    // Unidirectional rings need the wrap even at radix 2 to stay connected.
    info.wraps[d] = wrap[d] && (radices[d] > 2 || unidirectional);
  }
  info.unidirectional = unidirectional;
  info.vcs = vcs;

  std::vector<std::uint32_t> strides(radices.size());
  std::uint32_t stride = 1;
  for (std::size_t d = 0; d < radices.size(); ++d) {
    strides[d] = stride;
    stride *= radices[d];
  }

  std::vector<Channel> channels;
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t d = 0; d < radices.size(); ++d) {
      const std::uint32_t k = radices[d];
      const std::uint32_t x = (u / strides[d]) % k;
      const bool dim_wraps = info.wraps[d];
      // + direction.
      if (x + 1 < k || dim_wraps) {
        const std::uint32_t nx = (x + 1) % k;
        const NodeId v = u + (static_cast<std::int64_t>(nx) - x) * strides[d];
        for (std::uint8_t vc = 0; vc < vcs; ++vc) {
          channels.push_back(Channel{u, v, static_cast<std::uint8_t>(d),
                                     Direction::kPos, vc, x + 1 == k, {}});
        }
      }
      // - direction.
      if (!unidirectional && (x > 0 || dim_wraps)) {
        const std::uint32_t nx = (x + k - 1) % k;
        const NodeId v = u + (static_cast<std::int64_t>(nx) - x) * strides[d];
        for (std::uint8_t vc = 0; vc < vcs; ++vc) {
          channels.push_back(Channel{u, v, static_cast<std::uint8_t>(d),
                                     Direction::kNeg, vc, x == 0, {}});
        }
      }
    }
  }
  return Topology(std::move(name), n, std::move(channels), std::move(info));
}

[[nodiscard]] std::string cube_name(const char* kind,
                                    std::span<const std::uint32_t> radices,
                                    std::uint8_t vcs) {
  std::ostringstream os;
  os << kind << '(';
  for (std::size_t d = 0; d < radices.size(); ++d) {
    if (d) os << 'x';
    os << radices[d];
  }
  os << ")v" << int(vcs);
  return os.str();
}

}  // namespace

Topology make_mesh(std::span<const std::uint32_t> radices, std::uint8_t vcs) {
  const std::vector<bool> no_wrap(radices.size(), false);
  return make_cube(cube_name("mesh", radices, vcs), radices, no_wrap,
                   /*unidirectional=*/false, vcs);
}

Topology make_mesh(std::initializer_list<std::uint32_t> radices,
                   std::uint8_t vcs) {
  return make_mesh(std::span(radices.begin(), radices.size()), vcs);
}

Topology make_torus(std::span<const std::uint32_t> radices, std::uint8_t vcs) {
  const std::vector<bool> all_wrap(radices.size(), true);
  return make_cube(cube_name("torus", radices, vcs), radices, all_wrap,
                   /*unidirectional=*/false, vcs);
}

Topology make_torus(std::initializer_list<std::uint32_t> radices,
                    std::uint8_t vcs) {
  return make_torus(std::span(radices.begin(), radices.size()), vcs);
}

Topology make_hypercube(std::size_t dimensions, std::uint8_t vcs) {
  std::vector<std::uint32_t> radices(dimensions, 2);
  std::ostringstream os;
  os << "hypercube(" << dimensions << ")v" << int(vcs);
  return make_cube(os.str(), radices, std::vector<bool>(dimensions, false),
                   /*unidirectional=*/false, vcs);
}

Topology make_cylinder(std::span<const std::uint32_t> radices,
                       const std::vector<bool>& wraps, std::uint8_t vcs) {
  std::ostringstream os;
  os << "cylinder(";
  for (std::size_t d = 0; d < radices.size(); ++d) {
    if (d) os << 'x';
    os << radices[d] << (d < wraps.size() && wraps[d] ? 'o' : '-');
  }
  os << ")v" << int(vcs);
  return make_cube(os.str(), radices, wraps, /*unidirectional=*/false, vcs);
}

Topology make_cylinder(std::initializer_list<std::uint32_t> radices,
                       std::initializer_list<bool> wraps, std::uint8_t vcs) {
  return make_cylinder(std::span(radices.begin(), radices.size()),
                       std::vector<bool>(wraps.begin(), wraps.end()), vcs);
}

Topology make_unidirectional_ring(std::uint32_t nodes, std::uint8_t vcs) {
  const std::uint32_t radices[] = {nodes};
  std::ostringstream os;
  os << "uniring(" << nodes << ")v" << int(vcs);
  return make_cube(os.str(), radices, std::vector<bool>{true},
                   /*unidirectional=*/true, vcs);
}

Topology make_ring(std::uint32_t nodes, std::uint8_t vcs) {
  const std::uint32_t radices[] = {nodes};
  std::ostringstream os;
  os << "ring(" << nodes << ")v" << int(vcs);
  return make_cube(os.str(), radices, std::vector<bool>{true},
                   /*unidirectional=*/false, vcs);
}

}  // namespace wormnet::topology
