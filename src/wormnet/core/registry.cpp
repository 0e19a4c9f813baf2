#include "wormnet/core/registry.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>

#include "wormnet/routing/dateline.hpp"
#include "wormnet/routing/dimension_order.hpp"
#include "wormnet/routing/duato_adaptive.hpp"
#include "wormnet/routing/enhanced_hypercube.hpp"
#include "wormnet/routing/examples.hpp"
#include "wormnet/routing/hpl.hpp"
#include "wormnet/routing/turn_model.hpp"
#include "wormnet/routing/unrestricted.hpp"
#include "wormnet/topology/builders.hpp"

namespace wormnet::core {
namespace {

using topology::Topology;

bool is_mesh(const Topology& t) {
  if (!t.is_cube()) return false;
  for (std::size_t d = 0; d < t.num_dims(); ++d) {
    if (t.cube().wraps[d]) return false;
  }
  return !t.cube().unidirectional;
}

bool has_wrap(const Topology& t) {
  if (!t.is_cube()) return false;
  for (std::size_t d = 0; d < t.num_dims(); ++d) {
    if (t.cube().wraps[d]) return true;
  }
  return false;
}

bool is_hypercube(const Topology& t) {
  if (!t.is_cube() || t.cube().unidirectional) return false;
  for (std::uint32_t k : t.cube().radices) {
    if (k != 2) return false;
  }
  return true;
}

std::vector<AlgorithmEntry> build_registry() {
  std::vector<AlgorithmEntry> reg;

  reg.push_back({"e-cube",
                 "deterministic dimension-order routing (mesh/hypercube)",
                 [](const Topology& t) {
                   return std::make_unique<routing::DimensionOrder>(t);
                 },
                 [](const Topology& t) { return is_mesh(t); }});

  reg.push_back({"dateline",
                 "Dally-Seitz dateline VC routing (ring/torus, >= 2 VCs)",
                 [](const Topology& t) {
                   return std::make_unique<routing::DatelineRouting>(t);
                 },
                 [](const Topology& t) {
                   return has_wrap(t) && t.cube().vcs >= 2;
                 }});

  reg.push_back({"west-first", "turn-model partially adaptive (2-D mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::WestFirst>(t);
                 },
                 [](const Topology& t) {
                   return is_mesh(t) && t.num_dims() == 2;
                 }});

  reg.push_back({"north-last", "turn-model partially adaptive (2-D mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::NorthLast>(t);
                 },
                 [](const Topology& t) {
                   return is_mesh(t) && t.num_dims() == 2;
                 }});

  reg.push_back({"negative-first", "turn-model partially adaptive (n-D mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::NegativeFirst>(t);
                 },
                 [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"negative-first-nonmin",
       "turn-model, nonminimal negative phase (n-D mesh)",
       [](const Topology& t) {
         return std::make_unique<routing::NegativeFirst>(t, true);
       },
       [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"duato-mesh", "fully adaptive, e-cube escape on vc0 (mesh, >= 2 VCs)",
       [](const Topology& t) { return routing::make_duato_mesh(t); },
       [](const Topology& t) {
         return is_mesh(t) && !is_hypercube(t) && t.cube().vcs >= 2;
       }});

  reg.push_back(
      {"duato-hypercube",
       "fully adaptive, e-cube escape on vc0 (hypercube, >= 2 VCs)",
       [](const Topology& t) { return routing::make_duato_hypercube(t); },
       [](const Topology& t) { return is_hypercube(t) && t.cube().vcs >= 2; }});

  reg.push_back(
      {"duato-torus",
       "fully adaptive, dateline escape on vc0/vc1 (torus, >= 3 VCs)",
       [](const Topology& t) { return routing::make_duato_torus(t); },
       [](const Topology& t) { return has_wrap(t) && t.cube().vcs >= 3; }});

  reg.push_back({"unrestricted",
                 "minimal fully adaptive with no restrictions (deadlock-prone)",
                 [](const Topology& t) {
                   return std::make_unique<routing::UnrestrictedMinimal>(t);
                 },
                 [](const Topology& t) { return t.is_cube(); }});

  reg.push_back({"hpl",
                 "[companion] Highest-Positive-Last, nonminimal, no VCs (mesh)",
                 [](const Topology& t) {
                   return std::make_unique<routing::HighestPositiveLast>(t);
                 },
                 [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"hpl-minimal", "[companion] Highest-Positive-Last, minimal core (mesh)",
       [](const Topology& t) {
         return std::make_unique<routing::HighestPositiveLast>(t, false);
       },
       [](const Topology& t) { return is_mesh(t); }});

  reg.push_back(
      {"enhanced",
       "[companion] Enhanced Fully Adaptive (hypercube, 2 VCs)",
       [](const Topology& t) {
         return std::make_unique<routing::EnhancedFullyAdaptive>(t);
       },
       [](const Topology& t) { return is_hypercube(t) && t.cube().vcs >= 2; }});

  reg.push_back(
      {"enhanced-relaxed",
       "[companion] Enhanced with the Theorem-6 restriction removed (deadlocks)",
       [](const Topology& t) {
         return std::make_unique<routing::EnhancedFullyAdaptive>(t, true);
       },
       [](const Topology& t) { return is_hypercube(t) && t.cube().vcs >= 2; }});

  reg.push_back({"incoherent",
                 "[companion] Duato's incoherent example (wait-on-any)",
                 [](const Topology& t) {
                   return std::make_unique<routing::IncoherentRouting>(t);
                 },
                 [](const Topology& t) {
                   return t.name() == "incoherent-net";
                 }});

  reg.push_back(
      {"incoherent-specific",
       "[companion] Duato's incoherent example (wait-specific; deadlocks)",
       [](const Topology& t) {
         return std::make_unique<routing::IncoherentRouting>(t, true);
       },
       [](const Topology& t) { return t.name() == "incoherent-net"; }});

  return reg;
}

}  // namespace

const std::vector<AlgorithmEntry>& all_algorithms() {
  static const std::vector<AlgorithmEntry> registry = build_registry();
  return registry;
}

std::vector<const AlgorithmEntry*> algorithms_for(const Topology& topo) {
  std::vector<const AlgorithmEntry*> out;
  for (const auto& entry : all_algorithms()) {
    if (entry.applicable(topo)) out.push_back(&entry);
  }
  return out;
}

namespace {

/// Splits on `sep`, keeping empty fields (so "mesh:4x4:" and "4xx4" carry
/// an empty field the number parser rejects).
std::vector<std::string> split_spec(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (std::size_t at; (at = text.find(sep, begin)) != std::string::npos;
       begin = at + 1) {
    parts.push_back(text.substr(begin, at - begin));
  }
  parts.push_back(text.substr(begin));
  return parts;
}

/// A topology-spec field in [1, max] (parse_count), or a typed error.
std::uint32_t spec_count(const std::string& text, const std::string& spec,
                         const char* what, std::uint32_t max) {
  const auto value = parse_count(text, 1, max);
  if (!value) {
    throw std::invalid_argument("bad " + std::string(what) + " '" + text +
                                "' in topology spec '" + spec +
                                "' (expected an integer in 1.." +
                                std::to_string(max) + ")");
  }
  return static_cast<std::uint32_t>(*value);
}

/// a * b, saturating at the largest uint64 instead of wrapping.
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product)
             ? std::numeric_limits<std::uint64_t>::max()
             : product;
}

/// Channels of the k-ary cube make_cube would build (saturating): per
/// dimension of radix k, one link per node and direction, less the k-th
/// when the dimension does not wrap (radix-2 dimensions never wrap unless
/// unidirectional), times the VC count.
std::uint64_t cube_channels(const std::vector<std::uint32_t>& radices,
                            bool wrap, bool unidirectional, std::uint8_t vcs) {
  std::uint64_t nodes = 1;
  for (std::uint32_t k : radices) nodes = saturating_mul(nodes, k);
  std::uint64_t per_vc = 0;
  for (std::uint32_t k : radices) {
    const bool wraps = wrap && (k > 2 || unidirectional);
    const std::uint64_t links = wraps ? nodes : nodes / k * (k - 1);
    const std::uint64_t both = saturating_mul(links, unidirectional ? 1 : 2);
    per_vc = both > std::numeric_limits<std::uint64_t>::max() - per_vc
                 ? std::numeric_limits<std::uint64_t>::max()
                 : per_vc + both;
  }
  return saturating_mul(per_vc, vcs);
}

/// Refuses a spec over kMaxTopologyChannels, naming it and the count.
void check_channel_cap(std::uint64_t channels, const std::string& spec) {
  if (channels <= kMaxTopologyChannels) return;
  throw std::invalid_argument(
      "topology spec '" + spec + "' has " +
      (channels == std::numeric_limits<std::uint64_t>::max()
           ? std::string("over 2^64")
           : std::to_string(channels)) +
      " channels, more than the limit of " +
      std::to_string(kMaxTopologyChannels));
}

}  // namespace

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min,
                                         std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min ||
      value > max) {
    return std::nullopt;
  }
  return value;
}

topology::Topology make_topology(const std::string& spec) {
  const auto parts = split_spec(spec, ':');
  const std::string& kind = parts[0];
  if (kind.empty()) throw std::invalid_argument("empty topology spec");
  if (kind == "incoherent") {
    if (parts.size() > 1) {
      throw std::invalid_argument("topology spec '" + spec +
                                  "': incoherent takes no fields");
    }
    return routing::make_incoherent_net();
  }
  if (kind != "mesh" && kind != "torus" && kind != "hypercube" &&
      kind != "ring" && kind != "uniring") {
    throw std::invalid_argument("unknown topology kind: " + kind);
  }
  if (parts.size() < 2) {
    throw std::invalid_argument("topology spec needs a size: " + spec);
  }
  if (parts.size() > 3) {
    throw std::invalid_argument("topology spec '" + spec +
                                "' has too many fields (KIND:SIZE[:VCS])");
  }
  constexpr std::uint32_t kMaxCount = 1u << 20;
  const auto vcs = static_cast<std::uint8_t>(
      parts.size() > 2
          ? spec_count(parts[2], spec, "VC count",
                       std::numeric_limits<std::uint8_t>::max())
          : 1);
  if (kind == "hypercube") {
    // n dimensions of radix 2: 2^n nodes, n links out of each per VC.
    const std::uint32_t n = spec_count(parts[1], spec, "dimension", kMaxCount);
    const std::uint64_t nodes = n < 64 ? std::uint64_t{1} << n
                                       : std::numeric_limits<std::uint64_t>::max();
    check_channel_cap(saturating_mul(saturating_mul(n, nodes), vcs), spec);
    return topology::make_hypercube(n, vcs);
  }
  std::vector<std::uint32_t> radices;
  if (kind == "ring" || kind == "uniring") {
    radices.push_back(spec_count(parts[1], spec, "size", kMaxCount));
  } else {
    for (const std::string& r : split_spec(parts[1], 'x')) {
      radices.push_back(spec_count(r, spec, "radix", kMaxCount));
    }
  }
  const bool uniring = kind == "uniring";
  check_channel_cap(cube_channels(radices, kind != "mesh", uniring, vcs),
                    spec);
  if (kind == "ring") return topology::make_ring(radices[0], vcs);
  if (uniring) return topology::make_unidirectional_ring(radices[0], vcs);
  if (kind == "mesh") return topology::make_mesh(radices, vcs);
  return topology::make_torus(radices, vcs);
}

std::string canonical_algorithm_name(const std::string& name,
                                     const Topology& topo) {
  if (name == "minimal-noescape") return "unrestricted";
  if (name == "duato") {
    for (const char* candidate :
         {"duato-hypercube", "duato-mesh", "duato-torus"}) {
      for (const auto& entry : all_algorithms()) {
        if (entry.name == candidate && entry.applicable(topo)) {
          return candidate;
        }
      }
    }
    throw std::invalid_argument(
        "alias 'duato' has no applicable construction for " + topo.name() +
        " (mesh/hypercube need >= 2 VCs, torus >= 3)");
  }
  return name;
}

std::unique_ptr<routing::RoutingFunction> make_algorithm(
    const std::string& name, const Topology& topo) {
  const std::string canonical = canonical_algorithm_name(name, topo);
  for (const auto& entry : all_algorithms()) {
    if (entry.name == canonical) {
      if (!entry.applicable(topo)) {
        throw std::invalid_argument("algorithm '" + canonical +
                                    "' not applicable to " + topo.name());
      }
      return entry.make(topo);
    }
  }
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

}  // namespace wormnet::core
