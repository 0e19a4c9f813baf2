// Named routing-algorithm registry: maps algorithm names to factories and
// knows which algorithms apply to which topology (dimension, wraparound and
// virtual-channel requirements).  Drives the experiment harnesses and the
// examples, so every binary spells algorithm names the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::core {

using RoutingFactory = std::function<std::unique_ptr<routing::RoutingFunction>(
    const topology::Topology&)>;

struct AlgorithmEntry {
  std::string name;
  std::string description;
  RoutingFactory make;
  /// True if the algorithm can be instantiated on this topology.
  std::function<bool(const topology::Topology&)> applicable;
};

/// The full registry (stable order).
[[nodiscard]] const std::vector<AlgorithmEntry>& all_algorithms();

/// Algorithms applicable to `topo`, in registry order.
[[nodiscard]] std::vector<const AlgorithmEntry*> algorithms_for(
    const topology::Topology& topo);

/// Largest network a topology spec may describe, in channels (counting
/// every virtual channel).  torus:256x256:4 sits exactly at the cap; the
/// benchmark and test networks are thousands of channels at most.  Every
/// per-channel table (state graph, simulator, certificates) scales with
/// this count, and the state graph with its product by the node count.
inline constexpr std::uint64_t kMaxTopologyChannels = std::uint64_t{1} << 20;

/// Parses a decimal count in [min, max]: ASCII digits only (no sign,
/// whitespace or trailing characters) and no silent narrowing or wrap.
/// Returns nullopt for anything else.  Shared by the topology-spec parser
/// and every numeric CLI flag.
[[nodiscard]] std::optional<std::uint64_t> parse_count(std::string_view text,
                                                       std::uint64_t min,
                                                       std::uint64_t max);

/// Parses a topology spec string, shared by every CLI binary so they all
/// accept the same syntax:
///
///   mesh:4x4[:VCS]  torus:8x8[:VCS]  hypercube:N[:VCS]  ring:N[:VCS]
///   uniring:N[:VCS]  incoherent
///
/// Throws std::invalid_argument on malformed specs, and on specs whose
/// channel count (computed from the parsed fields before anything is
/// allocated) exceeds kMaxTopologyChannels.
[[nodiscard]] topology::Topology make_topology(const std::string& spec);

/// Resolves CLI-friendly aliases to registry names for `topo`:
///   "duato"             -> the duato-* construction applicable to topo
///   "minimal-noescape"  -> "unrestricted" (minimal adaptive, no escape
///                          structure — the canonical deadlock-prone config)
/// Registry names and unknown names pass through unchanged; "duato" with no
/// applicable construction throws std::invalid_argument.
[[nodiscard]] std::string canonical_algorithm_name(
    const std::string& name, const topology::Topology& topo);

/// Instantiates by name (aliases accepted); throws std::invalid_argument for
/// unknown names or inapplicable topologies.
[[nodiscard]] std::unique_ptr<routing::RoutingFunction> make_algorithm(
    const std::string& name, const topology::Topology& topo);

}  // namespace wormnet::core
