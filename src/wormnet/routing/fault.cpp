#include "wormnet/routing/fault.hpp"

#include <set>
#include <stdexcept>

namespace wormnet::routing {

FaultAwareRouting::FaultAwareRouting(const Topology& topo,
                                     std::unique_ptr<RoutingFunction> base,
                                     std::vector<bool> faulty)
    : RoutingFunction(topo), base_(std::move(base)), faulty_(std::move(faulty)) {
  if (faulty_.size() != topo.num_channels()) {
    throw std::invalid_argument("fault mask size mismatch");
  }
  for (bool f : faulty_) count_ += f ? 1 : 0;
}

std::string FaultAwareRouting::name() const {
  return base_->name() + "+faults(" + std::to_string(count_) + ")";
}

ChannelSet FaultAwareRouting::filter(ChannelSet set) const {
  std::erase_if(set, [this](ChannelId c) { return faulty_[c]; });
  return set;
}

ChannelSet FaultAwareRouting::route(ChannelId input, NodeId current,
                                    NodeId dest) const {
  return filter(base_->route(input, current, dest));
}

ChannelSet FaultAwareRouting::waiting(ChannelId input, NodeId current,
                                      NodeId dest) const {
  return filter(base_->waiting(input, current, dest));
}

std::size_t mark_link_faulty(const Topology& topo, NodeId src, NodeId dst,
                             std::vector<bool>& faulty) {
  faulty.resize(topo.num_channels(), false);
  std::size_t marked = 0;
  for (ChannelId c : topo.channels_between(src, dst)) {
    if (!faulty[c]) ++marked;
    faulty[c] = true;
  }
  return marked;
}

std::vector<bool> random_link_faults(const Topology& topo, std::size_t links,
                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<bool> faulty(topo.num_channels(), false);
  // Collect distinct physical links (src, dst pairs).
  std::set<std::pair<NodeId, NodeId>> all_links;
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    const auto& ch = topo.channel(c);
    all_links.emplace(ch.src, ch.dst);
  }
  std::vector<std::pair<NodeId, NodeId>> pool(all_links.begin(),
                                              all_links.end());
  links = std::min(links, pool.size());
  for (std::size_t i = 0; i < links; ++i) {
    const std::size_t pick = i + rng.below(pool.size() - i);
    std::swap(pool[i], pool[pick]);
    // Pool entries come from real channels, so every pick marks something.
    (void)mark_link_faulty(topo, pool[i].first, pool[i].second, faulty);
  }
  return faulty;
}

}  // namespace wormnet::routing
