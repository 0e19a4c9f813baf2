#include "wormnet/exp/analysis_cache.hpp"

#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace wormnet::exp {

template <typename Fill>
const AnalysisEntry& AnalysisCache::lookup_or_fill(const std::string& key,
                                                   Fill&& fill) {
  Slot* slot = nullptr;
  {
    std::lock_guard lock(registry_mutex_);
    auto& owned = slots_[key];
    if (!owned) owned = std::make_unique<Slot>();
    slot = owned.get();
  }
  // Fast path: already published (acquire pairs with the release below).
  if (slot->ready.load(std::memory_order_acquire)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return slot->entry;
  }
  std::lock_guard fill_lock(slot->fill);
  if (slot->ready.load(std::memory_order_acquire)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return slot->entry;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  slot->entry = fill();
  slot->ready.store(true, std::memory_order_release);
  return slot->entry;
}

void AnalysisCache::analyse(AnalysisEntry& entry, const std::string& topo_spec,
                            const std::string& transition,
                            const std::string& mask_hex, bool with_cwg) {
  const auto relation = reconfig::make_bound_relation(
      *entry.topo, entry.routing, transition, mask_hex);
  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  options.profiler = profiler_;
  if (certify_) {
    core::CertifiedVerdict certified =
        core::verify_certified(*entry.topo, *relation, options);
    entry.duato = std::move(certified.verdict);
    if (certified.certificate) {
      // Rebind the labels to the registry coordinates so the certificate
      // names the exact binding it was emitted for.
      certified.certificate->topology = topo_spec;
      certified.certificate->routing = entry.routing;
      certified.certificate->transition = transition;
      certified.certificate->fault_mask = mask_hex;
      entry.certificate = std::make_shared<const audit::Certificate>(
          std::move(*certified.certificate));
    }
  } else {
    entry.duato = core::verify(*entry.topo, *relation, options);
  }
  entry.certified = entry.duato.conclusion == core::Conclusion::kDeadlockFree;
  if (with_cwg) {
    options.method = core::Method::kCwg;
    entry.cwg = core::verify(*entry.topo, *relation, options);
  }
}

const AnalysisEntry& AnalysisCache::get(const std::string& topo_spec,
                                        const std::string& routing) {
  return lookup_or_fill(topo_spec + "|" + routing, [&] {
    obs::Profiler::Scope miss_timer(profiler_, "sweep.analysis");
    AnalysisEntry entry;
    entry.topo = std::make_shared<const topology::Topology>(
        core::make_topology(topo_spec));
    entry.routing = core::canonical_algorithm_name(routing, *entry.topo);
    analyse(entry, topo_spec, "", "", with_cwg_);
    return entry;
  });
}

const AnalysisEntry& AnalysisCache::get_epoch(
    const std::string& topo_spec, const std::string& routing,
    const reconfig::UnionSpec* transition, const std::string& mask_hex) {
  if (transition == nullptr && mask_hex.empty()) {
    return get(topo_spec, routing);
  }
  const std::string spec = transition ? transition->to_string() : "";
  std::string key =
      topo_spec + (transition ? "|transition|" + spec : "|" + routing);
  if (!mask_hex.empty()) key += "|" + mask_hex;
  return lookup_or_fill(key, [&] {
    // The pristine entry shares the topology and resolves the canonical
    // name; get() is safe to call here (it only ever takes registry_mutex_
    // and its own slot's fill mutex, never this one).
    const AnalysisEntry& base = get(topo_spec, routing);
    obs::Profiler::Scope miss_timer(profiler_, "sweep.epoch_reverify");
    AnalysisEntry entry;
    entry.topo = base.topo;
    entry.routing = base.routing;
    analyse(entry, topo_spec, spec, mask_hex, /*with_cwg=*/false);
    return entry;
  });
}

std::vector<CertificateRecord> AnalysisCache::certificates() {
  std::vector<CertificateRecord> out;
  std::lock_guard lock(registry_mutex_);
  for (const auto& [key, slot] : slots_) {
    if (!slot->ready.load(std::memory_order_acquire)) continue;
    if (slot->entry.certificate) {
      out.push_back({key, slot->entry.certificate});
    }
  }
  return out;
}

}  // namespace wormnet::exp
