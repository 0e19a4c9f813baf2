// Memoized static analysis for sweep grids.
//
// A sweep visits each (topology, routing) pair once per pattern × load ×
// replication, but CDG construction and the Duato / CWG verdicts depend
// only on the pair itself.  The cache computes them once per key and shares
// the result across every point and every worker thread; on the reference
// grids this turns thousands of checker invocations into a handful.
//
// Thread safety: keyed slots are created under a registry mutex, then each
// slot is filled under its own mutex — so two workers asking for the same
// uncached key block on that key only, while different keys compute
// concurrently.  Results are immutable once published.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wormnet/audit/certificate.hpp"
#include "wormnet/core/verdict.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::exp {

struct AnalysisEntry {
  std::shared_ptr<const topology::Topology> topo;
  std::string routing;  ///< canonical registry name
  core::Verdict duato;  ///< Method::kDuato verdict
  core::Verdict cwg;    ///< Method::kCwg verdict (kUnknown when disabled)
  /// True iff the Duato checker proved the pair deadlock-free — the
  /// certification the differential tests compare simulator behaviour
  /// against (a deadlock on a certified pair falsifies the theorem or,
  /// far more likely, the implementation).
  bool certified = false;
  /// Proof-carrying certificate for the decisive verdict, when emission is
  /// on and the verdict admits one.  Its topology/routing fields carry the
  /// registry spec + canonical name, fault_mask the epoch's hex mask, so
  /// `wormnet-audit` can rebuild the exact relation it speaks about.
  std::shared_ptr<const audit::Certificate> certificate;
};

/// One persisted certificate, in deterministic (cache-key) order.
struct CertificateRecord {
  std::string key;  ///< "topo|routing", "topo|routing|mask",
                    ///< "topo|transition|spec" or
                    ///< "topo|transition|spec|mask"
  std::shared_ptr<const audit::Certificate> certificate;
};

class AnalysisCache {
 public:
  /// `with_cwg` additionally runs the channel-waiting-graph reduction per
  /// key; off by default because sweeps only need the Duato certification.
  /// `profiler` (borrowed, nullable) times each cache miss as
  /// "sweep.analysis" / "sweep.epoch_reverify" and is passed down to the
  /// verifier for its per-method phases; hits cost nothing.
  /// `certify` additionally emits the proof-carrying certificate on every
  /// cache miss (verify_certified instead of verify); certificates persist
  /// alongside the verdicts and can be drained with certificates().
  explicit AnalysisCache(bool with_cwg = false,
                         obs::Profiler* profiler = nullptr,
                         bool certify = false)
      : with_cwg_(with_cwg), certify_(certify), profiler_(profiler) {}

  /// Returns the entry for (topology spec, canonical routing name),
  /// computing it on first use.  The reference stays valid for the cache's
  /// lifetime.  Throws std::invalid_argument for specs/names that do not
  /// resolve (expand() normally filters these out beforehand).
  const AnalysisEntry& get(const std::string& topo_spec,
                           const std::string& routing);

  /// Like get(), but for one verification epoch: the relation a certificate
  /// binding names (reconfig::make_bound_relation) — `routing` (the base:
  /// with a transition, the spec's first member), or the union relation of
  /// `transition` when non-null, degraded by the fault mask `mask_hex` when
  /// non-empty.  Keyed by (topo spec, routing or "transition|" + the spec,
  /// mask), so a sweep re-verifies each distinct fault, transition or
  /// composed epoch exactly once no matter how many points — or threads —
  /// pass through it.  Emitted certificates carry the same binding.  CWG
  /// analysis is never run for epochs (certification needs only the Duato
  /// verdict).  With neither a transition nor a mask this is get().
  const AnalysisEntry& get_epoch(const std::string& topo_spec,
                                 const std::string& routing,
                                 const reconfig::UnionSpec* transition,
                                 const std::string& mask_hex);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// Snapshot of every emitted certificate, in cache-key order (so output
  /// is deterministic regardless of which threads filled which slots).
  /// Empty unless constructed with certify = true.
  [[nodiscard]] std::vector<CertificateRecord> certificates();

 private:
  struct Slot {
    std::mutex fill;
    std::atomic<bool> ready{false};
    AnalysisEntry entry;
  };

  /// The slot for `key`, filled by `fill()` on first use (double-checked:
  /// only the first caller computes; the rest count a hit).
  template <typename Fill>
  const AnalysisEntry& lookup_or_fill(const std::string& key, Fill&& fill);

  /// Verifies the binding (entry.topo, entry.routing, transition, mask_hex)
  /// into `entry`, emitting and stamping its certificate when on.
  void analyse(AnalysisEntry& entry, const std::string& topo_spec,
               const std::string& transition, const std::string& mask_hex,
               bool with_cwg);

  bool with_cwg_;
  bool certify_;
  obs::Profiler* profiler_;
  std::mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace wormnet::exp
