#ifndef TANGO_ADAPT_PLAN_CACHE_H_
#define TANGO_ADAPT_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "algebra/algebra.h"
#include "obs/metrics.h"
#include "optimizer/phys.h"

namespace tango {
namespace adapt {

/// The plan payload of one cache entry. Both plans are parameterized
/// (literal sites tagged with Expr::param_id) so a hit rebinds fresh
/// literals without re-optimizing.
struct CachedPlan {
  algebra::OpPtr initial_plan;
  optimizer::PhysPlanPtr plan;
  size_t num_classes = 0;
  size_t num_elements = 0;
  size_t num_physical = 0;
  /// Base relations the plan reads — invalidation targets.
  std::vector<std::string> tables;
  /// The cost model's version the plan was priced under
  /// (cost::CostModel::Version).
  uint64_t cost_version = 0;
};

/// Cache key: the query fingerprint plus every plan-relevant config
/// dimension (histogram flags, SiteRestriction, ...). Degraded
/// fallback plans thus live under their restricted key only — a transient
/// outage cannot poison the primary entry.
struct PlanKey {
  uint64_t fingerprint = 0;
  /// Canonical form, kept as a hash-collision guard.
  std::string canon;
  /// Encoded plan-relevant configuration.
  std::string config_key;

  bool operator==(const PlanKey&) const = default;
};

/// \brief Thread-safe LRU of optimized plans: one list and one index under
/// one mutex. Every hit, miss, insert, eviction and invalidation is counted
/// once, in a MetricsRegistry, as the plancache.* series.
class PlanCache {
 public:
  /// Cached plans; an insert past this evicts the least recently used.
  static constexpr size_t kCapacity = 128;
  /// An execution whose worst estimate-vs-actual Q-error exceeds this marks
  /// its entry stale; the next lookup re-optimizes with the observed
  /// cardinalities (Middleware::RecordCardinalityFeedback).
  static constexpr double kStaleQError = 4.0;

  /// One cached fingerprint. The payload swaps atomically under `Refresh`
  /// (re-optimization); execution and staleness bookkeeping are lock-free.
  class Entry {
   public:
    std::shared_ptr<const CachedPlan> plan() const {
      std::lock_guard<std::mutex> lock(mu_);
      return plan_;
    }

    /// Swaps in a re-optimized payload, clears staleness, and counts the
    /// re-optimization. Execution counters survive — EXPLAIN's
    /// "executions=N, reoptimized=K" provenance reads them.
    void Refresh(CachedPlan updated);

    std::atomic<uint64_t> executions{0};
    std::atomic<uint64_t> reoptimized{0};
    /// Set when an execution's worst Q-error exceeded kStaleQError; the
    /// next lookup re-optimizes instead of reusing the payload.
    std::atomic<bool> stale{false};

   private:
    friend class PlanCache;
    mutable std::mutex mu_;
    std::shared_ptr<const CachedPlan> plan_;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Counts into `metrics`; null = own a private registry (unit tests).
  explicit PlanCache(obs::MetricsRegistry* metrics = nullptr);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry for `key`, or nullptr on a miss. An entry priced
  /// under another cost-model version than `cost_version` is invalidated
  /// and reported as a miss: its prices no longer hold. A stale entry IS
  /// returned (counted as plancache.stale_hit) — the caller re-optimizes
  /// and Refreshes it in place.
  EntryPtr Lookup(const PlanKey& key, uint64_t cost_version);

  /// Inserts (or replaces) the entry for `key`, evicting the least recently
  /// used entry beyond kCapacity. Returns the inserted entry.
  EntryPtr Insert(const PlanKey& key, CachedPlan plan);

  /// Drops every entry reading one of `tables` (CollectStatistics / schema
  /// change ran — the stats the plans were costed under are gone).
  void InvalidateTables(const std::vector<std::string>& tables);

  /// Drops everything (tests; full statistics refresh).
  void Clear();

  size_t size() const;

  /// The plancache.* counters, read back from the registry (which sums
  /// every cache counting into it).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_hits = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };
  Counters counters() const;

 private:
  /// Most recently used at the front; each node keeps its index key.
  using Lru = std::list<std::pair<std::string, EntryPtr>>;

  /// Unlinks one entry from the list and the index. Caller holds `mu_`.
  Lru::iterator EraseLocked(Lru::iterator it);

  // Declared (and therefore initialized) before the instruments below.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry& metrics_;
  obs::Counter& hit_;
  obs::Counter& miss_;
  obs::Counter& stale_hit_;
  obs::Counter& insert_;
  obs::Counter& eviction_;
  obs::Counter& invalidation_;
  obs::Gauge& entries_;

  mutable std::mutex mu_;
  Lru lru_;
  std::map<std::string, Lru::iterator> index_;
};

}  // namespace adapt
}  // namespace tango

#endif  // TANGO_ADAPT_PLAN_CACHE_H_
