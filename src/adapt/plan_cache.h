#ifndef TANGO_ADAPT_PLAN_CACHE_H_
#define TANGO_ADAPT_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "obs/metrics.h"
#include "optimizer/phys.h"

namespace tango {
namespace adapt {

/// Middleware::Config::plan_cache knobs.
struct PlanCacheConfig {
  /// Master switch: off reproduces the pre-adaptive behavior (every Query
  /// re-optimizes from scratch).
  bool enable = true;
  /// Total cached plans across all shards; least-recently-used entries are
  /// evicted per shard.
  size_t capacity = 128;
  size_t shards = 4;
  /// A node whose estimate-vs-actual Q-error exceeds this bound marks its
  /// entry stale; the next lookup re-optimizes with observed cardinalities.
  double q_error_bound = 4.0;
  /// Maximum relative drift of any cost factor from the snapshot taken at
  /// optimization time before the entry is invalidated (the cached plan was
  /// chosen under prices that no longer hold).
  double cost_drift_threshold = 0.5;
  /// Byte budget for cached plan payloads (approximate footprint of the
  /// logical + physical trees and their strings), enforced per shard like
  /// `capacity`: inserts evict least-recently-used entries until the shard
  /// is back under budget (an entry is never evicted to below one entry per
  /// shard). 0 = unbounded. A process-wide cache shared by a server's
  /// worker pool needs this — entry *count* says nothing about memory when
  /// query shapes vary.
  size_t byte_budget = 0;
  /// Age-out: an entry whose fingerprint has not been looked up for this
  /// many lookups on its shard is evicted on the next lookup that scans
  /// past it (the query went cold; its memory is better spent on live
  /// fingerprints). 0 disables.
  size_t max_idle_lookups = 0;
};

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
  /// Cost factors at optimization time, for drift detection.
  std::vector<double> factor_snapshot;
};

/// Approximate in-memory footprint of a cache payload: both plan trees
/// (every node, its strings, expressions and schema columns) plus the
/// invalidation table list and factor snapshot. Deterministic, so tests can
/// reason about byte-budget eviction; structural sharing between the trees
/// is deliberately double-counted (an eviction must be credited with the
/// whole payload it pins).
size_t EstimateCachedPlanBytes(const CachedPlan& plan);

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

/// \brief Thread-safe sharded LRU of optimized plans with hit/miss/
/// eviction/invalidation accounting, mirrored into a MetricsRegistry as the
/// plancache.* series when one is attached.
class PlanCache {
 public:
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
    /// "executions=N, reoptimized=K" provenance reads them. The owning
    /// cache's byte accounting follows the payload swap.
    void Refresh(CachedPlan updated);

    /// Approximate payload footprint (maintained by the owning cache).
    size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

    std::atomic<uint64_t> executions{0};
    std::atomic<uint64_t> reoptimized{0};
    /// Set when an execution's worst Q-error exceeded the bound; the next
    /// lookup re-optimizes instead of reusing the payload.
    std::atomic<bool> stale{false};

   private:
    friend class PlanCache;
    mutable std::mutex mu_;
    std::shared_ptr<const CachedPlan> plan_;
    std::atomic<size_t> bytes_{0};
    /// The cache accounting this entry's bytes (null for a detached entry);
    /// set at Insert, before the entry is visible to any other thread.
    PlanCache* owner_ = nullptr;
    size_t shard_index_ = 0;
    /// Shard lookup sequence at this entry's last hit — the age-out clock.
    /// Guarded by the shard mutex.
    uint64_t last_seen_lookup_ = 0;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// `metrics` may be null (standalone/unit-test use); counters are then
  /// kept locally only.
  explicit PlanCache(const PlanCacheConfig& config,
                     obs::MetricsRegistry* metrics = nullptr);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry for `key`, or nullptr on a miss. An entry whose cost
  /// factors drifted past the threshold is invalidated and reported as a
  /// miss. A stale entry IS returned (counted as plancache.stale_hit) — the
  /// caller re-optimizes and Refreshes it in place.
  EntryPtr Lookup(const PlanKey& key,
                  const std::vector<double>& current_factors);

  /// Inserts (or replaces) the entry for `key`, evicting the shard's least
  /// recently used entry beyond capacity. Returns the inserted entry.
  EntryPtr Insert(const PlanKey& key, CachedPlan plan);

  /// Drops every entry reading one of `tables` (CollectStatistics / schema
  /// change ran — the stats the plans were costed under are gone).
  void InvalidateTables(const std::vector<std::string>& tables);

  /// Drops everything (tests; full statistics refresh).
  void Clear();

  size_t size() const;
  /// Approximate bytes of all cached payloads (the plancache.bytes gauge).
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_hits = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    /// Evictions caused by the idle-lookup age-out (also counted in
    /// `evictions`).
    uint64_t age_outs = 0;
  };
  Counters counters() const;

 private:
  friend class Entry;

  struct Shard {
    mutable std::mutex mu;
    /// Most recently used at the front.
    std::list<std::pair<PlanKey, EntryPtr>> lru;
    std::map<std::string, std::list<std::pair<PlanKey, EntryPtr>>::iterator>
        index;
    /// Lookups served by this shard (hit or miss) — the age-out clock
    /// entries' last_seen_lookup_ is compared against. Guarded by `mu`.
    uint64_t lookup_seq = 0;
    /// Sum of the resident entries' payload bytes. Atomic so Entry::Refresh
    /// can adjust it without taking `mu` (no nested entry/shard locking).
    std::atomic<int64_t> bytes{0};
  };

  size_t ShardIndexOf(const PlanKey& key) const;
  Shard& ShardOf(const PlanKey& key) { return *shards_[ShardIndexOf(key)]; }
  static std::string IndexKey(const PlanKey& key);
  bool Drifted(const CachedPlan& plan,
               const std::vector<double>& current_factors) const;
  /// Pops the shard's LRU tail (never the listed survivor), crediting the
  /// freed bytes. Returns false when nothing could be evicted. Caller holds
  /// `shard.mu` and reports the metrics afterwards.
  bool EvictTailLocked(Shard* shard, const EntryPtr& survivor);
  /// Entry::Refresh swapped a payload of `old_bytes` for `new_bytes`.
  void OnEntryResized(size_t shard_index, size_t old_bytes, size_t new_bytes);

  const PlanCacheConfig config_;
  const size_t per_shard_capacity_;
  const size_t per_shard_byte_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_hits_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> age_outs_{0};
  std::atomic<size_t> bytes_{0};

  // Mirrored registry instruments (null when no registry is attached).
  obs::Counter* m_hit_ = nullptr;
  obs::Counter* m_miss_ = nullptr;
  obs::Counter* m_stale_hit_ = nullptr;
  obs::Counter* m_insert_ = nullptr;
  obs::Counter* m_eviction_ = nullptr;
  obs::Counter* m_invalidation_ = nullptr;
  obs::Counter* m_age_out_ = nullptr;
  obs::Gauge* m_entries_ = nullptr;
  obs::Gauge* m_bytes_ = nullptr;
};

}  // namespace adapt
}  // namespace tango

#endif  // TANGO_ADAPT_PLAN_CACHE_H_
