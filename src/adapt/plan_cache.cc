#include "adapt/plan_cache.h"

#include <algorithm>
#include <iterator>

namespace tango {
namespace adapt {

namespace {

std::string IndexKey(const PlanKey& key) {
  return std::to_string(key.fingerprint) + "|" + key.config_key + "|" +
         key.canon;
}

}  // namespace

void PlanCache::Entry::Refresh(CachedPlan updated) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = std::make_shared<const CachedPlan>(std::move(updated));
  }
  reoptimized.fetch_add(1, std::memory_order_relaxed);
  stale.store(false, std::memory_order_relaxed);
}

PlanCache::PlanCache(obs::MetricsRegistry* metrics)
    : owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(metrics != nullptr ? *metrics : *owned_metrics_),
      hit_(metrics_.counter("plancache.hit")),
      miss_(metrics_.counter("plancache.miss")),
      stale_hit_(metrics_.counter("plancache.stale_hit")),
      insert_(metrics_.counter("plancache.insert")),
      eviction_(metrics_.counter("plancache.eviction")),
      invalidation_(metrics_.counter("plancache.invalidation")),
      entries_(metrics_.gauge("plancache.entries")) {}

PlanCache::Lru::iterator PlanCache::EraseLocked(Lru::iterator it) {
  index_.erase(it->first);
  entries_.Decrement();
  return lru_.erase(it);
}

PlanCache::EntryPtr PlanCache::Lookup(const PlanKey& key,
                                      uint64_t cost_version) {
  const std::string ik = IndexKey(key);
  EntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(ik);
    if (it != index_.end()) {
      const auto plan = it->second->second->plan();
      if (plan != nullptr && plan->cost_version != cost_version) {
        EraseLocked(it->second);
        ++invalidation_;
      } else {
        entry = it->second->second;
        lru_.splice(lru_.begin(), lru_, it->second);
      }
    }
  }
  if (entry == nullptr) {
    ++miss_;
  } else if (entry->stale.load(std::memory_order_relaxed)) {
    ++stale_hit_;
  } else {
    ++hit_;
  }
  return entry;
}

PlanCache::EntryPtr PlanCache::Insert(const PlanKey& key, CachedPlan plan) {
  auto entry = std::make_shared<Entry>();
  entry->plan_ = std::make_shared<const CachedPlan>(std::move(plan));
  std::string ik = IndexKey(key);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(ik);
  if (it != index_.end()) EraseLocked(it->second);
  lru_.emplace_front(ik, entry);
  index_.emplace(std::move(ik), lru_.begin());
  entries_.Increment();
  ++insert_;
  while (lru_.size() > kCapacity) {
    EraseLocked(std::prev(lru_.end()));
    ++eviction_;
  }
  return entry;
}

void PlanCache::InvalidateTables(const std::vector<std::string>& tables) {
  if (tables.empty()) return;
  std::vector<std::string> upper;
  upper.reserve(tables.size());
  for (const std::string& t : tables) upper.push_back(ToUpper(t));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto plan = it->second->plan();
    const bool reads_one =
        plan != nullptr &&
        std::any_of(upper.begin(), upper.end(), [&](const std::string& t) {
          return std::find(plan->tables.begin(), plan->tables.end(), t) !=
                 plan->tables.end();
        });
    if (reads_one) {
      it = EraseLocked(it);
      ++invalidation_;
    } else {
      ++it;
    }
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidation_.Increment(lru_.size());
  entries_.Decrement(static_cast<int64_t>(lru_.size()));
  lru_.clear();
  index_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Counters PlanCache::counters() const {
  Counters c;
  c.hits = hit_.load();
  c.misses = miss_.load();
  c.stale_hits = stale_hit_.load();
  c.inserts = insert_.load();
  c.evictions = eviction_.load();
  c.invalidations = invalidation_.load();
  return c;
}

}  // namespace adapt
}  // namespace tango
