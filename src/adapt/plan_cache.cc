#include "adapt/plan_cache.h"

#include <algorithm>
#include <cmath>

namespace tango {
namespace adapt {

namespace {

size_t ExprBytes(const ExprPtr& e) {
  if (e == nullptr) return 0;
  size_t n = sizeof(Expr) + e->table.size() + e->name.size() +
             e->function.size() + e->literal.ByteSize();
  for (const ExprPtr& c : e->children) n += ExprBytes(c);
  return n;
}

size_t SchemaBytes(const Schema& schema) {
  size_t n = sizeof(Schema);
  for (const Column& c : schema.columns()) {
    n += sizeof(Column) + c.table.size() + c.name.size();
  }
  return n;
}

size_t OpBytes(const algebra::OpPtr& op) {
  if (op == nullptr) return 0;
  size_t n = sizeof(algebra::Op) + op->table.size() + op->alias.size() +
             SchemaBytes(op->schema) + ExprBytes(op->predicate);
  for (const algebra::ProjectItem& item : op->items) {
    n += item.name.size() + item.qualifier.size() + ExprBytes(item.expr);
  }
  for (const algebra::SortSpec& s : op->sort_keys) n += s.attr.size();
  for (const auto& [l, r] : op->join_attrs) n += l.size() + r.size();
  for (const std::string& g : op->group_by) n += g.size();
  for (const algebra::OpPtr& c : op->children) n += OpBytes(c);
  return n;
}

size_t PhysBytes(const optimizer::PhysPlanPtr& plan) {
  if (plan == nullptr) return 0;
  size_t n = sizeof(optimizer::PhysPlan) + OpBytes(plan->op);
  for (const algebra::SortSpec& s : plan->order) n += s.attr.size();
  for (const optimizer::PhysPlanPtr& c : plan->children) n += PhysBytes(c);
  return n;
}

}  // namespace

size_t EstimateCachedPlanBytes(const CachedPlan& plan) {
  size_t n = sizeof(CachedPlan) + OpBytes(plan.initial_plan) +
             PhysBytes(plan.plan) +
             plan.factor_snapshot.size() * sizeof(double);
  for (const std::string& t : plan.tables) n += t.size() + sizeof(std::string);
  return n;
}

void PlanCache::Entry::Refresh(CachedPlan updated) {
  const size_t new_bytes = EstimateCachedPlanBytes(updated);
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = std::make_shared<const CachedPlan>(std::move(updated));
  }
  // Byte accounting after the entry lock is released — the owner touches
  // shard state and the entry lock must never nest around it.
  const size_t old_bytes = bytes_.exchange(new_bytes, std::memory_order_relaxed);
  if (owner_ != nullptr) owner_->OnEntryResized(shard_index_, old_bytes, new_bytes);
  reoptimized.fetch_add(1, std::memory_order_relaxed);
  stale.store(false, std::memory_order_relaxed);
}

PlanCache::PlanCache(const PlanCacheConfig& config,
                     obs::MetricsRegistry* metrics)
    : config_(config),
      per_shard_capacity_(std::max<size_t>(
          1, (std::max<size_t>(1, config.capacity) +
              std::max<size_t>(1, config.shards) - 1) /
                 std::max<size_t>(1, config.shards))),
      per_shard_byte_budget_(
          config.byte_budget == 0
              ? 0
              : std::max<size_t>(1, config.byte_budget /
                                        std::max<size_t>(1, config.shards))) {
  const size_t n = std::max<size_t>(1, config.shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  if (metrics != nullptr) {
    m_hit_ = &metrics->counter("plancache.hit");
    m_miss_ = &metrics->counter("plancache.miss");
    m_stale_hit_ = &metrics->counter("plancache.stale_hit");
    m_insert_ = &metrics->counter("plancache.insert");
    m_eviction_ = &metrics->counter("plancache.eviction");
    m_invalidation_ = &metrics->counter("plancache.invalidation");
    m_age_out_ = &metrics->counter("plancache.age_out");
    m_entries_ = &metrics->gauge("plancache.entries");
    m_bytes_ = &metrics->gauge("plancache.bytes");
  }
}

size_t PlanCache::ShardIndexOf(const PlanKey& key) const {
  // Splash the fingerprint so nearby hashes land on different shards.
  const uint64_t h = key.fingerprint * 0x9e3779b97f4a7c15ull;
  return (h >> 32) % shards_.size();
}

std::string PlanCache::IndexKey(const PlanKey& key) {
  return std::to_string(key.fingerprint) + "|" + key.config_key + "|" +
         key.canon;
}

bool PlanCache::Drifted(const CachedPlan& plan,
                        const std::vector<double>& current_factors) const {
  if (plan.factor_snapshot.size() != current_factors.size()) {
    return !plan.factor_snapshot.empty() || !current_factors.empty();
  }
  for (size_t i = 0; i < current_factors.size(); ++i) {
    const double old_f = plan.factor_snapshot[i];
    const double denom = std::max(std::abs(old_f), 1e-12);
    if (std::abs(current_factors[i] - old_f) / denom >
        config_.cost_drift_threshold) {
      return true;
    }
  }
  return false;
}

bool PlanCache::EvictTailLocked(Shard* shard, const EntryPtr& survivor) {
  if (shard->lru.empty()) return false;
  const EntryPtr& victim = shard->lru.back().second;
  if (victim == survivor) return false;
  const size_t freed = victim->bytes();
  shard->bytes.fetch_sub(static_cast<int64_t>(freed),
                         std::memory_order_relaxed);
  bytes_.fetch_sub(freed, std::memory_order_relaxed);
  shard->index.erase(IndexKey(shard->lru.back().first));
  shard->lru.pop_back();
  return true;
}

void PlanCache::OnEntryResized(size_t shard_index, size_t old_bytes,
                               size_t new_bytes) {
  const int64_t delta =
      static_cast<int64_t>(new_bytes) - static_cast<int64_t>(old_bytes);
  if (delta == 0) return;
  shards_[shard_index]->bytes.fetch_add(delta, std::memory_order_relaxed);
  if (delta > 0) {
    bytes_.fetch_add(static_cast<size_t>(delta), std::memory_order_relaxed);
  } else {
    bytes_.fetch_sub(static_cast<size_t>(-delta), std::memory_order_relaxed);
  }
  if (m_bytes_ != nullptr) m_bytes_->Set(static_cast<int64_t>(bytes()));
  // A Refresh that grew the payload past the shard budget is reconciled by
  // the next Insert on the shard; reclaiming here would need the shard lock
  // under a path that may already be inside a lookup.
}

PlanCache::EntryPtr PlanCache::Lookup(
    const PlanKey& key, const std::vector<double>& current_factors) {
  Shard& shard = ShardOf(key);
  const std::string ik = IndexKey(key);
  EntryPtr entry;
  bool drifted = false;
  size_t aged_out = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.lookup_seq;
    const auto it = shard.index.find(ik);
    if (it != shard.index.end()) {
      entry = it->second->second;
      const auto plan = entry->plan();
      if (plan != nullptr && Drifted(*plan, current_factors)) {
        const size_t freed = entry->bytes();
        shard.bytes.fetch_sub(static_cast<int64_t>(freed),
                              std::memory_order_relaxed);
        bytes_.fetch_sub(freed, std::memory_order_relaxed);
        shard.lru.erase(it->second);
        shard.index.erase(it);
        drifted = true;
        entry = nullptr;
      } else {
        // Touch: move to the front of the shard's LRU list and restamp the
        // age-out clock.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        entry->last_seen_lookup_ = shard.lookup_seq;
      }
    }
    // Age-out sweep: entries at the cold end whose fingerprint has not been
    // looked up for max_idle_lookups shard lookups are dropped. The LRU
    // order makes the tail the oldest stamp, so the sweep stops at the
    // first live entry.
    if (config_.max_idle_lookups > 0) {
      while (!shard.lru.empty()) {
        const EntryPtr& tail = shard.lru.back().second;
        if (tail == entry) break;
        if (shard.lookup_seq - tail->last_seen_lookup_ <=
            config_.max_idle_lookups) {
          break;
        }
        if (!EvictTailLocked(&shard, entry)) break;
        ++aged_out;
      }
    }
  }
  if (drifted) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (m_invalidation_ != nullptr) m_invalidation_->Increment();
    if (m_entries_ != nullptr) m_entries_->Decrement();
  }
  if (aged_out > 0) {
    age_outs_.fetch_add(aged_out, std::memory_order_relaxed);
    evictions_.fetch_add(aged_out, std::memory_order_relaxed);
    if (m_age_out_ != nullptr) m_age_out_->Increment(aged_out);
    if (m_eviction_ != nullptr) m_eviction_->Increment(aged_out);
    if (m_entries_ != nullptr) {
      m_entries_->Decrement(static_cast<int64_t>(aged_out));
    }
    if (m_bytes_ != nullptr) {
      m_bytes_->Set(static_cast<int64_t>(bytes()));
    }
  }
  if (entry == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (m_miss_ != nullptr) m_miss_->Increment();
    return nullptr;
  }
  if (entry->stale.load(std::memory_order_relaxed)) {
    stale_hits_.fetch_add(1, std::memory_order_relaxed);
    if (m_stale_hit_ != nullptr) m_stale_hit_->Increment();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (m_hit_ != nullptr) m_hit_->Increment();
  }
  return entry;
}

PlanCache::EntryPtr PlanCache::Insert(const PlanKey& key, CachedPlan plan) {
  const size_t shard_index = ShardIndexOf(key);
  Shard& shard = *shards_[shard_index];
  const std::string ik = IndexKey(key);
  const size_t entry_bytes = EstimateCachedPlanBytes(plan);
  auto entry = std::make_shared<Entry>();
  entry->plan_ = std::make_shared<const CachedPlan>(std::move(plan));
  entry->bytes_.store(entry_bytes, std::memory_order_relaxed);
  entry->owner_ = this;
  entry->shard_index_ = shard_index;
  size_t evicted = 0;
  bool replaced = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(ik);
    if (it != shard.index.end()) {
      const size_t freed = it->second->second->bytes();
      shard.bytes.fetch_sub(static_cast<int64_t>(freed),
                            std::memory_order_relaxed);
      bytes_.fetch_sub(freed, std::memory_order_relaxed);
      shard.lru.erase(it->second);
      shard.index.erase(it);
      replaced = true;
    }
    shard.lru.emplace_front(key, entry);
    shard.index[ik] = shard.lru.begin();
    entry->last_seen_lookup_ = shard.lookup_seq;
    shard.bytes.fetch_add(static_cast<int64_t>(entry_bytes),
                          std::memory_order_relaxed);
    bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
    while (shard.lru.size() > per_shard_capacity_) {
      if (!EvictTailLocked(&shard, entry)) break;
      ++evicted;
    }
    if (per_shard_byte_budget_ > 0) {
      while (shard.lru.size() > 1 &&
             shard.bytes.load(std::memory_order_relaxed) >
                 static_cast<int64_t>(per_shard_byte_budget_)) {
        if (!EvictTailLocked(&shard, entry)) break;
        ++evicted;
      }
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (m_insert_ != nullptr) m_insert_->Increment();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (m_eviction_ != nullptr) m_eviction_->Increment(evicted);
  }
  const int64_t delta = 1 - static_cast<int64_t>(replaced ? 1 : 0) -
                        static_cast<int64_t>(evicted);
  if (m_entries_ != nullptr && delta != 0) m_entries_->Increment(delta);
  if (m_bytes_ != nullptr) m_bytes_->Set(static_cast<int64_t>(bytes()));
  return entry;
}

void PlanCache::InvalidateTables(const std::vector<std::string>& tables) {
  if (tables.empty()) return;
  std::vector<std::string> upper;
  upper.reserve(tables.size());
  for (const std::string& t : tables) upper.push_back(ToUpper(t));
  size_t dropped = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const auto plan = it->second->plan();
      const bool reads_one =
          plan != nullptr &&
          std::any_of(upper.begin(), upper.end(), [&](const std::string& t) {
            return std::find(plan->tables.begin(), plan->tables.end(), t) !=
                   plan->tables.end();
          });
      if (reads_one) {
        const size_t freed = it->second->bytes();
        shard->bytes.fetch_sub(static_cast<int64_t>(freed),
                               std::memory_order_relaxed);
        bytes_.fetch_sub(freed, std::memory_order_relaxed);
        shard->index.erase(IndexKey(it->first));
        it = shard->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    if (m_invalidation_ != nullptr) m_invalidation_->Increment(dropped);
    if (m_entries_ != nullptr) {
      m_entries_->Decrement(static_cast<int64_t>(dropped));
    }
    if (m_bytes_ != nullptr) m_bytes_->Set(static_cast<int64_t>(bytes()));
  }
}

void PlanCache::Clear() {
  size_t dropped = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    dropped += shard->lru.size();
    shard->lru.clear();
    shard->index.clear();
    const int64_t freed = shard->bytes.exchange(0, std::memory_order_relaxed);
    if (freed > 0) {
      bytes_.fetch_sub(static_cast<size_t>(freed), std::memory_order_relaxed);
    }
  }
  if (dropped > 0) {
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    if (m_invalidation_ != nullptr) m_invalidation_->Increment(dropped);
    if (m_entries_ != nullptr) {
      m_entries_->Decrement(static_cast<int64_t>(dropped));
    }
    if (m_bytes_ != nullptr) m_bytes_->Set(static_cast<int64_t>(bytes()));
  }
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

PlanCache::Counters PlanCache::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.invalidations = invalidations_.load(std::memory_order_relaxed);
  c.age_outs = age_outs_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace adapt
}  // namespace tango
