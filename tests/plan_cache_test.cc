// PlanCache unit tests: hit/miss accounting, LRU eviction at kCapacity,
// table and cost-version invalidation, the stale -> Refresh re-optimization
// protocol, the plancache.* registry series, and a concurrent hammer for
// the sanitizers.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "adapt/plan_cache.h"
#include "obs/metrics.h"

namespace tango {
namespace {

using adapt::PlanCache;

adapt::PlanKey Key(uint64_t fingerprint, const std::string& config = "c") {
  adapt::PlanKey key;
  key.fingerprint = fingerprint;
  key.canon = std::string("Q").append(std::to_string(fingerprint));
  key.config_key = config;
  return key;
}

constexpr uint64_t kVersion = 1;

adapt::CachedPlan Plan(std::vector<std::string> tables = {"R"},
                       uint64_t cost_version = kVersion) {
  adapt::CachedPlan plan;
  plan.tables = std::move(tables);
  plan.cost_version = cost_version;
  return plan;
}

TEST(PlanCacheTest, MissInsertHit) {
  PlanCache cache;
  EXPECT_EQ(cache.Lookup(Key(1), kVersion), nullptr);
  const PlanCache::EntryPtr inserted = cache.Insert(Key(1), Plan());
  ASSERT_NE(inserted, nullptr);
  const PlanCache::EntryPtr found = cache.Lookup(Key(1), kVersion);
  EXPECT_EQ(found, inserted);
  EXPECT_EQ(cache.size(), 1u);
  const PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.inserts, 1u);
}

TEST(PlanCacheTest, ConfigKeySeparatesEntries) {
  // A degraded (site-restricted) plan lives under its own config key and
  // can never be returned for the unrestricted query.
  PlanCache cache;
  const auto primary = cache.Insert(Key(1, "restrict=0"), Plan());
  const auto degraded = cache.Insert(Key(1, "restrict=1"), Plan());
  EXPECT_NE(primary, degraded);
  EXPECT_EQ(cache.Lookup(Key(1, "restrict=0"), kVersion), primary);
  EXPECT_EQ(cache.Lookup(Key(1, "restrict=1"), kVersion), degraded);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache;
  for (uint64_t fp = 1; fp <= PlanCache::kCapacity; ++fp) {
    cache.Insert(Key(fp), Plan());
  }
  EXPECT_EQ(cache.size(), PlanCache::kCapacity);
  EXPECT_EQ(cache.counters().evictions, 0u);
  // Touch 1 so 2 is the least recently used.
  EXPECT_NE(cache.Lookup(Key(1), kVersion), nullptr);
  cache.Insert(Key(PlanCache::kCapacity + 1), Plan());
  EXPECT_EQ(cache.size(), PlanCache::kCapacity);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_NE(cache.Lookup(Key(1), kVersion), nullptr);
  EXPECT_EQ(cache.Lookup(Key(2), kVersion), nullptr);
  EXPECT_NE(cache.Lookup(Key(3), kVersion), nullptr);
  EXPECT_NE(cache.Lookup(Key(PlanCache::kCapacity + 1), kVersion), nullptr);
}

TEST(PlanCacheTest, ReinsertReplacesTheEntry) {
  PlanCache cache;
  const auto first = cache.Insert(Key(1), Plan());
  const auto second = cache.Insert(Key(1), Plan({"S"}));
  EXPECT_NE(first, second);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(Key(1), kVersion), second);
}

TEST(PlanCacheTest, InvalidateTablesIsCaseInsensitive) {
  PlanCache cache;
  cache.Insert(Key(1), Plan({"R"}));
  cache.Insert(Key(2), Plan({"S"}));
  cache.Insert(Key(3), Plan({"R", "S"}));
  cache.InvalidateTables({"r"});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().invalidations, 2u);
  EXPECT_EQ(cache.Lookup(Key(1), kVersion), nullptr);
  EXPECT_NE(cache.Lookup(Key(2), kVersion), nullptr);
  EXPECT_EQ(cache.Lookup(Key(3), kVersion), nullptr);
}

TEST(PlanCacheTest, CostDriftInvalidates) {
  PlanCache cache;
  cache.Insert(Key(1), Plan({"R"}, 1));
  // The version the entry was priced under: still a hit.
  EXPECT_NE(cache.Lookup(Key(1), 1), nullptr);
  // The cost model moved on (a factor drifted past its threshold): the
  // entry was priced under costs that no longer hold — invalidated,
  // reported as a miss.
  EXPECT_EQ(cache.Lookup(Key(1), 2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  const PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.invalidations, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
}

TEST(PlanCacheTest, StaleEntryIsReturnedAndRefreshClears) {
  PlanCache cache;
  const auto entry = cache.Insert(Key(1), Plan());
  entry->stale.store(true);
  // A stale entry IS handed back (the caller re-optimizes it in place),
  // counted separately from fresh hits.
  EXPECT_EQ(cache.Lookup(Key(1), kVersion), entry);
  EXPECT_EQ(cache.counters().stale_hits, 1u);
  EXPECT_EQ(cache.counters().hits, 0u);
  entry->Refresh(Plan({"R"}, 3));
  EXPECT_FALSE(entry->stale.load());
  EXPECT_EQ(entry->reoptimized.load(), 1u);
  ASSERT_NE(entry->plan(), nullptr);
  EXPECT_EQ(entry->plan()->cost_version, 3u);
  EXPECT_EQ(cache.Lookup(Key(1), 3), entry);
  EXPECT_EQ(cache.counters().hits, 1u);
}

// One miss, one hit, kCapacity + 1 inserts (one eviction), then every
// entry reading S (the even fingerprints) invalidated.
void RunMetricsScript(PlanCache* cache) {
  cache->Lookup(Key(1), kVersion);
  for (uint64_t fp = 1; fp <= PlanCache::kCapacity + 1; ++fp) {
    cache->Insert(Key(fp), Plan({fp % 2 == 0 ? "S" : "R"}));
    if (fp == 1) cache->Lookup(Key(1), kVersion);
  }
  cache->InvalidateTables({"S"});
}

TEST(PlanCacheTest, RegistryCountsEachEventOnce) {
  obs::MetricsRegistry metrics;
  PlanCache cache(&metrics);
  RunMetricsScript(&cache);
  // Fingerprint 1 was the LRU when 129 went in; 64 of the remaining 128
  // entries (2, 4, ..., 128) read S.
  const PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.stale_hits, 0u);
  EXPECT_EQ(c.inserts, PlanCache::kCapacity + 1);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.invalidations, PlanCache::kCapacity / 2);
  EXPECT_EQ(cache.size(), PlanCache::kCapacity / 2);
  EXPECT_EQ(metrics.counter("plancache.miss").load(), c.misses);
  EXPECT_EQ(metrics.counter("plancache.hit").load(), c.hits);
  EXPECT_EQ(metrics.counter("plancache.insert").load(), c.inserts);
  EXPECT_EQ(metrics.counter("plancache.eviction").load(), c.evictions);
  EXPECT_EQ(metrics.counter("plancache.invalidation").load(),
            c.invalidations);
  EXPECT_EQ(metrics.gauge("plancache.entries").load(),
            static_cast<int64_t>(cache.size()));

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.counters().invalidations, PlanCache::kCapacity);
  EXPECT_EQ(metrics.gauge("plancache.entries").load(), 0);
}

TEST(PlanCacheTest, CacheWithoutRegistryCountsPrivately) {
  // Built without a registry, a cache counts into one of its own: counters()
  // reads the same numbers back, and a second such cache starts at zero.
  PlanCache cache;
  RunMetricsScript(&cache);
  const PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.inserts, PlanCache::kCapacity + 1);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.invalidations, PlanCache::kCapacity / 2);

  PlanCache other;
  const PlanCache::Counters none = other.counters();
  EXPECT_EQ(none.misses + none.hits + none.inserts + none.evictions +
                none.invalidations,
            0u);
}

TEST(PlanCacheTest, ConcurrentHammer) {
  // Four threads over 400 fingerprints — more than kCapacity — so LRU
  // eviction, version invalidation on lookup, Refresh, stale marks,
  // InvalidateTables and Clear all race on the one mutex.
  PlanCache cache;
  constexpr int kThreads = 4;
  constexpr int kIterations = 800;
  constexpr uint64_t kFingerprints = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kIterations; ++i) {
        const uint64_t fp =
            static_cast<uint64_t>(t * 37 + i * 7) % kFingerprints + 1;
        // Every 23rd lookup comes at a later cost-model version: a resident
        // entry is invalidated.
        const uint64_t version = i % 23 == 0 ? kVersion + 1 : kVersion;
        const PlanCache::EntryPtr entry = cache.Lookup(Key(fp), version);
        if (entry == nullptr) {
          cache.Insert(Key(fp), Plan({fp % 2 == 0 ? "R" : "S"}));
        } else {
          entry->executions.fetch_add(1);
          if (i % 13 == 0) entry->stale.store(true);
          if (i % 17 == 0) entry->Refresh(Plan({fp % 2 == 0 ? "R" : "S"}));
          EXPECT_NE(entry->plan(), nullptr);
        }
        if (i % 97 == 0) cache.InvalidateTables({"R"});
        if (t == 0 && i == kIterations / 2) cache.Clear();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.stale_hits + c.misses,
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_GT(c.evictions, 0u);
  EXPECT_GT(c.invalidations, 0u);
  EXPECT_LE(cache.size(), PlanCache::kCapacity);
}

}  // namespace
}  // namespace tango
