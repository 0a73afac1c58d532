// PlanCache unit tests: hit/miss accounting, per-shard LRU eviction, table
// and cost-drift invalidation, the stale -> Refresh re-optimization
// protocol, metrics mirroring, and a concurrent hammer for the sanitizers.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "adapt/plan_cache.h"
#include "obs/metrics.h"

namespace tango {
namespace {

adapt::PlanKey Key(uint64_t fingerprint, const std::string& config = "c") {
  adapt::PlanKey key;
  key.fingerprint = fingerprint;
  key.canon = std::string("Q").append(std::to_string(fingerprint));
  key.config_key = config;
  return key;
}

adapt::CachedPlan Plan(std::vector<std::string> tables = {"R"},
                       std::vector<double> snapshot = {1.0, 2.0}) {
  adapt::CachedPlan plan;
  plan.tables = std::move(tables);
  plan.factor_snapshot = std::move(snapshot);
  return plan;
}

TEST(PlanCacheTest, MissInsertHit) {
  adapt::PlanCache cache(adapt::PlanCacheConfig{});
  EXPECT_EQ(cache.Lookup(Key(1), {1.0, 2.0}), nullptr);
  const adapt::PlanCache::EntryPtr inserted = cache.Insert(Key(1), Plan());
  ASSERT_NE(inserted, nullptr);
  const adapt::PlanCache::EntryPtr found = cache.Lookup(Key(1), {1.0, 2.0});
  EXPECT_EQ(found, inserted);
  EXPECT_EQ(cache.size(), 1u);
  const adapt::PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.inserts, 1u);
}

TEST(PlanCacheTest, ConfigKeySeparatesEntries) {
  // A degraded (site-restricted) plan lives under its own config key and
  // can never be returned for the unrestricted query.
  adapt::PlanCache cache(adapt::PlanCacheConfig{});
  const auto primary = cache.Insert(Key(1, "restrict=0"), Plan());
  const auto degraded = cache.Insert(Key(1, "restrict=1"), Plan());
  EXPECT_NE(primary, degraded);
  EXPECT_EQ(cache.Lookup(Key(1, "restrict=0"), {1.0, 2.0}), primary);
  EXPECT_EQ(cache.Lookup(Key(1, "restrict=1"), {1.0, 2.0}), degraded);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, LruEvictionPerShard) {
  adapt::PlanCacheConfig config;
  config.capacity = 2;
  config.shards = 1;
  adapt::PlanCache cache(config);
  cache.Insert(Key(1), Plan());
  cache.Insert(Key(2), Plan());
  // Touch 1 so 2 is the least recently used.
  EXPECT_NE(cache.Lookup(Key(1), {1.0, 2.0}), nullptr);
  cache.Insert(Key(3), Plan());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_NE(cache.Lookup(Key(1), {1.0, 2.0}), nullptr);
  EXPECT_EQ(cache.Lookup(Key(2), {1.0, 2.0}), nullptr);
  EXPECT_NE(cache.Lookup(Key(3), {1.0, 2.0}), nullptr);
}

TEST(PlanCacheTest, InvalidateTablesIsCaseInsensitive) {
  adapt::PlanCache cache(adapt::PlanCacheConfig{});
  cache.Insert(Key(1), Plan({"R"}));
  cache.Insert(Key(2), Plan({"S"}));
  cache.Insert(Key(3), Plan({"R", "S"}));
  cache.InvalidateTables({"r"});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().invalidations, 2u);
  EXPECT_EQ(cache.Lookup(Key(1), {1.0, 2.0}), nullptr);
  EXPECT_NE(cache.Lookup(Key(2), {1.0, 2.0}), nullptr);
  EXPECT_EQ(cache.Lookup(Key(3), {1.0, 2.0}), nullptr);
}

TEST(PlanCacheTest, CostDriftInvalidates) {
  adapt::PlanCacheConfig config;
  config.cost_drift_threshold = 0.5;
  adapt::PlanCache cache(config);
  cache.Insert(Key(1), Plan({"R"}, {1.0, 2.0}));
  // Within the threshold: still a hit.
  EXPECT_NE(cache.Lookup(Key(1), {1.2, 2.0}), nullptr);
  // A factor doubled (relative drift 1.0 > 0.5): the entry was priced under
  // costs that no longer hold — invalidated, reported as a miss.
  EXPECT_EQ(cache.Lookup(Key(1), {2.0, 2.0}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  const adapt::PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.invalidations, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
}

TEST(PlanCacheTest, StaleEntryIsReturnedAndRefreshClears) {
  adapt::PlanCache cache(adapt::PlanCacheConfig{});
  const auto entry = cache.Insert(Key(1), Plan());
  entry->stale.store(true);
  // A stale entry IS handed back (the caller re-optimizes it in place),
  // counted separately from fresh hits.
  EXPECT_EQ(cache.Lookup(Key(1), {1.0, 2.0}), entry);
  EXPECT_EQ(cache.counters().stale_hits, 1u);
  EXPECT_EQ(cache.counters().hits, 0u);
  entry->Refresh(Plan({"R"}, {3.0, 4.0}));
  EXPECT_FALSE(entry->stale.load());
  EXPECT_EQ(entry->reoptimized.load(), 1u);
  ASSERT_NE(entry->plan(), nullptr);
  EXPECT_EQ(entry->plan()->factor_snapshot, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(cache.Lookup(Key(1), {3.0, 4.0}), entry);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(PlanCacheTest, MetricsMirroring) {
  obs::MetricsRegistry metrics;
  adapt::PlanCacheConfig config;
  config.capacity = 2;
  config.shards = 1;
  adapt::PlanCache cache(config, &metrics);
  cache.Lookup(Key(1), {1.0, 2.0});          // miss
  cache.Insert(Key(1), Plan({"R"}));         // insert
  cache.Lookup(Key(1), {1.0, 2.0});          // hit
  cache.Insert(Key(2), Plan({"S"}));         // insert
  cache.Insert(Key(3), Plan({"S"}));         // insert + eviction
  cache.InvalidateTables({"S"});             // drops whatever reads S
  EXPECT_EQ(metrics.counter("plancache.miss").load(), 1u);
  EXPECT_EQ(metrics.counter("plancache.hit").load(), 1u);
  EXPECT_EQ(metrics.counter("plancache.insert").load(), 3u);
  EXPECT_EQ(metrics.counter("plancache.eviction").load(), 1u);
  EXPECT_GE(metrics.counter("plancache.invalidation").load(), 1u);
  EXPECT_EQ(metrics.gauge("plancache.entries").load(),
            static_cast<int64_t>(cache.size()));
}

TEST(PlanCacheTest, ByteBudgetEvictsLruUntilUnderBudget) {
  // Three same-sized plans against a budget that holds two: the third
  // insert must push out the least recently used, not merely the oldest
  // by count.
  const std::string fat(4096, 'T');
  const size_t each = adapt::EstimateCachedPlanBytes(Plan({fat}));
  adapt::PlanCacheConfig config;
  config.capacity = 100;  // count never binds; bytes do
  config.shards = 1;
  config.byte_budget = 2 * each + each / 2;
  adapt::PlanCache cache(config);
  cache.Insert(Key(1), Plan({fat}));
  cache.Insert(Key(2), Plan({fat}));
  EXPECT_EQ(cache.bytes(), 2 * each);
  // Touch 1 so 2 is the byte-eviction victim.
  EXPECT_NE(cache.Lookup(Key(1), {1.0, 2.0}), nullptr);
  cache.Insert(Key(3), Plan({fat}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.bytes(), config.byte_budget);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.Lookup(Key(2), {1.0, 2.0}), nullptr);
  EXPECT_NE(cache.Lookup(Key(3), {1.0, 2.0}), nullptr);
}

TEST(PlanCacheTest, ByteBudgetNeverEvictsTheOnlyEntry) {
  // One oversized plan may exceed the budget — caching it beats thrashing.
  adapt::PlanCacheConfig config;
  config.shards = 1;
  config.byte_budget = 1;
  adapt::PlanCache cache(config);
  cache.Insert(Key(1), Plan({std::string(1024, 'T')}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.bytes(), config.byte_budget);
  // A second insert still settles on exactly one resident entry (itself).
  cache.Insert(Key(2), Plan({std::string(1024, 'T')}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup(Key(2), {1.0, 2.0}), nullptr);
}

TEST(PlanCacheTest, RefreshFollowsTheByteAccounting) {
  obs::MetricsRegistry metrics;
  adapt::PlanCacheConfig config;
  config.shards = 1;
  adapt::PlanCache cache(config, &metrics);
  const auto entry = cache.Insert(Key(1), Plan({"R"}));
  const size_t before = cache.bytes();
  EXPECT_EQ(entry->bytes(), before);
  entry->Refresh(Plan({std::string(2048, 'T')}));
  EXPECT_GT(cache.bytes(), before);
  EXPECT_EQ(cache.bytes(), entry->bytes());
  EXPECT_EQ(metrics.gauge("plancache.bytes").load(),
            static_cast<int64_t>(cache.bytes()));
  // Dropping the entry returns the *refreshed* footprint, not the original.
  cache.InvalidateTables({std::string(2048, 'T')});
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(metrics.gauge("plancache.bytes").load(), 0);
}

TEST(PlanCacheTest, IdleFingerprintsAgeOut) {
  obs::MetricsRegistry metrics;
  adapt::PlanCacheConfig config;
  config.shards = 1;
  config.max_idle_lookups = 3;
  adapt::PlanCache cache(config, &metrics);
  cache.Insert(Key(1), Plan({"R"}));
  cache.Insert(Key(2), Plan({"S"}));
  // Keep 2 hot; 1 goes cold and is swept once its idle span exceeds 3
  // shard lookups.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(cache.Lookup(Key(2), {1.0, 2.0}), nullptr);
  }
  const adapt::PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.age_outs, 1u);
  EXPECT_EQ(c.evictions, 1u);  // age-outs are evictions too
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(Key(1), {1.0, 2.0}), nullptr);
  EXPECT_EQ(metrics.counter("plancache.age_out").load(), 1u);
  EXPECT_EQ(metrics.gauge("plancache.entries").load(), 1);
  EXPECT_EQ(metrics.gauge("plancache.bytes").load(),
            static_cast<int64_t>(cache.bytes()));
}

TEST(PlanCacheTest, ConcurrentHammerWithBudgetsEnabled) {
  // The ConcurrentHammer workload with byte budget and age-out switched on:
  // the sanitizer legs get the eviction paths under contention.
  adapt::PlanCacheConfig config;
  config.capacity = 8;
  config.shards = 2;
  config.byte_budget = 8 * adapt::EstimateCachedPlanBytes(Plan());
  config.max_idle_lookups = 16;
  adapt::PlanCache cache(config);
  constexpr int kThreads = 4;
  constexpr int kIterations = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kIterations; ++i) {
        const uint64_t fp = static_cast<uint64_t>((t * 7 + i) % 16 + 1);
        const adapt::PlanCache::EntryPtr entry =
            cache.Lookup(Key(fp), {1.0, 2.0});
        if (entry == nullptr) {
          cache.Insert(Key(fp), Plan({fp % 2 == 0 ? "R" : "S"}));
        } else if (i % 13 == 0) {
          entry->Refresh(Plan({"R", std::string(64 + i % 512, 'T')}));
        }
        if (i % 31 == 0) cache.InvalidateTables({"R"});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const adapt::PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.stale_hits + c.misses,
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_LE(cache.size(), config.capacity);
}

TEST(PlanCacheTest, ConcurrentHammer) {
  adapt::PlanCacheConfig config;
  config.capacity = 8;
  config.shards = 4;
  adapt::PlanCache cache(config);
  constexpr int kThreads = 4;
  constexpr int kIterations = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kIterations; ++i) {
        const uint64_t fp = static_cast<uint64_t>((t * 7 + i) % 16 + 1);
        const adapt::PlanCache::EntryPtr entry =
            cache.Lookup(Key(fp), {1.0, 2.0});
        if (entry == nullptr) {
          cache.Insert(Key(fp), Plan({fp % 2 == 0 ? "R" : "S"}));
        } else {
          entry->executions.fetch_add(1);
          if (i % 17 == 0) entry->Refresh(Plan());
        }
        if (i % 31 == 0) cache.InvalidateTables({"R"});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const adapt::PlanCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.stale_hits + c.misses,
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_LE(cache.size(), config.capacity);
}

}  // namespace
}  // namespace tango
