// Cardinality-feedback re-optimization: the FeedbackStore unit behavior,
// and the end-to-end adaptive loop — a join whose estimate is ~2000x off
// marks its cached plan stale after one execution, and the re-optimization
// (with the observed cardinality injected) flips the join from the
// middleware to the DBMS, asserted via EXPLAIN ANALYZE site tags.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adapt/feedback.h"
#include "tango/middleware.h"

namespace tango {
namespace {

TEST(FeedbackStoreTest, QErrorDefinition) {
  EXPECT_DOUBLE_EQ(adapt::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(adapt::QError(5, 20), 4.0);
  EXPECT_DOUBLE_EQ(adapt::QError(20, 5), 4.0);
  // Both sides floored at one row: empty results stay finite.
  EXPECT_DOUBLE_EQ(adapt::QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(adapt::QError(0, 8), 8.0);
  EXPECT_DOUBLE_EQ(adapt::QError(8, 0), 8.0);
}

TEST(FeedbackStoreTest, RecordReturnsWorstQError) {
  adapt::FeedbackStore store;
  EXPECT_DOUBLE_EQ(store.Record(1, {}), 1.0);
  // Node 7 is 4x under, node 8 is exact, node 0 is skipped entirely.
  const double worst = store.Record(
      1, {{7, 25.0, 100}, {8, 50.0, 50}, {0, 1.0, 1000000}});
  EXPECT_DOUBLE_EQ(worst, 4.0);
  const std::map<uint64_t, double> overrides = store.OverridesFor(1);
  ASSERT_EQ(overrides.size(), 2u);
  EXPECT_DOUBLE_EQ(overrides.at(7), 100.0);
  EXPECT_DOUBLE_EQ(overrides.at(8), 50.0);
  EXPECT_TRUE(store.OverridesFor(2).empty());
}

TEST(FeedbackStoreTest, LastWriteWins) {
  adapt::FeedbackStore store;
  store.Record(1, {{7, 10.0, 100}});
  store.Record(1, {{7, 10.0, 60}});
  EXPECT_DOUBLE_EQ(store.OverridesFor(1).at(7), 60.0);
}

// ---------------------------------------------------------------------------
// End-to-end site flip. L.J and R2.J are disjoint (1..5 vs 6..10, five
// distinct values each), so the §3.3 join estimate is 100*100/5 = 2000 rows
// while the actual is 0. Under est=2000 the optimizer ships both inputs up
// and merge-joins in the middleware (the transfer of 2000 result rows from
// the DBMS looks too expensive); with the observed cardinality injected the
// DBMS join plus a tiny transfer wins, so the join migrates M -> D after
// one bad run.

void LoadDisjoint(dbms::Engine* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE L (J INT, X INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE R2 (J INT, Y INT)").ok());
  std::vector<Tuple> left, right;
  for (int64_t i = 0; i < 100; ++i) {
    left.push_back({Value(i % 5 + 1), Value(i)});
    right.push_back({Value(i % 5 + 6), Value(i)});
  }
  ASSERT_TRUE(db->BulkLoad("L", left).ok());
  ASSERT_TRUE(db->BulkLoad("R2", right).ok());
  ASSERT_TRUE(db->Execute("ANALYZE L").ok());
  ASSERT_TRUE(db->Execute("ANALYZE R2").ok());
}

Middleware::Config AdaptiveConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  // Keep the cost factors fixed: this test isolates the cardinality loop
  // (factor adaptation would also trigger the cache's drift invalidation).
  config.adapt = false;
  return config;
}

const char* const kDisjointJoin =
    "SELECT L.J, R2.Y FROM L, R2 WHERE L.J = R2.J";

TEST(FeedbackLoopTest, MisestimatedJoinMigratesSitesAfterOneRun) {
  dbms::Engine db;
  LoadDisjoint(&db);
  Middleware mw(&db, AdaptiveConfig());

  // First run: fresh plan, join placed in the middleware on the 2000-row
  // estimate; the actual result is empty.
  auto first = mw.Prepare(kDisjointJoin);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().source, Middleware::Prepared::Source::kFresh);
  auto analyzed1 = mw.ExplainAnalyze(first.ValueOrDie());
  ASSERT_TRUE(analyzed1.ok()) << analyzed1.status().ToString();
  EXPECT_NE(analyzed1.ValueOrDie().find("MERGEJOIN^M [M]"), std::string::npos)
      << analyzed1.ValueOrDie();
  EXPECT_NE(analyzed1.ValueOrDie().find("rows=0"), std::string::npos);
  // The 2000-vs-0 Q-error exceeded the bound: the entry is marked stale.
  EXPECT_EQ(mw.metrics().counter("reoptimize.stale_marks").load(), 1u);

  // Second prepare: stale entry -> re-optimized with the observed
  // cardinality; the join migrates to the DBMS.
  auto second = mw.Prepare(kDisjointJoin);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie().source,
            Middleware::Prepared::Source::kReoptimized);
  EXPECT_EQ(mw.metrics().counter("reoptimize.count").load(), 1u);
  // The full physical plan (EXPLAIN) shows the join now runs in the DBMS;
  // EXPLAIN ANALYZE only renders middleware cursors, so there the join's
  // disappearance from the middleware is the visible signal.
  auto explained2 = mw.Explain(second.ValueOrDie());
  ASSERT_TRUE(explained2.ok()) << explained2.status().ToString();
  EXPECT_NE(explained2.ValueOrDie().find("JOIN^D"), std::string::npos)
      << explained2.ValueOrDie();
  EXPECT_EQ(explained2.ValueOrDie().find("MERGEJOIN^M"), std::string::npos)
      << explained2.ValueOrDie();
  auto analyzed2 = mw.ExplainAnalyze(second.ValueOrDie());
  ASSERT_TRUE(analyzed2.ok()) << analyzed2.status().ToString();
  EXPECT_EQ(analyzed2.ValueOrDie().find("MERGEJOIN^M"), std::string::npos)
      << analyzed2.ValueOrDie();
  EXPECT_NE(analyzed2.ValueOrDie().find("plan: reoptimized"),
            std::string::npos)
      << analyzed2.ValueOrDie();
  EXPECT_NE(analyzed2.ValueOrDie().find("rows=0"), std::string::npos);

  // Third prepare: the re-optimized plan's estimates now match reality, so
  // the entry stayed fresh — the loop converged.
  auto third = mw.Prepare(kDisjointJoin);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.ValueOrDie().source, Middleware::Prepared::Source::kCached);
  EXPECT_EQ(mw.metrics().counter("reoptimize.count").load(), 1u);
  EXPECT_EQ(third.ValueOrDie().cache_entry->reoptimized.load(), 1u);
}

TEST(FeedbackLoopTest, CollectStatisticsInvalidatesButKeepsFeedback) {
  dbms::Engine db;
  LoadDisjoint(&db);
  Middleware mw(&db, AdaptiveConfig());

  auto first = mw.Prepare(kDisjointJoin);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(mw.Execute(first.ValueOrDie()).ok());
  ASSERT_TRUE(mw.CollectStatistics({"L"}).ok());
  EXPECT_GE(mw.plan_cache().counters().invalidations, 1u);

  // The entry is gone, but the observed cardinalities survive: the fresh
  // optimization already plans the join in the DBMS.
  auto second = mw.Prepare(kDisjointJoin);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie().source, Middleware::Prepared::Source::kFresh);
  auto explained = mw.Explain(second.ValueOrDie());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained.ValueOrDie().find("JOIN^D"), std::string::npos)
      << explained.ValueOrDie();
}

}  // namespace
}  // namespace tango
