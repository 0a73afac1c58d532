// Invariant tests for the observability layer: counters stay monotone,
// histogram quantiles bracket the recorded values, concurrent recording is
// race-free (the TSan leg of check.sh runs this file), the registry's
// expect-zero leak warnings fire and clear correctly, and the fault-matrix
// slice at the bottom proves retries and degradations are counted exactly
// once by the middleware's metric series.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "exec/instrument.h"
#include "exec/transfer.h"
#include "obs/metrics.h"
#include "tango/middleware.h"

namespace tango {
namespace {

TEST(MetricsTest, CounterMonotoneAndStable) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("test.events");
  EXPECT_EQ(c.load(), 0u);
  ++c;
  EXPECT_EQ(c.load(), 1u);
  c.Increment(41);
  EXPECT_EQ(c.load(), 42u);
  // Same name, same instrument: pointers cached by hot paths stay valid.
  EXPECT_EQ(&registry.counter("test.events"), &c);
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    ++c;
    const uint64_t now = c.load();
    EXPECT_GT(now, last);
    last = now;
  }
}

TEST(MetricsTest, GaugeBalances) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("test.depth");
  g.Increment();
  g.Increment(3);
  EXPECT_EQ(g.load(), 4);
  g.Decrement(4);
  EXPECT_EQ(g.load(), 0);
  g.Set(-7);
  EXPECT_EQ(g.load(), -7);
}

TEST(MetricsTest, HistogramQuantilesBracketRecordedValues) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.latency");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);

  std::vector<double> values;
  Rng rng(0xab5e);
  for (int i = 0; i < 1000; ++i) {
    // Spread over several orders of magnitude, like query latencies.
    const double v = 1e-6 * static_cast<double>(1 + rng.Uniform(0, 1000000));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const double lo = values.front();
  const double hi = values.back();

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), lo);
  EXPECT_DOUBLE_EQ(h.max(), hi);
  EXPECT_GE(h.Mean(), lo);
  EXPECT_LE(h.Mean(), hi);

  double prev = 0;
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double estimate = h.Quantile(q);
    // Every quantile estimate brackets the recorded range and is monotone.
    EXPECT_GE(estimate, lo) << "q=" << q;
    EXPECT_LE(estimate, hi) << "q=" << q;
    EXPECT_GE(estimate, prev) << "q=" << q;
    prev = estimate;
    // The log-bucket upper edge can overshoot the true quantile by at most
    // one bucket (a factor of 2), never undershoot below the bucket.
    const double exact =
        values[std::min(values.size() - 1,
                        static_cast<size_t>(q * static_cast<double>(
                                                    values.size())))];
    EXPECT_LE(exact, estimate * 2.000001) << "q=" << q;
  }
}

TEST(MetricsTest, DumpTextListsEverySeries) {
  obs::MetricsRegistry registry;
  registry.counter("retry.tm").Increment(3);
  registry.gauge("server.queue_depth").Set(2);
  registry.histogram("query.latency_seconds").Record(0.25);
  const std::string dump = registry.DumpText();
  EXPECT_NE(dump.find("counter retry.tm 3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("gauge server.queue_depth 2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram query.latency_seconds count=1"),
            std::string::npos)
      << dump;
}

TEST(MetricsTest, ConcurrentRecordingIsExactAndRaceFree) {
  // Run under TSan by the check.sh obs leg: writers on all three instrument
  // kinds from many threads, exact totals at the end.
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("test.concurrent");
  obs::Gauge& g = registry.gauge("test.inflight", /*expect_zero_at_exit=*/true);
  obs::Histogram& h = registry.histogram("test.dist");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &c, &g, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Increment();
        ++c;
        h.Record(1e-3 * static_cast<double>(t + 1));
        // Lookups race with other threads' lookups of the same names.
        registry.counter("test.concurrent").Increment(0);
        g.Decrement();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c.load(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(g.load(), 0);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3 * kThreads);
  EXPECT_TRUE(registry.LeakWarnings().empty());
}

TEST(MetricsTest, LeakWarningsFireForUnbalancedExpectZeroGauges) {
  obs::MetricsRegistry registry;
  registry.gauge("test.balanced", /*expect_zero_at_exit=*/true);
  obs::Gauge& leaky = registry.gauge("test.leaky", /*expect_zero_at_exit=*/true);
  obs::Gauge& free_running = registry.gauge("test.free");
  free_running.Set(99);  // not expect-zero: never warns
  leaky.Increment(2);

  std::vector<std::string> warnings = registry.LeakWarnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("metrics-registry leak"), std::string::npos);
  EXPECT_NE(warnings[0].find("test.leaky"), std::string::npos);

  // The expect-zero flag sticks even when a later lookup omits it.
  registry.gauge("test.leaky").Increment();
  EXPECT_EQ(registry.LeakWarnings().size(), 1u);

  // Balance the gauge before the registry dies: its destructor prints leak
  // warnings to stderr, and check.sh greps test logs for exactly that.
  leaky.Decrement(3);
  EXPECT_TRUE(registry.LeakWarnings().empty());
}

TEST(MetricsTest, RecoveryCountersAreRegistryBacked) {
  // Default-constructed: a private registry, counters start at zero
  // (recovery_test relies on exact equality against fresh instances).
  RecoveryCounters counters;
  EXPECT_EQ(counters.tm_retries.load(), 0u);
  ++counters.tm_retries;
  ++counters.downgrades;
  counters.td_retries.Increment(2);
  EXPECT_EQ(counters.transfer_retries(), 3u);
  const std::string dump = counters.registry().DumpText();
  EXPECT_NE(dump.find("counter retry.tm 1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("counter retry.td 2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("counter recovery.downgrades 1"), std::string::npos)
      << dump;

  // Bound to an external registry: no private one is created and the
  // counters alias the shared series.
  obs::MetricsRegistry shared;
  RecoveryCounters bound(&shared);
  ++bound.drop_retries;
  EXPECT_EQ(shared.counter("retry.drop").load(), 1u);
  EXPECT_EQ(&bound.registry(), &shared);
}

TEST(MetricsTest, SelfSecondsClampsConcurrentChildOverlap) {
  // Regression for the negative-subtraction clamp: inclusive times are
  // separately accumulated sums, so nothing in the sink itself stops a
  // child's total from exceeding its parent's (intervals that do not nest,
  // or rounding on a near-zero self time), and the self-time subtraction
  // must clamp at zero instead of handing EXPLAIN ANALYZE and the feedback
  // loop a negative time.
  exec::TimingSink sink;
  exec::AlgorithmTiming parent;
  parent.label = "TAGGR^M";
  parent.inclusive_seconds = 0.010;
  parent.child_ids = {1};
  sink.push_back(parent);
  exec::AlgorithmTiming child;
  child.label = "TRANSFER^M";
  child.inclusive_seconds = 0.025;  // overlapped: larger than the parent
  sink.push_back(child);

  EXPECT_EQ(exec::SelfSeconds(sink, 0), 0.0);
  EXPECT_DOUBLE_EQ(exec::SelfSeconds(sink, 1), 0.025);

  // Normal nesting still subtracts.
  sink[1].inclusive_seconds = 0.004;
  EXPECT_DOUBLE_EQ(exec::SelfSeconds(sink, 0), 0.006);
}

// ---------------------------------------------------------------------------
// Middleware-level: the metric series the ISSUE promises, and the
// fault-matrix slice proving retries/degradations count exactly once.

struct RandomRelation {
  std::vector<Tuple> rows;  // (G, V, T1, T2)
};

RandomRelation MakeRelation(uint64_t seed, size_t n, int64_t groups,
                            int64_t horizon) {
  Rng rng(seed);
  RandomRelation rel;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(0, horizon);
    rel.rows.push_back({Value(rng.Uniform(1, groups)),
                        Value(rng.Uniform(0, 50)), Value(t1),
                        Value(t1 + rng.Uniform(1, horizon / 4))});
  }
  return rel;
}

void Load(dbms::Engine* db, const std::string& table,
          const RandomRelation& rel) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE " + table + " (G INT, V INT, T1 INT, T2 INT)")
          .ok());
  ASSERT_TRUE(db->BulkLoad(table, rel.rows).ok());
  ASSERT_TRUE(db->Execute("ANALYZE " + table).ok());
}

Middleware::Config StableConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  return config;
}

const char* kAggrQuery =
    "TEMPORAL SELECT G, T1, T2, COUNT(G) AS CNT FROM R "
    "GROUP BY G OVER TIME ORDER BY G, T1";

uint64_t CounterValue(Middleware* mw, const std::string& name) {
  return mw->metrics().counter(name).load();
}

TEST(MiddlewareMetricsTest, QueryExecutionSeriesPopulate) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(7, 300, 8, 80));
  Middleware mw(&db, StableConfig());

  auto r = mw.Query(kAggrQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(CounterValue(&mw, "query.executions"), 1u);
  EXPECT_EQ(CounterValue(&mw, "query.failures"), 0u);
  EXPECT_EQ(mw.metrics().gauge("query.active").load(), 0);
  EXPECT_GT(CounterValue(&mw, "wire.statements"), 0u);
  EXPECT_GT(CounterValue(&mw, "wire.bytes_to_server"), 0u);
  EXPECT_GT(CounterValue(&mw, "wire.bytes_to_client"), 0u);
  EXPECT_GT(CounterValue(&mw, "transfer.rows_to_middleware"), 0u);
  obs::Histogram& latency = mw.metrics().histogram("query.latency_seconds");
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_GT(latency.max(), 0.0);
  EXPECT_TRUE(mw.metrics().LeakWarnings().empty());

  // The dump carries every promised family on one registry.
  const std::string dump = mw.metrics().DumpText();
  for (const char* series :
       {"wire.statements", "transfer.rows_to_middleware", "retry.tm",
        "recovery.downgrades", "query.latency_seconds", "query.executions"}) {
    EXPECT_NE(dump.find(series), std::string::npos) << series << "\n" << dump;
  }
}

TEST(MiddlewareMetricsTest, FailedQueryCountsOnceAndActiveDrains) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(11, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  auto control = std::make_shared<QueryControl>();
  control->Cancel();

  auto r = mw.Query(kAggrQuery, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(CounterValue(&mw, "query.executions"), 1u);
  EXPECT_EQ(CounterValue(&mw, "query.failures"), 1u);
  EXPECT_EQ(mw.metrics().gauge("query.active").load(), 0);
  EXPECT_TRUE(mw.metrics().LeakWarnings().empty());
}

TEST(MiddlewareMetricsTest, RetriesCountedExactlyOnce) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(3, 300, 8, 80));
  Middleware mw(&db, StableConfig());
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "SELECT";
  plan.times = 2;  // two transient failures within a budget of 4 attempts
  injector->Arm(plan);

  auto r = mw.Query(kAggrQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().degraded);
  // Exactly one count per injected failure — and the legacy accessor and
  // the registry series are the same underlying counter.
  EXPECT_EQ(CounterValue(&mw, "retry.tm"), 2u);
  EXPECT_EQ(mw.recovery_counters().tm_retries.load(), 2u);
  EXPECT_EQ(CounterValue(&mw, "recovery.downgrades"), 0u);
  EXPECT_EQ(injector->faults_fired(), 2u);
}

TEST(MiddlewareMetricsTest, DegradationCountedExactlyOnce) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(17, 250, 7, 70));
  Middleware::Config config = StableConfig();
  Middleware mw(&db, config);
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "SELECT";
  plan.times = config.retry.max_attempts;  // exhaust the budget, then clear
  injector->Arm(plan);

  auto r = mw.Query(kAggrQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().degraded);
  EXPECT_EQ(CounterValue(&mw, "recovery.downgrades"), 1u);
  EXPECT_EQ(CounterValue(&mw, "retry.tm"),
            static_cast<uint64_t>(config.retry.max_attempts - 1));
  // Both executions (chosen + degraded) counted; neither leaked "active".
  EXPECT_EQ(CounterValue(&mw, "query.executions"), 2u);
  EXPECT_EQ(CounterValue(&mw, "query.failures"), 1u);
  EXPECT_EQ(mw.metrics().gauge("query.active").load(), 0);
}

TEST(MiddlewareMetricsTest, TransferCacheHitAndMissSeries) {
  // Unit-level: two TRANSFER^M cursors sharing one statement through the
  // cache — the first materialization is the miss, the second a hit.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(9, 80, 4, 40));
  dbms::WireConfig wc;
  wc.simulate_delay = false;
  dbms::Connection conn(&db, wc);
  const std::string sql = "SELECT G, V, T1, T2 FROM R";
  const Schema schema = conn.GetTableSchema("R").ValueOrDie();
  auto cache = std::make_shared<exec::TransferCache>();
  cache->MarkShared(sql);

  obs::MetricsRegistry registry;
  exec::TransferObservability hooks;
  hooks.rows_to_middleware = &registry.counter("transfer.rows_to_middleware");
  hooks.cache_hits = &registry.counter("transfer_cache.hits");
  hooks.cache_misses = &registry.counter("transfer_cache.misses");

  exec::TransferMCursor first(&conn, sql, schema, {}, cache);
  first.set_observability(hooks);
  ASSERT_TRUE(first.Init().ok());
  EXPECT_EQ(registry.counter("transfer_cache.misses").load(), 1u);
  EXPECT_EQ(registry.counter("transfer_cache.hits").load(), 0u);
  // The shared materialization counts every row exactly once.
  EXPECT_EQ(registry.counter("transfer.rows_to_middleware").load(), 80u);

  exec::TransferMCursor second(&conn, sql, schema, {}, cache);
  second.set_observability(hooks);
  ASSERT_TRUE(second.Init().ok());
  EXPECT_EQ(registry.counter("transfer_cache.hits").load(), 1u);
  EXPECT_EQ(registry.counter("transfer_cache.misses").load(), 1u);
  // Cache hits are served locally: no additional transfer rows.
  EXPECT_EQ(registry.counter("transfer.rows_to_middleware").load(), 80u);
}

TEST(MiddlewareMetricsTest, SharedRegistryAggregatesAcrossInstances) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(23, 150, 5, 50));
  obs::MetricsRegistry shared;
  Middleware::Config config = StableConfig();
  config.metrics = &shared;
  {
    Middleware a(&db, config);
    ASSERT_TRUE(a.Query(kAggrQuery).ok());
    Middleware b(&db, config);
    ASSERT_TRUE(b.Query(kAggrQuery).ok());
    EXPECT_EQ(&a.metrics(), &shared);
  }
  // Both instances fed the same series; the registry outlives them.
  EXPECT_EQ(shared.counter("query.executions").load(), 2u);
  EXPECT_TRUE(shared.LeakWarnings().empty());
}

}  // namespace
}  // namespace tango
