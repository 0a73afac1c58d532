// Query fingerprinting (adapt/fingerprint): literal variants of a query
// share one parameterized fingerprint, structural/type/schema mutations do
// not, and a cached plan rebinds to new literals — verified both at the
// canonicalization layer and end-to-end through the middleware's plan cache.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adapt/fingerprint.h"
#include "common/rng.h"
#include "tango/middleware.h"
#include "tsql/tsql.h"

namespace tango {
namespace {

Result<Schema> TestSchema(const std::string&) {
  return Schema({{"", "G", DataType::kInt},
                 {"", "V", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

algebra::OpPtr Parse(const std::string& sql) {
  auto plan = tsql::Parser::Parse(sql, TestSchema);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  return plan.ok() ? plan.ValueOrDie() : nullptr;
}

TEST(FingerprintTest, LiteralVariantsShareFingerprint) {
  const adapt::ParameterizedQuery a =
      adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE V > 1200"));
  const adapt::ParameterizedQuery b =
      adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE V > 1300"));
  EXPECT_EQ(a.canon, b.canon);
  EXPECT_EQ(a.hash, b.hash);
  ASSERT_EQ(a.params.size(), 1u);
  ASSERT_EQ(b.params.size(), 1u);
  EXPECT_EQ(a.params[0], Value(static_cast<int64_t>(1200)));
  EXPECT_EQ(b.params[0], Value(static_cast<int64_t>(1300)));
}

TEST(FingerprintTest, StructuralMutationsChangeFingerprint) {
  const uint64_t base =
      adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE V > 1200")).hash;
  // Different comparison, different column, extra conjunct: all new shapes.
  EXPECT_NE(base,
            adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE V < 1200"))
                .hash);
  EXPECT_NE(base,
            adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE G > 1200"))
                .hash);
  EXPECT_NE(base, adapt::ParameterizeQuery(
                      Parse("SELECT G, V FROM R WHERE V > 1200 AND G = 1"))
                      .hash);
  // A literal's type is part of the shape (int vs double vs string).
  EXPECT_NE(base, adapt::ParameterizeQuery(
                      Parse("SELECT G, V FROM R WHERE V > 12.5"))
                      .hash);
}

TEST(FingerprintTest, SchemaSignatureIsPartOfTheFingerprint) {
  tsql::Parser::SchemaProvider narrower =
      [](const std::string&) -> Result<Schema> {
    return Schema({{"", "G", DataType::kInt}, {"", "V", DataType::kString}});
  };
  const std::string sql = "SELECT G FROM R";
  const adapt::ParameterizedQuery a = adapt::ParameterizeQuery(Parse(sql));
  auto other = tsql::Parser::Parse(sql, narrower);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  const adapt::ParameterizedQuery b =
      adapt::ParameterizeQuery(other.ValueOrDie());
  // Same text, different catalog schema: a schema change must not hit the
  // old entry (the scan canon embeds the column signature).
  EXPECT_NE(a.hash, b.hash);
}

TEST(FingerprintTest, BindLogicalParamsRebindsLiterals) {
  const adapt::ParameterizedQuery cached =
      adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE V > 1200"));
  const adapt::ParameterizedQuery incoming =
      adapt::ParameterizeQuery(Parse("SELECT G, V FROM R WHERE V > 1300"));
  const algebra::OpPtr rebound =
      adapt::BindLogicalParams(cached.plan, incoming.params);
  EXPECT_EQ(rebound->ToString(),
            Parse("SELECT G, V FROM R WHERE V > 1300")->ToString());
  // The original cached plan is untouched (copy-on-bind).
  EXPECT_EQ(cached.plan->ToString(),
            Parse("SELECT G, V FROM R WHERE V > 1200")->ToString());
}

TEST(FingerprintTest, NodeKeyIsStableAndChildSensitive) {
  auto scan = std::make_shared<algebra::Op>();
  scan->kind = algebra::OpKind::kScan;
  scan->table = "R";
  scan->alias = "R";
  scan->schema = TestSchema("R").ValueOrDie();
  const uint64_t k1 = adapt::NodeKey(*scan, {});
  EXPECT_EQ(k1, adapt::NodeKey(*scan, {}));
  EXPECT_NE(k1, adapt::NodeKey(*scan, {k1}));
  auto other = std::make_shared<algebra::Op>(*scan);
  other->table = "S";
  EXPECT_NE(k1, adapt::NodeKey(*other, {}));
}

TEST(FingerprintTest, ReferencedTablesAreSortedUpperDeduped) {
  const algebra::OpPtr plan =
      Parse("SELECT A.G FROM Rb A, Ra B, Rb C WHERE A.G = B.G AND B.G = C.G");
  EXPECT_EQ(adapt::ReferencedTables(plan),
            (std::vector<std::string>{"RA", "RB"}));
}

// ---------------------------------------------------------------------------
// End-to-end: a repeated parameterized query hits the cache, the rebound
// plan filters with the new literal, and the plancache.* metrics record it.

TEST(FingerprintTest, MiddlewareCacheHitRebindsAndCounts) {
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE R (G INT, V INT)").ok());
  std::vector<Tuple> rows;
  Rng rng(77);
  size_t over10 = 0, over40 = 0;
  for (int i = 0; i < 100; ++i) {
    const int64_t v = rng.Uniform(0, 50);
    if (v > 10) ++over10;
    if (v > 40) ++over40;
    rows.push_back({Value(rng.Uniform(1, 5)), Value(v)});
  }
  ASSERT_TRUE(db.BulkLoad("R", rows).ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());
  ASSERT_NE(over10, over40);

  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  Middleware mw(&db, config);

  auto first = mw.Prepare("SELECT G, V FROM R WHERE V > 10");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().source, Middleware::Prepared::Source::kFresh);
  auto run1 = mw.Execute(first.ValueOrDie());
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  EXPECT_EQ(run1.ValueOrDie().rows.size(), over10);

  auto second = mw.Prepare("SELECT G, V FROM R WHERE V > 40");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie().source, Middleware::Prepared::Source::kCached);
  EXPECT_EQ(second.ValueOrDie().fingerprint, first.ValueOrDie().fingerprint);
  // The cached physical plan was rebound to the new literal: the result is
  // the > 40 filter, not a replay of the > 10 one.
  auto run2 = mw.Execute(second.ValueOrDie());
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_EQ(run2.ValueOrDie().rows.size(), over40);

  EXPECT_EQ(mw.plan_cache().counters().hits, 1u);
  EXPECT_GE(mw.plan_cache().counters().misses, 1u);
  EXPECT_EQ(mw.metrics().counter("plancache.hit").load(), 1u);
  EXPECT_GE(mw.metrics().counter("plancache.miss").load(), 1u);
  EXPECT_EQ(mw.metrics().counter("plancache.insert").load(), 1u);

  // EXPLAIN shows the provenance.
  auto explained = mw.Explain(second.ValueOrDie());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained.ValueOrDie().rfind("plan: cached", 0), 0u)
      << explained.ValueOrDie();
}

TEST(FingerprintTest, EveryFactorsDriftInvalidatesTheCachedPlan) {
  // The drift check sees every cost factor, the per-block transfer ones
  // included: a plan priced under other block overheads is re-optimized.
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE R (G INT, V INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (1, 2), (3, 4)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  Middleware mw(&db, config);
  const std::string query = "SELECT G, V FROM R WHERE V > 1";
  using Source = Middleware::Prepared::Source;
  ASSERT_EQ(mw.Prepare(query).ValueOrDie().source, Source::kFresh);
  ASSERT_EQ(mw.Prepare(query).ValueOrDie().source, Source::kCached);
  for (const cost::Factor factor : {&cost::CostFactors::tmblk,
                                    &cost::CostFactors::tdblk}) {
    mw.cost_model().factors().*factor *= 2;
    EXPECT_EQ(mw.Prepare(query).ValueOrDie().source, Source::kFresh);
    EXPECT_EQ(mw.Prepare(query).ValueOrDie().source, Source::kCached);
  }
  EXPECT_EQ(mw.metrics().counter("plancache.invalidation").load(), 2u);
}

}  // namespace
}  // namespace tango
