#include <gtest/gtest.h>

#include "common/date.h"
#include "dbms/engine.h"
#include "sql/parser.h"
#include "stats/stats.h"

namespace tango {
namespace stats {
namespace {

// Builds the §3.3 example relation R: 100,000 tuples, 7-day periods,
// uniformly distributed over 1995-01-01 .. 2000-01-01.
RelStats PaperRelation(bool with_histograms) {
  RelStats rel;
  rel.cardinality = 100000;
  rel.avg_tuple_bytes = 40;
  const double t1_min = static_cast<double>(date::FromYmd(1995, 1, 1));
  const double t1_max = static_cast<double>(date::FromYmd(1999, 12, 25));
  ColumnInfo t1;
  t1.numeric = true;
  t1.min = t1_min;
  t1.max = t1_max;
  t1.num_distinct = 1819;
  ColumnInfo t2 = t1;
  t2.min = t1_min + 7;
  t2.max = t1_max + 7;
  if (with_histograms) {
    // Uniform synthetic histograms (20 equal buckets).
    std::vector<double> v1, v2;
    for (int i = 0; i < 2000; ++i) {
      const double x = t1_min + (t1_max - t1_min) * i / 1999.0;
      v1.push_back(x);
      v2.push_back(x + 7);
    }
    t1.histogram = Histogram::BuildEquiDepth(v1, 20);
    t2.histogram = Histogram::BuildEquiDepth(v2, 20);
    // Histogram counts must describe the full relation.
    // (BuildEquiDepth used a sample; scale via a fresh build at full size is
    // overkill — instead build from per-day counts.)
  }
  rel.columns = {t1, t2};
  return rel;
}

TEST(HistogramTest, EquiDepthBucketsBalanced) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i);
  Histogram h = Histogram::BuildEquiDepth(values, 10);
  ASSERT_EQ(h.num_buckets(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(h.bVal(i), 100.0);
  }
  EXPECT_DOUBLE_EQ(h.total_count(), 1000.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 999.0);
}

TEST(HistogramTest, EstimateLessInterpolates) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i);
  Histogram h = Histogram::BuildEquiDepth(values, 10);
  EXPECT_NEAR(h.EstimateLess(500), 500, 15);
  EXPECT_DOUBLE_EQ(h.EstimateLess(-5), 0);
  EXPECT_DOUBLE_EQ(h.EstimateLess(5000), 1000);
}

TEST(HistogramTest, SkewedDataBucketsFollowDensity) {
  // 90% of values in [0,10), 10% in [10,1000).
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(i % 10);
  for (int i = 0; i < 100; ++i) values.push_back(10 + i * 9.9);
  Histogram h = Histogram::BuildEquiDepth(values, 10);
  // Height-balanced buckets adapt to the density: below 10 is ~900.
  EXPECT_NEAR(h.EstimateLess(10), 900, 110);
  // A width-balanced histogram puts all the mass in one wide bucket and
  // interpolates uniformly inside it — far less accurate on skewed data
  // (which is why height-balanced histograms are the DBMS default).
  Histogram w = Histogram::BuildEquiWidth(values, 10);
  EXPECT_LT(w.EstimateLess(10.0), 200);
  EXPECT_NEAR(w.EstimateLess(100.0), 917, 30);  // full first bucket
}

TEST(HistogramTest, BNoFindsBucket) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  Histogram h = Histogram::BuildEquiDepth(values, 5);
  EXPECT_EQ(h.bNo(-10), 0u);
  EXPECT_EQ(h.bNo(1000), h.num_buckets() - 1);
  const size_t mid = h.bNo(50);
  EXPECT_LE(h.b1(mid), 50.0);
  EXPECT_GE(h.b2(mid), 50.0);
}

// The paper's worked example: Overlaps(1997-02-01, 1997-02-08).
// Actual result is 0.4%-0.8% of R. The straightforward estimate is 24.7%
// ("a factor of 40 too high"); the semantic estimate is ~0.8%.
TEST(SelectivityTest, PaperSection33Example) {
  RelStats rel = PaperRelation(/*with_histograms=*/false);
  const double a = static_cast<double>(date::FromYmd(1997, 2, 1));
  const double b = static_cast<double>(date::FromYmd(1997, 2, 8));

  // Semantic: StartBefore(B) - EndBefore(A + 1).
  const double semantic = EstimateOverlapsCardinality(a, b, rel, 0, 1);
  const double semantic_pct = semantic / rel.cardinality;
  EXPECT_NEAR(semantic_pct, 0.008, 0.002);

  // Straightforward: the two conjuncts estimated independently.
  Schema schema({{"", "T1", DataType::kInt}, {"", "T2", DataType::kInt}});
  auto sel = sql::Parser::ParseSelect(
      "SELECT T1 FROM R WHERE T1 < DATE '1997-02-08' AND "
      "T2 > DATE '1997-02-01'");
  ASSERT_TRUE(sel.ok());
  const ExprPtr pred = sel.ValueOrDie()->where;
  const double naive = EstimateSelectivity(pred, schema, rel,
                                           /*semantic_temporal=*/false);
  EXPECT_NEAR(naive, 0.247, 0.02);  // the paper's 24.7%
  const double smart = EstimateSelectivity(pred, schema, rel,
                                           /*semantic_temporal=*/true);
  EXPECT_NEAR(smart, semantic_pct, 1e-9);
  // "This is a factor of 40 too high!"
  EXPECT_GT(naive / smart, 25);
}

TEST(SelectivityTest, TimesliceEstimate) {
  RelStats rel = PaperRelation(false);
  const double a = static_cast<double>(date::FromYmd(1997, 6, 1));
  const double card = EstimateTimesliceCardinality(a, rel, 0, 1);
  // ~383 tuples intersect any given day (100000 * 7 / 1826).
  EXPECT_NEAR(card, 383, 80);
}

TEST(SelectivityTest, HistogramPathAgreesOnUniformData) {
  RelStats with = PaperRelation(true);
  RelStats without = PaperRelation(false);
  // Histogram totals describe a 2000-value sample; StartBefore/EndBefore
  // normalize them to the relation cardinality.
  const double a = static_cast<double>(date::FromYmd(1997, 2, 1));
  const double b = static_cast<double>(date::FromYmd(1997, 2, 8));
  const double f_with =
      EstimateOverlapsCardinality(a, b, with, 0, 1) / with.cardinality;
  const double f_without =
      EstimateOverlapsCardinality(a, b, without, 0, 1) / without.cardinality;
  EXPECT_NEAR(f_with, f_without, 0.01);
}

TEST(SelectivityTest, ComparisonSelectivity) {
  RelStats rel = PaperRelation(false);
  // T1 < midpoint: about half.
  const double mid = (rel.columns[0].min + rel.columns[0].max) / 2;
  EXPECT_NEAR(ComparisonSelectivity(rel, 0, BinaryOp::kLt, mid), 0.5, 0.01);
  EXPECT_NEAR(ComparisonSelectivity(rel, 0, BinaryOp::kGe, mid), 0.5, 0.01);
  EXPECT_NEAR(ComparisonSelectivity(rel, 0, BinaryOp::kEq, mid),
              1.0 / 1819, 1e-6);
}

TEST(TAggrCardinalityTest, PaperBounds) {
  RelStats rel;
  rel.cardinality = 1000;
  rel.avg_tuple_bytes = 30;
  ColumnInfo g;
  g.numeric = true;
  g.num_distinct = 10;
  ColumnInfo t1;
  t1.numeric = true;
  t1.num_distinct = 100;
  ColumnInfo t2 = t1;
  rel.columns = {g, t1, t2};

  const auto bounds = EstimateTAggrCardinality(rel, {0}, 1, 2);
  // Max: (1000/10 * 2 - 1) * 10 = 1990, capped by 2*card-1 = 1999.
  EXPECT_DOUBLE_EQ(bounds.max, 1990);
  // Min: min(distinct(G), distinct(T1)+1, distinct(T2)+1) = 10.
  EXPECT_DOUBLE_EQ(bounds.min, 10);
  // Estimate: 60% of max since that's above the min.
  EXPECT_DOUBLE_EQ(bounds.estimate, 0.6 * 1990);

  // Without grouping: max = distinct(T1) + distinct(T2) + 1.
  const auto global = EstimateTAggrCardinality(rel, {}, 1, 2);
  EXPECT_DOUBLE_EQ(global.max, 201);
}

TEST(DeriveTest, SelectScalesCardinalityAndBounds) {
  Schema schema({{"", "X", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
  auto scan = algebra::Scan("R", schema).ValueOrDie();
  RelStats in;
  in.cardinality = 1000;
  in.avg_tuple_bytes = 30;
  ColumnInfo x;
  x.numeric = true;
  x.min = 0;
  x.max = 100;
  x.num_distinct = 100;
  in.columns = {x, x, x};

  auto pred = sql::Parser::ParseSelect("SELECT X FROM R WHERE X < 25")
                  .ValueOrDie()
                  ->where;
  auto sel = algebra::Select(scan, pred).ValueOrDie();
  auto out = Derive(*sel, {&in});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NEAR(out.ValueOrDie().cardinality, 250, 1);
  EXPECT_DOUBLE_EQ(out.ValueOrDie().columns[0].max, 25);
}

TEST(DeriveTest, JoinUsesDistinctCounts) {
  Schema ls({{"", "K", DataType::kInt}, {"", "A", DataType::kInt}});
  Schema rs({{"", "K2", DataType::kInt}, {"", "B", DataType::kInt}});
  auto l = algebra::Scan("L", ls).ValueOrDie();
  auto r = algebra::Scan("R", rs).ValueOrDie();
  auto join = algebra::Join(l, r, {{"K", "K2"}}).ValueOrDie();
  RelStats lst, rst;
  lst.cardinality = 1000;
  lst.avg_tuple_bytes = 20;
  ColumnInfo k;
  k.numeric = true;
  k.num_distinct = 50;
  lst.columns = {k, k};
  rst.cardinality = 500;
  rst.avg_tuple_bytes = 20;
  ColumnInfo k2 = k;
  k2.num_distinct = 100;
  rst.columns = {k2, k2};
  auto out = Derive(*join, {&lst, &rst});
  ASSERT_TRUE(out.ok());
  // 1000 * 500 / max(50, 100) = 5000.
  EXPECT_DOUBLE_EQ(out.ValueOrDie().cardinality, 5000);
  EXPECT_DOUBLE_EQ(out.ValueOrDie().avg_tuple_bytes, 40);
}

TEST(DeriveTest, TAggregateUsesSection34Estimate) {
  Schema schema({{"", "G", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
  auto scan = algebra::Scan("R", schema).ValueOrDie();
  auto agg =
      algebra::TAggregate(scan, {"G"}, {{AggFunc::kCount, "G", "C"}})
          .ValueOrDie();
  RelStats in;
  in.cardinality = 1000;
  in.avg_tuple_bytes = 30;
  ColumnInfo g;
  g.numeric = true;
  g.num_distinct = 10;
  ColumnInfo t;
  t.numeric = true;
  t.num_distinct = 100;
  in.columns = {g, t, t};
  auto out = Derive(*agg, {&in});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie().cardinality, 0.6 * 1990);
  // Schema: G, T1, T2, C.
  EXPECT_EQ(out.ValueOrDie().columns.size(), 4u);
}

TEST(FromTableStatsTest, ConvertsAnalyzeOutput) {
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE R (X INT, S VARCHAR(10))").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (1, 'aaaa'), (2, 'bbbb'), "
                         "(3, 'cccc')")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX IX ON R (X)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());
  const dbms::Table* t = db.catalog().GetTable("R").ValueOrDie();
  RelStats rel = FromTableStats(t->stats(), t->schema());
  EXPECT_DOUBLE_EQ(rel.cardinality, 3);
  EXPECT_GT(rel.avg_tuple_bytes, 0);
  EXPECT_DOUBLE_EQ(rel.columns[0].num_distinct, 3);
  EXPECT_DOUBLE_EQ(rel.columns[0].min, 1);
  EXPECT_DOUBLE_EQ(rel.columns[0].max, 3);
  EXPECT_FALSE(rel.columns[0].histogram.empty());
  EXPECT_FALSE(rel.columns[1].numeric);
  // ANALYZE records index availability and clustering in the catalog's
  // statistics (inserted in key order, so the index is clustered); the
  // middleware's cost formulas do not read them.
  EXPECT_TRUE(t->stats().columns[0].has_index);
  EXPECT_TRUE(t->stats().columns[0].index_clustered);
  EXPECT_FALSE(t->stats().columns[1].has_index);
}

}  // namespace
}  // namespace stats
}  // namespace tango
