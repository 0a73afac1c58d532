#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace tango {
namespace optimizer {
namespace {

Schema PosSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

stats::RelStats PosStats(double cardinality, double posid_distinct = 0) {
  stats::RelStats rel;
  rel.cardinality = cardinality;
  rel.avg_tuple_bytes = 60;
  stats::ColumnInfo posid;
  posid.numeric = true;
  posid.min = 1;
  posid.max = posid_distinct > 0 ? posid_distinct : cardinality / 5;
  posid.num_distinct =
      posid_distinct > 0 ? posid_distinct : std::max(1.0, cardinality / 5);
  stats::ColumnInfo name;
  name.numeric = false;
  name.num_distinct = cardinality / 2;
  name.avg_width = 20;
  stats::ColumnInfo t1;
  t1.numeric = true;
  t1.min = 5000;
  t1.max = 11000;
  t1.num_distinct = 2000;
  stats::ColumnInfo t2 = t1;
  t2.min = 5030;
  t2.max = 11060;
  rel.columns = {posid, name, t1, t2};
  return rel;
}

Memo::ScanStatsProvider Provider(double cardinality = 80000,
                                 double posid_distinct = 0) {
  return [cardinality, posid_distinct](const std::string&)
             -> Result<stats::RelStats> {
    return PosStats(cardinality, posid_distinct);
  };
}

/// True if the plan tree contains the given algorithm.
bool Contains(const PhysPlanPtr& plan, Algorithm alg) {
  if (plan->algorithm == alg) return true;
  for (const auto& c : plan->children) {
    if (Contains(c, alg)) return true;
  }
  return false;
}

std::string Flat(const PhysPlanPtr& plan) {
  std::string out = AlgorithmName(plan->algorithm);
  out += "(";
  for (size_t i = 0; i < plan->children.size(); ++i) {
    if (i > 0) out += ",";
    out += Flat(plan->children[i]);
  }
  out += ")";
  return out;
}

// Query 1's shape: ξ^T over POSITION, sorted output.
algebra::OpPtr Query1Plan() {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "CNT"}})
                 .ValueOrDie();
  auto sorted = algebra::Sort(agg, {{"POSID", true}}).ValueOrDie();
  return algebra::TransferM(sorted).ValueOrDie();
}

TEST(OptimizerTest, Query1PicksMiddlewareAggregation) {
  cost::CostModel model;  // defaults: TAGGR^D is much more expensive
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider());
  auto result = opt.Optimize(Query1Plan());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& plan = result.ValueOrDie().plan;
  EXPECT_TRUE(Contains(plan, Algorithm::kTAggrM)) << plan->ToString();
  EXPECT_FALSE(Contains(plan, Algorithm::kTAggrD)) << plan->ToString();
  // The argument arrives sorted through a transfer: either SORT^D below
  // T^M (Fig 7 Plan 1) or SORT^M above it (Plan 2).
  EXPECT_TRUE(Contains(plan, Algorithm::kSortD) ||
              Contains(plan, Algorithm::kSortM))
      << plan->ToString();
  // TAGGR^M preserves the (POSID, T1) order, so no top-level sort is needed:
  // the root is the aggregation itself or its transfer-d-free pipeline.
  EXPECT_EQ(plan->algorithm, Algorithm::kTAggrM) << plan->ToString();
  EXPECT_GT(result.ValueOrDie().num_classes, 2u);
  EXPECT_GE(result.ValueOrDie().num_elements,
            result.ValueOrDie().num_classes);
}

TEST(OptimizerTest, ExpensiveMiddlewareAggregationStaysInDbms) {
  cost::CostModel model;
  // Make middleware temporal aggregation prohibitive and the DBMS version
  // cheap: the optimizer must keep everything in the DBMS.
  model.factors().taggm1 = 100;
  model.factors().taggm2 = 100;
  model.factors().taggd1 = 0.001;
  model.factors().taggd2 = 0.001;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider());
  auto result = opt.Optimize(Query1Plan());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& plan = result.ValueOrDie().plan;
  EXPECT_TRUE(Contains(plan, Algorithm::kTAggrD)) << plan->ToString();
  EXPECT_FALSE(Contains(plan, Algorithm::kTAggrM)) << plan->ToString();
  // All-DBMS plan: exactly one TRANSFER^M at the root.
  EXPECT_EQ(plan->algorithm, Algorithm::kTransferM) << plan->ToString();
}

TEST(OptimizerTest, TransferCostMovesJoinSite) {
  // One-to-one join (result no bigger than the arguments): with expensive
  // transfers it is cheaper to join in the DBMS and ship one result than to
  // ship both arguments.
  auto l = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto r = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto join = algebra::Join(l, r, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  auto plan = algebra::TransferM(join).ValueOrDie();

  cost::CostModel expensive_wire;
  expensive_wire.factors().tm = 10.0;
  expensive_wire.factors().td = 10.0;
  Optimizer opt1(&expensive_wire);
  opt1.set_scan_stats_provider(Provider(10000, /*posid_distinct=*/10000));
  auto r1 = opt1.Optimize(plan);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(Contains(r1.ValueOrDie().plan, Algorithm::kJoinD))
      << r1.ValueOrDie().plan->ToString();

  cost::CostModel cheap_wire;
  cheap_wire.factors().tm = 0.0001;
  cheap_wire.factors().td = 0.0001;
  cheap_wire.factors().joind = 1.0;     // DBMS join slow
  cheap_wire.factors().joindout = 1.0;
  Optimizer opt2(&cheap_wire);
  opt2.set_scan_stats_provider(Provider(10000, 10000));
  auto r2 = opt2.Optimize(plan);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(Contains(r2.ValueOrDie().plan, Algorithm::kMergeJoinM))
      << r2.ValueOrDie().plan->ToString();
}

TEST(OptimizerTest, LargeJoinResultPrefersMiddleware) {
  // The Query 3 lesson: when the join result is bigger than its arguments,
  // shipping the arguments and joining in the middleware wins even though
  // transfers are expensive.
  auto l = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto r = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto join = algebra::Join(l, r, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  auto plan = algebra::TransferM(join).ValueOrDie();
  cost::CostModel model;
  model.factors().tm = 10.0;
  Optimizer opt(&model);
  // distinct = card/5 -> result is 5x the argument size.
  opt.set_scan_stats_provider(Provider(10000));
  auto result = opt.Optimize(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Contains(result.ValueOrDie().plan, Algorithm::kMergeJoinM))
      << result.ValueOrDie().plan->ToString();
}

TEST(OptimizerTest, SortEliminationThroughTAggr) {
  // ORDER BY POSID after ξ^T grouped on POSID: TAGGR^M already delivers the
  // order, so no SORT^M may appear above it (rule T10/T11 behaviour).
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider());
  auto result = opt.Optimize(Query1Plan());
  ASSERT_TRUE(result.ok());
  const auto& plan = result.ValueOrDie().plan;
  ASSERT_EQ(plan->algorithm, Algorithm::kTAggrM);
  // No sort above the aggregation.
  EXPECT_NE(Flat(plan).substr(0, 6), "SORT^M");
}

TEST(OptimizerTest, SelectionPushdownReducesTransfer) {
  // σ_{T1<c AND T2>c'}(ξ(POSITION)) — the reduce-argument heuristic should
  // produce a plan where the selection also runs below the aggregation.
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "CNT"}})
                 .ValueOrDie();
  auto pred = sql::Parser::ParseSelect(
                  "SELECT X FROM T WHERE T1 < 8000 AND T2 > 7900")
                  .ValueOrDie()
                  ->where;
  auto sel = algebra::Select(agg, pred).ValueOrDie();
  auto initial = algebra::TransferM(sel).ValueOrDie();

  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider());
  auto result = opt.Optimize(initial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The window is highly selective; the winning plan must filter before
  // aggregating (a SELECT^D below, since the scan is in the DBMS).
  const std::string flat = Flat(result.ValueOrDie().plan);
  EXPECT_NE(flat.find("SELECT^D"), std::string::npos)
      << result.ValueOrDie().plan->ToString();
}

TEST(OptimizerTest, DbmsOnlyOperatorsForceDbmsSite) {
  // A projection-only query stays entirely in the DBMS (selection /
  // projection alone cannot justify a transfer — heuristic group 1).
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto proj = algebra::Project(scan, {{Expr::ColumnRef("POSID"), "POSID"}})
                  .ValueOrDie();
  auto initial = algebra::TransferM(proj).ValueOrDie();
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider());
  auto result = opt.Optimize(initial);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Flat(result.ValueOrDie().plan),
            "TRANSFER^M(PROJECT^D(SCAN^D()))");
}

TEST(OptimizerTest, CoalesceRunsInMiddleware) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto coal = algebra::Coalesce(scan).ValueOrDie();
  auto initial = algebra::TransferM(coal).ValueOrDie();
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider(1000));
  auto result = opt.Optimize(initial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Contains(result.ValueOrDie().plan, Algorithm::kCoalesceM));
}

TEST(OptimizerTest, EquivalenceClassCountsAreReported) {
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider());
  auto r = opt.Optimize(Query1Plan());
  ASSERT_TRUE(r.ok());
  // Query 1 in the paper: 12 classes, 29 elements. Our counts differ (the
  // rule realization differs) but must be in a sane range.
  EXPECT_GE(r.ValueOrDie().num_classes, 3u);
  EXPECT_LE(r.ValueOrDie().num_classes, 50u);
  EXPECT_GE(r.ValueOrDie().num_elements, r.ValueOrDie().num_classes);
}

TEST(OptimizerTest, MiddlewareOnlyOperatorsForceTransfers) {
  // Coalescing and difference exist only in the middleware; plans for them
  // must transfer their (DBMS-resident) inputs up, and any DBMS-side
  // continuation must go through a T^D.
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider(2000));

  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto diff = algebra::Difference(a, b).ValueOrDie();
  auto initial = algebra::TransferM(diff).ValueOrDie();
  auto r = opt.Optimize(initial);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(Contains(r.ValueOrDie().plan, Algorithm::kDiffM));
  EXPECT_TRUE(Contains(r.ValueOrDie().plan, Algorithm::kTransferM));

  // DupElim has both a DISTINCT^D and a DUPELIM^M implementation; for a
  // DBMS-resident input with nothing else in the middleware, the DBMS side
  // wins (no transfer detour).
  auto dup = algebra::DupElim(a).ValueOrDie();
  auto r2 = opt.Optimize(algebra::TransferM(dup).ValueOrDie());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(Contains(r2.ValueOrDie().plan, Algorithm::kDistinctD))
      << r2.ValueOrDie().plan->ToString();
}

TEST(OptimizerTest, PlanPrintingCarriesCostsAndRows) {
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(Provider(5000));
  auto r = opt.Optimize(Query1Plan());
  ASSERT_TRUE(r.ok());
  const std::string rendered = r.ValueOrDie().plan->ToString();
  EXPECT_NE(rendered.find("cost="), std::string::npos);
  EXPECT_NE(rendered.find("rows="), std::string::npos);
  EXPECT_NE(rendered.find("TAGGR"), std::string::npos);
}

// ---- NarrowBaseAccesses: heuristic group 4 for attributes ----

Schema WideSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "PAYRATE", DataType::kDouble},
                 {"", "DEPT", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

algebra::OpPtr WideScan(const std::string& alias) {
  return algebra::Scan("POSITION", WideSchema(), alias).ValueOrDie();
}

ExprPtr Where(const std::string& text) {
  return sql::Parser::ParseSelect("SELECT X FROM T WHERE " + text)
      .ValueOrDie()
      ->where;
}

std::string Narrowed(const algebra::OpPtr& plan) {
  auto narrowed = NarrowBaseAccesses(plan);
  EXPECT_TRUE(narrowed.ok()) << narrowed.status().ToString();
  return narrowed.ok() ? narrowed.ValueOrDie()->ToString() : "";
}

TEST(NarrowBaseAccessesTest, SelectionAndJoinSplitWhatTheirParentsRead) {
  // π reads A.EMPNAME; σ adds both PAYRATEs; ⋈ splits them by side and
  // adds the join attributes.
  auto join =
      algebra::Join(WideScan("A"), WideScan("B"), {{"A.POSID", "B.POSID"}})
          .ValueOrDie();
  auto sel = algebra::Select(join, Where("A.PAYRATE > B.PAYRATE")).ValueOrDie();
  auto proj =
      algebra::Project(sel, {{Expr::ColumnRef("A.EMPNAME"), "EMPNAME"}})
          .ValueOrDie();
  EXPECT_EQ(Narrowed(proj),
            "PROJECT [A.EMPNAME AS EMPNAME]\n"
            "  SELECT [A.PAYRATE > B.PAYRATE]\n"
            "    JOIN [A.POSID=B.POSID]\n"
            "      PROJECT [A.POSID, A.EMPNAME, A.PAYRATE]\n"
            "        SCAN POSITION AS A\n"
            "      PROJECT [B.POSID, B.PAYRATE]\n"
            "        SCAN POSITION AS B\n");
}

TEST(NarrowBaseAccessesTest, SortKeepsItsKeysAndTheAccessItsFilter) {
  // ξ^T reads POSID, T1, T2; the sort adds DEPT. The π goes above the
  // access's σ, whose PAYRATE nothing above reads.
  auto sel = algebra::Select(WideScan("P"), Where("PAYRATE > 10")).ValueOrDie();
  auto sorted = algebra::Sort(sel, {{"DEPT", true}}).ValueOrDie();
  auto agg = algebra::TAggregate(sorted, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "CNT"}})
                 .ValueOrDie();
  EXPECT_EQ(Narrowed(agg),
            "TAGGR [POSID; COUNT(POSID) AS CNT]\n"
            "  SORT [DEPT]\n"
            "    PROJECT [P.POSID, P.DEPT, P.T1, P.T2]\n"
            "      SELECT [PAYRATE > 10]\n"
            "        SCAN POSITION AS P\n");
}

TEST(NarrowBaseAccessesTest, ProjectionNarrowsItsOwnAccess) {
  // A π consumer narrows already: its access stays as it is.
  auto sel = algebra::Select(WideScan("P"), Where("PAYRATE > 10")).ValueOrDie();
  auto proj =
      algebra::Project(sel, {{Expr::ColumnRef("EMPNAME"), "EMPNAME"}})
          .ValueOrDie();
  EXPECT_EQ(Narrowed(proj), proj->ToString());
}

TEST(NarrowBaseAccessesTest, TemporalJoinMapsOutputPositionsBack) {
  // ⋈^T's output: A's columns but its period, B's but its period and
  // POSID, then T1, T2. Each side keeps what is read of it, its period
  // and its join attribute.
  auto tjoin =
      algebra::TJoin(WideScan("A"), WideScan("B"), {{"A.POSID", "B.POSID"}})
          .ValueOrDie();
  auto proj = algebra::Project(tjoin, {{Expr::ColumnRef("A.EMPNAME"), "E"},
                                       {Expr::ColumnRef("B.DEPT"), "D"},
                                       {Expr::ColumnRef("T1"), "T1"},
                                       {Expr::ColumnRef("T2"), "T2"}})
                  .ValueOrDie();
  EXPECT_EQ(Narrowed(proj),
            "PROJECT [A.EMPNAME AS E, B.DEPT AS D, T1, T2]\n"
            "  TJOIN [A.POSID=B.POSID]\n"
            "    PROJECT [A.POSID, A.EMPNAME, A.T1, A.T2]\n"
            "      SCAN POSITION AS A\n"
            "    PROJECT [B.POSID, B.DEPT, B.T1, B.T2]\n"
            "      SCAN POSITION AS B\n");
}

TEST(NarrowBaseAccessesTest, TemporalAggregationReadsGroupsArgumentsAndPeriod) {
  auto agg = algebra::TAggregate(WideScan("P"), {"DEPT"},
                                 {{AggFunc::kSum, "PAYRATE", "TOTAL"}})
                 .ValueOrDie();
  EXPECT_EQ(Narrowed(agg),
            "TAGGR [DEPT; SUM(PAYRATE) AS TOTAL]\n"
            "  PROJECT [P.PAYRATE, P.DEPT, P.T1, P.T2]\n"
            "    SCAN POSITION AS P\n");
}

TEST(NarrowBaseAccessesTest, UnreadProductSideKeepsItsNarrowestColumn) {
  // Nothing reads B, but its rows still multiply A's: the first numeric
  // column carries them.
  auto product = algebra::Product(WideScan("A"), WideScan("B")).ValueOrDie();
  auto proj =
      algebra::Project(product, {{Expr::ColumnRef("A.DEPT"), "DEPT"}})
          .ValueOrDie();
  EXPECT_EQ(Narrowed(proj),
            "PROJECT [A.DEPT AS DEPT]\n"
            "  PRODUCT\n"
            "    PROJECT [A.DEPT]\n"
            "      SCAN POSITION AS A\n"
            "    PROJECT [B.POSID]\n"
            "      SCAN POSITION AS B\n");
}

TEST(NarrowBaseAccessesTest, DistinctCoalesceAndDifferenceReadEveryColumn) {
  // rdup, coal and − compare whole tuples: nothing below them narrows,
  // even under a parent that reads one column.
  auto join =
      algebra::Join(WideScan("A"), WideScan("B"), {{"A.POSID", "B.POSID"}})
          .ValueOrDie();
  const auto read_first = [](const algebra::OpPtr& op) {
    const Column& c = op->schema.column(0);
    return algebra::Project(op, {{Expr::Column(c.table, c.name), "C"}})
        .ValueOrDie();
  };
  for (const algebra::OpPtr& op :
       {algebra::DupElim(join).ValueOrDie(),
        algebra::Coalesce(WideScan("P")).ValueOrDie(),
        algebra::Difference(WideScan("A"), WideScan("B")).ValueOrDie()}) {
    const algebra::OpPtr parent = read_first(op);
    EXPECT_EQ(Narrowed(parent), parent->ToString());
  }
  // Without the rdup, the same join's inputs narrow.
  const algebra::OpPtr parent = read_first(join);
  EXPECT_NE(Narrowed(parent), parent->ToString());
}

TEST(NarrowBaseAccessesTest, OptimizerPricesTheNarrowerTransfer) {
  // Query 1's aggregation reads 3 of 6 columns: the plan ships them
  // through a PROJECT^D, and TRANSFER^M is priced on their bytes alone.
  auto agg = algebra::TAggregate(WideScan("POSITION"), {"POSID"},
                                 {{AggFunc::kCount, "POSID", "CNT"}})
                 .ValueOrDie();
  stats::RelStats wide = PosStats(80000);
  const stats::ColumnInfo posid = wide.columns[0];
  const stats::ColumnInfo name = wide.columns[1];
  const stats::ColumnInfo t1 = wide.columns[2];
  const stats::ColumnInfo t2 = wide.columns[3];
  wide.columns = {posid, name, posid, name, t1, t2};
  wide.avg_tuple_bytes = 4 + 2 * (posid.avg_width + name.avg_width) +
                         t1.avg_width + t2.avg_width;
  cost::CostModel model;
  Optimizer opt(&model);
  opt.set_scan_stats_provider(
      [wide](const std::string&) -> Result<stats::RelStats> { return wide; });
  auto result = opt.Optimize(algebra::TransferM(agg).ValueOrDie());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PhysPlanPtr& plan = result.ValueOrDie().plan;
  ASSERT_EQ(Flat(plan),
            "TAGGR^M(TRANSFER^M(SORT^D(PROJECT^D(SCAN^D()))))");
  EXPECT_DOUBLE_EQ(
      plan->children[0]->est_bytes,
      80000 * (4 + posid.avg_width + t1.avg_width + t2.avg_width));
}

TEST(PhysPropsTest, OrderSatisfiesIsPrefixOf) {
  std::vector<algebra::SortSpec> gd = {{"A", true}, {"B", true}};
  EXPECT_TRUE(OrderSatisfies({}, gd));
  EXPECT_TRUE(OrderSatisfies({{"A", true}}, gd));
  EXPECT_TRUE(OrderSatisfies(gd, gd));
  EXPECT_FALSE(OrderSatisfies({{"B", true}}, gd));
  EXPECT_FALSE(OrderSatisfies({{"A", false}}, gd));
  EXPECT_FALSE(OrderSatisfies({{"A", true}, {"B", true}, {"C", true}}, gd));
}

}  // namespace
}  // namespace optimizer
}  // namespace tango
