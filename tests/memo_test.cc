#include <gtest/gtest.h>

#include "optimizer/memo.h"
#include "sql/parser.h"

namespace tango {
namespace optimizer {
namespace {

Schema PosSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "PAYRATE", DataType::kDouble},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

stats::RelStats PosStats() {
  stats::RelStats rel;
  rel.cardinality = 10000;
  rel.avg_tuple_bytes = 50;
  stats::ColumnInfo c;
  c.numeric = true;
  c.min = 0;
  c.max = 1000;
  c.num_distinct = 500;
  rel.columns = {c, c, c, c};
  return rel;
}

Memo MakeMemo() {
  Memo memo;
  memo.set_scan_stats_provider(
      [](const std::string&) -> Result<stats::RelStats> { return PosStats(); });
  return memo;
}

ExprPtr Pred(const std::string& text) {
  return sql::Parser::ParseSelect("SELECT X FROM T WHERE " + text)
      .ValueOrDie()
      ->where;
}

/// Counts elements of the given kind across all classes.
size_t CountKind(const Memo& memo, algebra::OpKind kind) {
  size_t n = 0;
  for (size_t g = 0; g < memo.num_groups(); ++g) {
    for (const MExpr& e : memo.group(g).exprs) {
      if (e.op->kind == kind) ++n;
    }
  }
  return n;
}

TEST(MemoTest, CopyInBuildsOneClassPerOperator) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto sel = algebra::Select(scan, Pred("PAYRATE > 10")).ValueOrDie();
  auto sorted = algebra::Sort(sel, {{"POSID", true}}).ValueOrDie();
  Memo memo = MakeMemo();
  auto root = memo.CopyIn(sorted);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(memo.num_groups(), 3u);
  EXPECT_EQ(memo.num_exprs(), 3u);
  // The root group's derived stats come from the selection's selectivity.
  EXPECT_LT(memo.group(root.ValueOrDie()).stats.cardinality, 10000);
}

TEST(MemoTest, TransfersAreRejected) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto tm = algebra::TransferM(scan).ValueOrDie();
  Memo memo = MakeMemo();
  EXPECT_FALSE(memo.CopyIn(tm).ok());
}

TEST(MemoTest, SelectMergeFusesStackedSelections) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto s1 = algebra::Select(scan, Pred("PAYRATE > 10")).ValueOrDie();
  auto s2 = algebra::Select(s1, Pred("POSID < 100")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(s2).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // The top class must now contain a fused Select over the scan class.
  bool fused = false;
  for (const MExpr& e : memo.group(2).exprs) {
    if (e.op->kind == algebra::OpKind::kSelect && e.children[0] == 0) {
      fused = true;
    }
  }
  EXPECT_TRUE(fused) << memo.ToString();
}

TEST(MemoTest, SelectionPushesBelowJoin) {
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto join = algebra::Join(a, b, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  auto sel = algebra::Select(join, Pred("A.PAYRATE > 10")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  const size_t selects_before = CountKind(memo, algebra::OpKind::kSelect);
  ASSERT_TRUE(memo.Explore().ok());
  // A new Select-below-join variant (σ over the A scan) must exist.
  EXPECT_GT(CountKind(memo, algebra::OpKind::kSelect), selects_before)
      << memo.ToString();
  EXPECT_GT(CountKind(memo, algebra::OpKind::kJoin), 1u) << memo.ToString();
}

TEST(MemoTest, WindowPredicateReplicatesIntoTJoinArguments) {
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto tjoin = algebra::TJoin(a, b, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  auto sel =
      algebra::Select(tjoin, Pred("T1 < 800 AND T2 > 200")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // Both scan classes acquire σ_window children, and the top keeps the
  // window selection (it is a reducer, not a replacement).
  size_t scans_with_window = 0;
  for (size_t g = 0; g < memo.num_groups(); ++g) {
    for (const MExpr& e : memo.group(g).exprs) {
      if (e.op->kind == algebra::OpKind::kSelect && e.children[0] <= 1) {
        ++scans_with_window;
      }
    }
  }
  EXPECT_GE(scans_with_window, 2u) << memo.ToString();
}

TEST(MemoTest, WindowReplicationThroughTAggregate) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "C"}})
                 .ValueOrDie();
  auto sel = algebra::Select(agg, Pred("T1 < 800 AND T2 > 200")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // The scan class (0) gains a filtered child class, and an aggregation
  // over it appears — the Query-2 Plan-1-vs-Plan-5 distinction.
  EXPECT_GT(CountKind(memo, algebra::OpKind::kTAggregate), 1u)
      << memo.ToString();
}

TEST(MemoTest, GroupAttributeSelectionCommutesThroughTAggregate) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "C"}})
                 .ValueOrDie();
  auto sel = algebra::Select(agg, Pred("POSID = 7")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // σ_{POSID=7} commutes below ξ: the top class gains a TAggregate element
  // directly (not wrapped in the selection).
  bool direct_agg_at_top = false;
  const size_t top = memo.num_groups() >= 3 ? 2 : memo.num_groups() - 1;
  for (const MExpr& e : memo.group(top).exprs) {
    if (e.op->kind == algebra::OpKind::kTAggregate) direct_agg_at_top = true;
  }
  EXPECT_TRUE(direct_agg_at_top) << memo.ToString();
}

TEST(MemoTest, SelectProjectCommute) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto proj = algebra::Project(scan, {{Expr::ColumnRef("POSID"), "PID"},
                                      {Expr::ColumnRef("PAYRATE"), "PAY"}})
                  .ValueOrDie();
  auto sel = algebra::Select(proj, Pred("PAY > 10")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // E1: a projection over σ_{PAYRATE>10}(scan) appears in the top class.
  bool commuted = false;
  for (size_t g = 0; g < memo.num_groups(); ++g) {
    for (const MExpr& e : memo.group(g).exprs) {
      if (e.op->kind == algebra::OpKind::kSelect &&
          e.op->predicate->ToString().find("PAYRATE") != std::string::npos) {
        commuted = true;
      }
    }
  }
  EXPECT_TRUE(commuted) << memo.ToString();
}

TEST(MemoTest, IdentityProjectionCollapseKeepsTheProjectionsSchema) {
  // T9 drops a π that only strips qualifiers; the expressions its class
  // adopts must still deliver the π's schema, which is what a parent binds
  // against and what a client receives.
  auto scan = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  std::vector<algebra::ProjectItem> items;
  for (const Column& c : scan->schema.columns()) {
    items.push_back({Expr::Column(c.table, c.name), c.name});
  }
  auto proj = algebra::Project(scan, items).ValueOrDie();
  Memo memo = MakeMemo();
  auto root = memo.CopyIn(proj);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE(memo.Explore().ok());
  const Group& g = memo.group(root.ValueOrDie());
  EXPECT_EQ(g.schema.ToString(), "(POSID:INT, PAYRATE:DOUBLE, T1:INT, T2:INT)");
  bool collapsed = false;
  for (const MExpr& e : g.exprs) {
    collapsed = collapsed || e.op->kind == algebra::OpKind::kScan;
    EXPECT_EQ(e.op->schema.ToString(), g.schema.ToString())
        << e.op->Describe();
  }
  EXPECT_TRUE(collapsed) << memo.ToString();
}

TEST(MemoTest, JoinCommutativityAddsRestoringProjection) {
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto join = algebra::Join(a, b, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(join).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // E2: the commuted join lives in a new class; the original class gains a
  // projection element restoring the column order.
  EXPECT_EQ(CountKind(memo, algebra::OpKind::kJoin), 2u) << memo.ToString();
  EXPECT_GE(CountKind(memo, algebra::OpKind::kProject), 1u) << memo.ToString();
}

TEST(MemoTest, SelectionCommutesBelowCoalescingWhenPeriodFree) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto coal = algebra::Coalesce(scan).ValueOrDie();
  auto sel = algebra::Select(coal, Pred("POSID = 3")).ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  ASSERT_TRUE(memo.Explore().ok());
  // Vassilakis: coal(σ_{POSID=3}(scan)) joins the top class.
  bool commuted = false;
  for (const MExpr& e : memo.group(2).exprs) {
    if (e.op->kind == algebra::OpKind::kCoalesce) commuted = true;
  }
  EXPECT_TRUE(commuted) << memo.ToString();

  // A period predicate must NOT commute.
  auto sel_t = algebra::Select(coal, Pred("T1 < 500")).ValueOrDie();
  Memo memo2 = MakeMemo();
  ASSERT_TRUE(memo2.CopyIn(sel_t).ok());
  ASSERT_TRUE(memo2.Explore().ok());
  for (size_t g = 0; g < memo2.num_groups(); ++g) {
    for (const MExpr& e : memo2.group(g).exprs) {
      if (e.op->kind == algebra::OpKind::kSelect) {
        // The only selection stays above the coalescing.
        EXPECT_EQ(memo2.group(e.children[0]).exprs[0].op->kind,
                  algebra::OpKind::kCoalesce)
            << memo2.ToString();
      }
    }
  }
}

TEST(MemoTest, ExplorationIsBoundedAndIdempotent) {
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto tjoin = algebra::TJoin(a, b, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  auto sel = algebra::Select(
                 tjoin, Pred("T1 < 800 AND T2 > 200 AND A.PAYRATE > 10"))
                 .ValueOrDie();
  Memo memo = MakeMemo();
  ASSERT_TRUE(memo.CopyIn(sel).ok());
  ASSERT_TRUE(memo.Explore().ok());
  const size_t groups = memo.num_groups();
  const size_t exprs = memo.num_exprs();
  EXPECT_LT(groups, 100u);
  EXPECT_LT(exprs, 300u);
  // A second exploration adds nothing (saturation).
  auto more = memo.Explore();
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(more.ValueOrDie(), 0u);
  EXPECT_EQ(memo.num_groups(), groups);
  EXPECT_EQ(memo.num_exprs(), exprs);
}

}  // namespace
}  // namespace optimizer
}  // namespace tango
