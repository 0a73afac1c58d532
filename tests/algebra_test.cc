#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/algebra.h"

namespace tango {
namespace algebra {
namespace {

Schema PosSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

OpPtr PosScan(const std::string& alias = "") {
  return Scan("POSITION", PosSchema(), alias).ValueOrDie();
}

TEST(AlgebraTest, ScanQualifiesSchema) {
  auto scan = PosScan("A");
  EXPECT_EQ(scan->schema.column(0).table, "A");
  EXPECT_EQ(scan->schema.IndexOf("A.POSID").ValueOrDie(), 0u);
  // Default alias is the table name.
  auto plain = PosScan();
  EXPECT_EQ(plain->schema.column(0).table, "POSITION");
}

TEST(AlgebraTest, SelectValidatesPredicate) {
  auto ok = Select(PosScan(), Expr::Binary(BinaryOp::kEq,
                                           Expr::ColumnRef("POSID"),
                                           Expr::Int(1)));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie()->schema.num_columns(), 4u);
  auto bad = Select(PosScan(), Expr::Binary(BinaryOp::kEq,
                                            Expr::ColumnRef("NOPE"),
                                            Expr::Int(1)));
  EXPECT_FALSE(bad.ok());
}

TEST(AlgebraTest, ProjectDerivesTypes) {
  auto p = Project(PosScan(), {{Expr::ColumnRef("POSID"), "PID"},
                               {Expr::Binary(BinaryOp::kSub,
                                             Expr::ColumnRef("T2"),
                                             Expr::ColumnRef("T1")),
                                "DUR"}});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p.ValueOrDie()->schema.column(0).name, "PID");
  EXPECT_EQ(p.ValueOrDie()->schema.column(1).type, DataType::kInt);
}

TEST(AlgebraTest, TJoinSchemaDropsJoinAttrAndIntersectsPeriod) {
  // TAGGR(POSITION) ⋈^T POSITION on PosID, as in the running example.
  auto agg = TAggregate(PosScan(), {"POSID"},
                        {{AggFunc::kCount, "POSID", "COUNTOFPOSID"}});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  // Aggregation schema: POSID, T1, T2, COUNTOFPOSID.
  EXPECT_EQ(agg.ValueOrDie()->schema.num_columns(), 4u);
  EXPECT_EQ(agg.ValueOrDie()->schema.column(3).name, "COUNTOFPOSID");
  EXPECT_EQ(agg.ValueOrDie()->schema.column(3).type, DataType::kInt);

  auto tj = TJoin(agg.ValueOrDie(), PosScan("B"), {{"POSID", "B.POSID"}});
  ASSERT_TRUE(tj.ok()) << tj.status().ToString();
  // left minus period: POSID, COUNTOFPOSID; right minus join attr + period:
  // EMPNAME; then T1, T2.
  const Schema& s = tj.ValueOrDie()->schema;
  ASSERT_EQ(s.num_columns(), 5u);
  EXPECT_EQ(s.column(0).name, "POSID");
  EXPECT_EQ(s.column(1).name, "COUNTOFPOSID");
  EXPECT_EQ(s.column(2).name, "EMPNAME");
  EXPECT_EQ(s.column(3).name, "T1");
  EXPECT_EQ(s.column(4).name, "T2");
}

TEST(AlgebraTest, TJoinRequiresPeriods) {
  Schema no_period({{"", "X", DataType::kInt}});
  auto scan = Scan("R", no_period).ValueOrDie();
  EXPECT_FALSE(TJoin(scan, PosScan(), {}).ok());
  EXPECT_FALSE(TAggregate(scan, {}, {{AggFunc::kCount, "", "C"}}).ok());
  EXPECT_FALSE(Coalesce(scan).ok());
}

TEST(AlgebraTest, TAggregateAvgIsDouble) {
  auto agg = TAggregate(PosScan(), {}, {{AggFunc::kAvg, "POSID", "A"}});
  ASSERT_TRUE(agg.ok());
  // Schema: T1, T2, A.
  EXPECT_EQ(agg.ValueOrDie()->schema.num_columns(), 3u);
  EXPECT_EQ(agg.ValueOrDie()->schema.column(2).type, DataType::kDouble);
}

TEST(AlgebraTest, DifferenceRequiresCompatibleArms) {
  auto a = PosScan("A");
  auto b = PosScan("B");
  EXPECT_TRUE(Difference(a, b).ok());
  Schema other({{"", "X", DataType::kInt}});
  EXPECT_FALSE(Difference(a, Scan("R", other).ValueOrDie()).ok());
}

TEST(AlgebraTest, InitialPlanOfFigure4a) {
  // T^M(sort(π(⋈^T(ξ(POSITION), POSITION)))) — the running example's
  // initial plan shape.
  auto agg = TAggregate(PosScan("A"), {"POSID"},
                        {{AggFunc::kCount, "POSID", "COUNTOFPOSID"}})
                 .ValueOrDie();
  auto tj = TJoin(agg, PosScan("B"), {{"POSID", "B.POSID"}}).ValueOrDie();
  auto proj = Project(tj, {{Expr::ColumnRef("POSID"), "POSID"},
                           {Expr::ColumnRef("EMPNAME"), "EMPNAME"},
                           {Expr::ColumnRef("T1"), "T1"},
                           {Expr::ColumnRef("T2"), "T2"},
                           {Expr::ColumnRef("COUNTOFPOSID"), "COUNTOFPOSID"}})
                  .ValueOrDie();
  auto sorted = Sort(proj, {{"POSID", true}}).ValueOrDie();
  auto plan = TransferM(sorted).ValueOrDie();
  EXPECT_EQ(plan->schema.num_columns(), 5u);
  const std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("T^M"), std::string::npos);
  EXPECT_NE(rendered.find("TAGGR"), std::string::npos);
  EXPECT_NE(rendered.find("TJOIN"), std::string::npos);
}

TEST(AlgebraTest, WithChildrenRebuildsAndRederives) {
  auto sel = Select(PosScan(), Expr::Binary(BinaryOp::kLt,
                                            Expr::ColumnRef("T1"),
                                            Expr::Int(100)))
                 .ValueOrDie();
  auto rebuilt = WithChildren(*sel, {PosScan("Z")});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.ValueOrDie()->schema.column(0).table, "Z");
}

TEST(AlgebraTest, DescribeDistinguishesParameters) {
  auto s1 = Sort(PosScan(), {{"POSID", true}}).ValueOrDie();
  auto s2 = Sort(PosScan(), {{"POSID", false}}).ValueOrDie();
  auto s3 = Sort(PosScan(), {{"POSID", true}}).ValueOrDie();
  EXPECT_NE(s1->Describe(), s2->Describe());
  EXPECT_EQ(s1->Describe(), s3->Describe());
  EXPECT_EQ(s1->ToString(), s3->ToString());
  EXPECT_NE(s1->ToString(), s2->ToString());
}

TEST(AlgebraTest, ToStringComparesDeeply) {
  auto a = Select(PosScan(), Expr::Binary(BinaryOp::kEq,
                                          Expr::ColumnRef("POSID"),
                                          Expr::Int(1)))
               .ValueOrDie();
  auto b = Select(PosScan(), Expr::Binary(BinaryOp::kEq,
                                          Expr::ColumnRef("POSID"),
                                          Expr::Int(1)))
               .ValueOrDie();
  auto c = Select(PosScan("X"), Expr::Binary(BinaryOp::kEq,
                                             Expr::ColumnRef("POSID"),
                                             Expr::Int(1)))
               .ValueOrDie();
  EXPECT_EQ(a->ToString(), b->ToString());
  EXPECT_NE(a->ToString(), c->ToString());
  // The difference is below the root: the nodes alone describe alike.
  EXPECT_EQ(a->Describe(), c->Describe());
}

TEST(AlgebraTest, DescribeIsExact) {
  const OpPtr r = Scan("R", Schema({{"", "A", DataType::kInt},
                                    {"", "B", DataType::kInt},
                                    {"", "C", DataType::kInt}}))
                      .ValueOrDie();
  const auto col = [](const char* name) { return Expr::ColumnRef(name); };
  const auto bin = [](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Expr::Binary(op, std::move(l), std::move(r));
  };
  const auto where = [&](ExprPtr lhs, ExprPtr rhs) {
    return Select(r, bin(BinaryOp::kGt, std::move(lhs), std::move(rhs)))
        .ValueOrDie();
  };
  // Each pair builds two trees that the parser would tell apart; building
  // either side twice must describe it alike.
  const std::vector<std::pair<std::function<OpPtr()>, std::function<OpPtr()>>>
      pairs = {
          {[&] {  // (A + B) * C
             return where(bin(BinaryOp::kMul,
                              bin(BinaryOp::kAdd, col("A"), col("B")),
                              col("C")),
                          Expr::Int(30));
           },
           [&] {  // A + B * C
             return where(bin(BinaryOp::kAdd, col("A"),
                              bin(BinaryOp::kMul, col("B"), col("C"))),
                          Expr::Int(30));
           }},
          {[&] {  // A - (B - C)
             return where(bin(BinaryOp::kSub, col("A"),
                              bin(BinaryOp::kSub, col("B"), col("C"))),
                          Expr::Int(0));
           },
           [&] {  // A - B - C
             return where(bin(BinaryOp::kSub,
                              bin(BinaryOp::kSub, col("A"), col("B")),
                              col("C")),
                          Expr::Int(0));
           }},
          {[&] { return where(col("A"), Expr::Int(5)); },
           [&] { return where(col("A"), Expr::Real(5.0)); }},
          {[&] { return where(col("A"), Expr::Real(12.3456)); },
           [&] { return where(col("A"), Expr::Real(12.34561)); }},
          {[&] { return Project(r, {{col("A"), "A", "X"}}).ValueOrDie(); },
           [&] { return Project(r, {{col("A"), "A", ""}}).ValueOrDie(); }},
      };
  for (const auto& [make_x, make_y] : pairs) {
    const std::string x = make_x()->Describe();
    const std::string y = make_y()->Describe();
    EXPECT_NE(x, y);
    EXPECT_EQ(x, make_x()->Describe());
    EXPECT_EQ(y, make_y()->Describe());
  }
}

}  // namespace
}  // namespace algebra
}  // namespace tango
