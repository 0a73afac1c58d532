#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "expr/expr.h"
#include "sql/parser.h"

namespace tango {
namespace {

Schema PositionSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt},
                 {"", "PAY", DataType::kDouble}});
}

ExprPtr ParseExpr(const std::string& text) {
  auto sel = sql::Parser::ParseSelect("SELECT X FROM T WHERE " + text);
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  return sel.ValueOrDie()->where;
}

TEST(ExprTest, BindResolvesColumns) {
  auto e = ParseExpr("PosID = 1 AND T1 < T2");
  auto bound = Bind(e, PositionSchema());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Tuple row = {Value(int64_t{1}), Value("Tom"), Value(int64_t{2}),
               Value(int64_t{20}), Value(10.5)};
  EXPECT_TRUE(EvalPredicate(*bound.ValueOrDie(), row));
  row[0] = Value(int64_t{2});
  EXPECT_FALSE(EvalPredicate(*bound.ValueOrDie(), row));
}

TEST(ExprTest, BindFailsOnUnknownColumn) {
  auto e = ParseExpr("Nope = 1");
  EXPECT_FALSE(Bind(e, PositionSchema()).ok());
}

TEST(ExprTest, ArithmeticAndDivision) {
  Schema s({{"", "X", DataType::kInt}});
  auto e = Bind(ParseExpr("X * 2 + 1 = 7"), s).ValueOrDie();
  EXPECT_TRUE(EvalPredicate(*e, {Value(int64_t{3})}));
  auto div = Bind(ParseExpr("X / 2 = 1.5"), s).ValueOrDie();
  EXPECT_TRUE(EvalPredicate(*div, {Value(int64_t{3})}));
  // Division by zero yields NULL, which is false in a predicate.
  auto dz = Bind(ParseExpr("X / 0 = 1"), s).ValueOrDie();
  EXPECT_FALSE(EvalPredicate(*dz, {Value(int64_t{3})}));
}

TEST(ExprTest, ThreeValuedLogic) {
  Schema s({{"", "X", DataType::kInt}});
  Tuple null_row = {Value::Null()};
  // NULL = NULL is NULL -> false.
  EXPECT_FALSE(EvalPredicate(*Bind(ParseExpr("X = X"), s).ValueOrDie(), null_row));
  // FALSE AND NULL is FALSE; TRUE OR NULL is TRUE.
  EXPECT_FALSE(EvalPredicate(
      *Bind(ParseExpr("1 = 2 AND X = 1"), s).ValueOrDie(), null_row));
  EXPECT_TRUE(EvalPredicate(
      *Bind(ParseExpr("1 = 1 OR X = 1"), s).ValueOrDie(), null_row));
  // IS NULL sees through it.
  EXPECT_TRUE(EvalPredicate(
      *Bind(ParseExpr("X IS NULL"), s).ValueOrDie(), null_row));
  // NOT NULL is NULL -> false.
  EXPECT_FALSE(EvalPredicate(
      *Bind(ParseExpr("NOT X = 1"), s).ValueOrDie(), null_row));
}

TEST(ExprTest, GreatestLeast) {
  Schema s({{"", "A", DataType::kInt}, {"", "B", DataType::kInt}});
  auto g = Bind(ParseExpr("GREATEST(A, B) = 9"), s).ValueOrDie();
  EXPECT_TRUE(EvalPredicate(*g, {Value(int64_t{9}), Value(int64_t{4})}));
  auto l = Bind(ParseExpr("LEAST(A, B, 2) = 2"), s).ValueOrDie();
  EXPECT_TRUE(EvalPredicate(*l, {Value(int64_t{9}), Value(int64_t{4})}));
  // Oracle semantics: NULL argument poisons the result.
  auto gn = Bind(ParseExpr("GREATEST(A, B) = 9"), s).ValueOrDie();
  EXPECT_FALSE(EvalPredicate(*gn, {Value(int64_t{9}), Value::Null()}));
}

TEST(ExprTest, SplitConjunctsFlattensNestedAnds) {
  auto e = ParseExpr("A = 1 AND (B = 2 AND C = 3) AND D = 4");
  auto parts = SplitConjuncts(e);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1]->ToString(), "B = 2");
  // OR is not split.
  auto o = SplitConjuncts(ParseExpr("A = 1 OR B = 2"));
  EXPECT_EQ(o.size(), 1u);
}

TEST(ExprTest, CollectColumnsIsAttrOfPaper) {
  std::vector<std::string> cols;
  CollectColumns(ParseExpr("A.PosID = B.PosID AND A.T1 < B.T2"), &cols);
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0], "A.POSID");
  EXPECT_EQ(cols[3], "B.T2");
}

TEST(ExprTest, ColumnsResolveInChecksSchemaCoverage) {
  Schema s = PositionSchema();
  EXPECT_TRUE(ColumnsResolveIn(ParseExpr("PosID = 1 AND T1 < 5"), s));
  EXPECT_FALSE(ColumnsResolveIn(ParseExpr("PosID = 1 AND Missing < 5"), s));
}

TEST(ExprTest, StructuralEquality) {
  auto a = ParseExpr("PosID = 1 AND T1 < T2");
  auto b = ParseExpr("PosID = 1 AND T1 < T2");
  auto c = ParseExpr("PosID = 2 AND T1 < T2");
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
}

TEST(ExprTest, InferTypes) {
  Schema s = PositionSchema();
  EXPECT_EQ(InferType(Expr::ColumnRef("PAY"), s).ValueOrDie(),
            DataType::kDouble);
  EXPECT_EQ(InferType(Expr::ColumnRef("EMPNAME"), s).ValueOrDie(),
            DataType::kString);
  auto add = Expr::Binary(BinaryOp::kAdd, Expr::ColumnRef("POSID"),
                          Expr::ColumnRef("PAY"));
  EXPECT_EQ(InferType(add, s).ValueOrDie(), DataType::kDouble);
  auto agg = Expr::Aggregate(AggFunc::kCount, Expr::ColumnRef("POSID"));
  EXPECT_EQ(InferType(agg, s).ValueOrDie(), DataType::kInt);
  auto avg = Expr::Aggregate(AggFunc::kAvg, Expr::ColumnRef("POSID"));
  EXPECT_EQ(InferType(avg, s).ValueOrDie(), DataType::kDouble);
}

TEST(ExprTest, ContainsAggregate) {
  EXPECT_TRUE(ContainsAggregate(
      Expr::Aggregate(AggFunc::kMax, Expr::ColumnRef("X"))));
  EXPECT_FALSE(ContainsAggregate(ParseExpr("A = 1")));
}

TEST(ExprTest, ToStringParenthesizesWhereTheGrammarWouldRegroup) {
  const auto col = [](const char* name) { return Expr::ColumnRef(name); };
  const auto bin = [](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Expr::Binary(op, std::move(l), std::move(r));
  };
  const std::pair<ExprPtr, std::string> cases[] = {
      {ParseExpr("(A + B) * C > 30"), "(A + B) * C > 30"},
      {ParseExpr("A + B * C > 30"), "A + B * C > 30"},
      {ParseExpr("A - (B - C) > 0"), "A - (B - C) > 0"},
      {ParseExpr("A - B - C > 0"), "A - B - C > 0"},
      {ParseExpr("A / (B * C) <= 1.5"), "A / (B * C) <= 1.5"},
      {ParseExpr("T2 > 4748 AND T1 < 9862"), "(T2 > 4748 AND T1 < 9862)"},
      {ParseExpr("A * -2 = -(B)"), "A * -2 = -(B)"},
      {bin(BinaryOp::kEq, bin(BinaryOp::kLt, col("A"), col("B")),
           Expr::Int(1)),
       "(A < B) = 1"},
      {bin(BinaryOp::kEq, Expr::Unary(UnaryOp::kNot, col("A")), Expr::Int(0)),
       "(NOT (A)) = 0"},
      {bin(BinaryOp::kAdd, Expr::Unary(UnaryOp::kIsNull, col("A")),
           Expr::Int(1)),
       "((A) IS NULL) + 1"},
  };
  for (const auto& [e, text] : cases) {
    EXPECT_EQ(e->ToString(), text);
    // The text reads back as the same tree.
    const ExprPtr reparsed = ParseExpr(text);
    EXPECT_TRUE(e->Equals(*reparsed)) << text << " vs " << reparsed->ToString();
  }
}

TEST(ExprTest, ToStringRoundTripsThroughParser) {
  // Printing then re-parsing yields a structurally equal tree.
  auto e = ParseExpr("A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1");
  auto reparsed = ParseExpr(e->ToString());
  EXPECT_TRUE(e->Equals(*reparsed)) << e->ToString();
}

}  // namespace
}  // namespace tango
