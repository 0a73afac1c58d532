#include <gtest/gtest.h>

#include "common/date.h"
#include "sql/parser.h"

namespace tango {
namespace sql {
namespace {

TEST(LexerTest, TokenizesBasics) {
  auto r = Lexer::Tokenize("SELECT a.b, 12 3.5 'x''y' <= <> != --c\nFROM");
  ASSERT_TRUE(r.ok());
  const auto& t = r.ValueOrDie();
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[0].type, TokenType::kKeyword);
  EXPECT_EQ(t[1].text, "A");
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_EQ(t[2].text, ".");
  EXPECT_EQ(t[3].text, "B");
  EXPECT_EQ(t[4].text, ",");
  EXPECT_EQ(t[5].int_value, 12);
  EXPECT_DOUBLE_EQ(t[6].float_value, 3.5);
  EXPECT_EQ(t[7].text, "x'y");
  EXPECT_EQ(t[7].type, TokenType::kString);
  EXPECT_EQ(t[8].text, "<=");
  EXPECT_EQ(t[9].text, "<>");
  EXPECT_EQ(t[10].text, "<>");  // != normalized
  EXPECT_EQ(t[11].text, "FROM");  // comment skipped
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(Lexer::Tokenize("SELECT 'oops").ok());
  EXPECT_FALSE(Lexer::Tokenize("a ? b").ok());
}

TEST(LexerTest, RejectsIntegerLiteralsThatOverflow) {
  auto max = Lexer::Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.ValueOrDie()[0].int_value, INT64_MAX);
  auto over = Lexer::Tokenize("9223372036854775808");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  // Formerly clamped to INT64_MAX and stored.
  EXPECT_FALSE(
      Parser::Parse("INSERT INTO D VALUES (99999999999999999999)").ok());
  // The minus is an operator, so INT64_MIN has no literal either.
  EXPECT_FALSE(
      Parser::Parse("SELECT X FROM T WHERE X > -9223372036854775808").ok());
  EXPECT_TRUE(
      Parser::Parse("SELECT X FROM T WHERE X > -9223372036854775807").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto r = Parser::ParseSelect("SELECT PosID, T1 FROM POSITION");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& s = *r.ValueOrDie();
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->ToString(), "POSID");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "POSITION");
  EXPECT_EQ(s.where, nullptr);
}

TEST(ParserTest, PaperFigure5Query) {
  // The exact SQL of Figure 5 (top TRANSFER^M).
  const char* q =
      "SELECT A.PosID AS PosID, EmpName, "
      "GREATEST(A.T1,B.T1) AS T1, "
      "LEAST(A.T2,B.T2) AS T2, COUNTofPosID "
      "FROM TMP A, POSITION B "
      "WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 "
      "ORDER BY PosID";
  auto r = Parser::ParseSelect(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& s = *r.ValueOrDie();
  ASSERT_EQ(s.items.size(), 5u);
  EXPECT_EQ(s.items[0].alias, "POSID");
  EXPECT_EQ(s.items[2].expr->function, "GREATEST");
  ASSERT_EQ(s.from.size(), 2u);
  EXPECT_EQ(s.from[0].alias, "A");
  EXPECT_EQ(s.from[1].alias, "B");
  ASSERT_NE(s.where, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
}

TEST(ParserTest, GroupByAggregates) {
  auto r = Parser::ParseSelect(
      "SELECT PosID, COUNT(*), SUM(Pay), AVG(Pay) FROM P "
      "GROUP BY PosID HAVING COUNT(*) > 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& s = *r.ValueOrDie();
  EXPECT_TRUE(s.items[1].expr->agg_star);
  EXPECT_EQ(s.items[2].expr->agg, AggFunc::kSum);
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
}

TEST(ParserTest, SubqueryInFromRequiresAlias) {
  EXPECT_FALSE(Parser::ParseSelect(
      "SELECT X FROM (SELECT X FROM T)").ok());
  auto ok = Parser::ParseSelect("SELECT X FROM (SELECT X FROM T) S");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.ValueOrDie()->from[0].alias, "S");
  ASSERT_NE(ok.ValueOrDie()->from[0].subquery, nullptr);
}

TEST(ParserTest, UnionChainWithOrderBy) {
  auto r = Parser::ParseSelect(
      "SELECT T1 AS T FROM R UNION SELECT T2 FROM R "
      "UNION ALL SELECT T2 FROM R ORDER BY T");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& s = *r.ValueOrDie();
  ASSERT_NE(s.union_next, nullptr);
  EXPECT_FALSE(s.union_all);
  ASSERT_NE(s.union_next->union_next, nullptr);
  EXPECT_TRUE(s.union_next->union_all);
  EXPECT_EQ(s.order_by.size(), 1u);
  // ORDER BY is attached to the head, not the arms.
  EXPECT_TRUE(s.union_next->order_by.empty());
}

TEST(ParserTest, DateLiteralBecomesDayNumber) {
  auto r = Parser::ParseSelect(
      "SELECT X FROM T WHERE T1 < DATE '1997-02-08'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& w = r.ValueOrDie()->where;
  ASSERT_EQ(w->children.size(), 2u);
  EXPECT_EQ(w->children[1]->literal.AsInt(), date::FromYmd(1997, 2, 8));
}

TEST(ParserTest, BetweenDesugarsToConjunction) {
  auto r = Parser::ParseSelect("SELECT X FROM T WHERE X BETWEEN 2 AND 5");
  ASSERT_TRUE(r.ok());
  const auto& w = r.ValueOrDie()->where;
  EXPECT_EQ(w->binary_op, BinaryOp::kAnd);
  EXPECT_EQ(w->children[0]->binary_op, BinaryOp::kGe);
  EXPECT_EQ(w->children[1]->binary_op, BinaryOp::kLe);
}

TEST(ParserTest, OperatorPrecedence) {
  auto r = Parser::ParseSelect(
      "SELECT X FROM T WHERE A = 1 OR B = 2 AND C < 3 + 4 * 5");
  ASSERT_TRUE(r.ok());
  const auto& w = r.ValueOrDie()->where;
  EXPECT_EQ(w->binary_op, BinaryOp::kOr);  // OR binds loosest
  const auto& rhs = w->children[1];
  EXPECT_EQ(rhs->binary_op, BinaryOp::kAnd);
  const auto& cmp = rhs->children[1];
  EXPECT_EQ(cmp->binary_op, BinaryOp::kLt);
  EXPECT_EQ(cmp->children[1]->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(cmp->children[1]->children[1]->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, CreateTableBothForms) {
  auto r1 = Parser::Parse(
      "CREATE TABLE TMP (PosID INT, Pay DOUBLE, Name VARCHAR(20), D DATE)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  const auto& ct = *r1.ValueOrDie().create_table;
  EXPECT_EQ(ct.name, "TMP");
  ASSERT_EQ(ct.columns.size(), 4u);
  EXPECT_EQ(ct.columns[0].type, DataType::kInt);
  EXPECT_EQ(ct.columns[1].type, DataType::kDouble);
  EXPECT_EQ(ct.columns[2].type, DataType::kString);
  EXPECT_EQ(ct.columns[3].type, DataType::kInt);  // dates are day numbers

  auto r2 = Parser::Parse("CREATE TABLE T2 AS SELECT PosID FROM POSITION");
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r2.ValueOrDie().create_table->as_select, nullptr);
}

TEST(ParserTest, InsertValues) {
  auto r = Parser::Parse("INSERT INTO T VALUES (1, 'a'), (2, 'b')");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().insert->rows.size(), 2u);
  EXPECT_EQ(r.ValueOrDie().insert->rows[1][0]->literal.AsInt(), 2);
}

TEST(ParserTest, DropAnalyzeCreateIndex) {
  EXPECT_EQ(Parser::Parse("DROP TABLE TMP").ValueOrDie().drop_table->table,
            "TMP");
  EXPECT_EQ(Parser::Parse("ANALYZE POSITION").ValueOrDie().analyze->table,
            "POSITION");
  EXPECT_EQ(Parser::Parse("ANALYZE").ValueOrDie().analyze->table, "");
  auto ci = Parser::Parse("CREATE INDEX IX ON POSITION (T1)");
  ASSERT_TRUE(ci.ok());
  EXPECT_EQ(ci.ValueOrDie().create_index->table, "POSITION");
  EXPECT_EQ(ci.ValueOrDie().create_index->column, "T1");
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parser::Parse("SELECT X FROM T garbage garbage").ok());
  EXPECT_FALSE(Parser::Parse("SELECT FROM T").ok());
  EXPECT_FALSE(Parser::Parse("SELECT X T").ok());
}

TEST(ParserTest, NegativeNumbersFoldToLiterals) {
  auto r = Parser::ParseSelect("SELECT X FROM T WHERE X > -42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie()->where->children[1]->literal.AsInt(), -42);
}

TEST(ParserTest, IsNullPredicates) {
  auto r = Parser::ParseSelect("SELECT X FROM T WHERE X IS NOT NULL");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie()->where->unary_op, UnaryOp::kIsNotNull);
}

TEST(ParserTest, StarVariants) {
  auto r = Parser::ParseSelect("SELECT *, A.* FROM T A");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie()->items[0].star);
  EXPECT_TRUE(r.ValueOrDie()->items[1].star);
  EXPECT_EQ(r.ValueOrDie()->items[1].star_qualifier, "A");
}

}  // namespace
}  // namespace sql
}  // namespace tango
