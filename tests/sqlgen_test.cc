#include <gtest/gtest.h>

#include "dbms/engine.h"
#include "sqlgen/translator.h"
#include "sql/parser.h"

namespace tango {
namespace sqlgen {
namespace {

using optimizer::Algorithm;
using optimizer::PhysPlanPtr;

Schema PosSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

PhysPlanPtr Node(Algorithm alg, algebra::OpPtr op,
                 std::vector<PhysPlanPtr> children) {
  auto node = std::make_shared<optimizer::PhysPlan>();
  node->algorithm = alg;
  node->op = std::move(op);
  node->children = std::move(children);
  return node;
}

algebra::OpPtr SortOpOf(const Schema& schema,
                        std::vector<algebra::SortSpec> keys) {
  auto op = std::make_shared<algebra::Op>();
  op->kind = algebra::OpKind::kSort;
  op->schema = schema;
  op->sort_keys = std::move(keys);
  return op;
}

/// Loads Figure 3's POSITION and executes `sql`, returning the rows.
std::vector<Tuple> RunSql(const std::string& sql) {
  dbms::Engine db;
  EXPECT_TRUE(db.Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                         "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  EXPECT_TRUE(db.Execute("INSERT INTO POSITION VALUES "
                         "(1, 'Tom', 2, 20), (1, 'Jane', 5, 25), "
                         "(2, 'Tom', 5, 10)")
                  .ok());
  auto r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
  return r.ok() ? r.ValueOrDie().rows : std::vector<Tuple>{};
}

TEST(TranslatorTest, ScanRendersBareTable) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(Algorithm::kScanD, scan, {}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().base_table, "POSITION");
  EXPECT_EQ(rendered.ValueOrDie().aliases.size(), 4u);
  const auto rows = RunSql(rendered.ValueOrDie().sql);
  EXPECT_EQ(rows.size(), 3u);
}

TEST(TranslatorTest, SelectionRendersWhere) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto pred = sql::Parser::ParseSelect("SELECT X FROM T WHERE PosID = 1")
                  .ValueOrDie()
                  ->where;
  auto sel = algebra::Select(scan, pred).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kSelectD, sel, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered.ValueOrDie().sql.find("WHERE"), std::string::npos);
  EXPECT_EQ(RunSql(rendered.ValueOrDie().sql).size(), 2u);
}

TEST(TranslatorTest, SortRendersOrderBy) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(
      Algorithm::kSortD, SortOpOf(scan->schema, {{"T1", true}, {"T2", false}}),
      {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered.ValueOrDie().sql.find("ORDER BY"), std::string::npos);
  EXPECT_NE(rendered.ValueOrDie().sql.find("DESC"), std::string::npos);
  const auto rows = RunSql(rendered.ValueOrDie().sql);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][2].AsInt(), 2);  // smallest T1 first
}

TEST(TranslatorTest, TemporalJoinMatchesFigure5Shape) {
  // TAGGR result ⋈^T POSITION — the SQL must use GREATEST/LEAST and the
  // overlap condition of Figure 5.
  auto scan = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  Schema agg_schema({{"", "POSID", DataType::kInt},
                     {"", "T1", DataType::kInt},
                     {"", "T2", DataType::kInt},
                     {"", "CNT", DataType::kInt}});
  auto tmp = algebra::Scan("TMP", agg_schema, "A").ValueOrDie();
  auto tjoin = algebra::TJoin(tmp, scan, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(Algorithm::kTJoinD, tjoin,
                                 {Node(Algorithm::kScanD, tmp, {}),
                                  Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  const std::string& sql = rendered.ValueOrDie().sql;
  EXPECT_NE(sql.find("GREATEST("), std::string::npos);
  EXPECT_NE(sql.find("LEAST("), std::string::npos);
  EXPECT_NE(sql.find("<"), std::string::npos);

  // Execute against the Figure 3 data: TMP = aggregation result, join back.
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                         "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO POSITION VALUES "
                         "(1, 'Tom', 2, 20), (1, 'Jane', 5, 25), "
                         "(2, 'Tom', 5, 10)")
                  .ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE TMP (PosID INT, T1 INT, T2 INT, CNT INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO TMP VALUES (1, 2, 5, 1), (1, 5, 20, 2), "
                         "(1, 20, 25, 1), (2, 5, 10, 1)")
                  .ok());
  auto r = db.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows.size(), 5u);  // Figure 3(b)
}

TEST(TranslatorTest, TAggrSqlReproducesFigure3c) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "CNT"}})
                 .ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kTAggrD, agg, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  auto rows = RunSql(rendered.ValueOrDie().sql + " ORDER BY POSID, T1");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1][1].AsInt(), 5);
  EXPECT_EQ(rows[1][2].AsInt(), 20);
  EXPECT_EQ(rows[1][3].AsInt(), 2);
}

TEST(TranslatorTest, TAggrWithoutGroupingRenders) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {}, {{AggFunc::kCount, "", "CNT"}})
                 .ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kTAggrD, agg, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  auto rows = RunSql(rendered.ValueOrDie().sql + " ORDER BY T1");
  // Instants 2,5,10,20,25 -> 4 non-empty constant periods.
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);   // T1
  EXPECT_EQ(rows[0][1].AsInt(), 5);   // T2
  EXPECT_EQ(rows[0][2].AsInt(), 1);   // one employee during [2,5)
  EXPECT_EQ(rows[1][2].AsInt(), 3);   // three during [5,10)
}

TEST(TranslatorTest, TransferDRendersTempTable) {
  Schema agg_schema({{"", "POSID", DataType::kInt},
                     {"", "CNT", DataType::kInt}});
  auto op = std::make_shared<algebra::Op>();
  op->kind = algebra::OpKind::kTransferD;
  op->schema = agg_schema;
  auto td = Node(Algorithm::kTransferD, op, {});
  Translator t({{td.get(), "TANGO_TMP_9"}});
  auto rendered = t.Render(*td);
  ASSERT_TRUE(rendered.ok());
  EXPECT_EQ(rendered.ValueOrDie().base_table, "TANGO_TMP_9");

  // A TRANSFER^D node the translator was not told about is an error.
  Translator t2({});
  EXPECT_FALSE(t2.Render(*td).ok());

  // The temporary table is created with ColumnAliases' names (the plan
  // compiler), and the SQL reading it must use exactly those: a repeated
  // name and a name led by a digit are renamed the same way on both sides.
  Schema odd({{"A", "POSID", DataType::kInt},
              {"B", "POSID", DataType::kInt},
              {"", "1CNT", DataType::kInt}});
  auto odd_op = std::make_shared<algebra::Op>();
  odd_op->kind = algebra::OpKind::kTransferD;
  odd_op->schema = odd;
  auto odd_td = Node(Algorithm::kTransferD, odd_op, {});
  const std::vector<std::string> columns = ColumnAliases(odd);
  EXPECT_EQ(columns,
            (std::vector<std::string>{"POSID", "POSID_2", "C_1CNT"}));
  Translator t3({{odd_td.get(), "TANGO_TMP_10"}});
  auto read = t3.Render(*odd_td);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().aliases, columns);
  EXPECT_EQ(read.ValueOrDie().sql,
            "SELECT POSID AS POSID, POSID_2 AS POSID_2, C_1CNT AS C_1CNT "
            "FROM TANGO_TMP_10");

  // The DBMS accepts a table of those columns and runs the reading SQL.
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE TANGO_TMP_10 (" + columns[0] +
                         " INT, " + columns[1] + " INT, " + columns[2] +
                         " INT)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO TANGO_TMP_10 VALUES (1, 2, 3)").ok());
  auto rows = db.Execute(read.ValueOrDie().sql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(rows.ValueOrDie().rows[0][2].AsInt(), 3);
}

TEST(TranslatorTest, DuplicateColumnNamesGetUniqueAliases) {
  // A self-join's concatenated schema carries POSID twice; the generated
  // select list must alias them apart.
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto join = algebra::Join(a, b, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(Algorithm::kJoinD, join,
                                 {Node(Algorithm::kScanD, a, {}),
                                  Node(Algorithm::kScanD, b, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  const auto& aliases = rendered.ValueOrDie().aliases;
  ASSERT_EQ(aliases.size(), 8u);
  std::set<std::string> unique(aliases.begin(), aliases.end());
  EXPECT_EQ(unique.size(), aliases.size());
  EXPECT_EQ(RunSql(rendered.ValueOrDie().sql).size(), 5u);  // 2x2 + 1
}

TEST(TranslatorTest, DistinctRendersSelectDistinct) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto dup = algebra::DupElim(scan).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kDistinctD, dup, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered.ValueOrDie().sql.find("SELECT DISTINCT"),
            std::string::npos);
  // Figure 3 data has no duplicate rows, so DISTINCT keeps all three.
  EXPECT_EQ(RunSql(rendered.ValueOrDie().sql).size(), 3u);
}

TEST(TranslatorTest, ProductRendersCrossJoin) {
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto product = algebra::Product(a, b).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(Algorithm::kProductD, product,
                                 {Node(Algorithm::kScanD, a, {}),
                                  Node(Algorithm::kScanD, b, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().sql.find("WHERE"), std::string::npos);
  EXPECT_EQ(RunSql(rendered.ValueOrDie().sql).size(), 9u);  // 3 x 3
}

/// π items passing `columns` of `input` through under their own names and
/// qualifiers, as the optimizer's narrowing projection writes them.
std::vector<algebra::ProjectItem> PassThrough(
    const algebra::OpPtr& input, const std::vector<std::string>& columns) {
  std::vector<algebra::ProjectItem> items;
  for (const std::string& c : columns) {
    const Column& col =
        input->schema.column(input->schema.IndexOf(c).ValueOrDie());
    items.push_back({Expr::Column(col.table, col.name), col.name, col.table});
  }
  return items;
}

TEST(TranslatorTest, ProjectionOfPlainColumnsStaysABareTable) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto proj =
      algebra::Project(scan, PassThrough(scan, {"POSID", "T1"})).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kProjectD, proj, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().sql,
            "SELECT POSID AS POSID, T1 AS T1 FROM POSITION");
  EXPECT_EQ(rendered.ValueOrDie().base_table, "POSITION");
  EXPECT_EQ(rendered.ValueOrDie().aliases,
            (std::vector<std::string>{"POSID", "T1"}));
  const auto rows = RunSql(rendered.ValueOrDie().sql);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].size(), 2u);
}

TEST(TranslatorTest, ProjectionOverSelectionIsOneBlock) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto pred = sql::Parser::ParseSelect("SELECT X FROM T WHERE PosID = 1")
                  .ValueOrDie()
                  ->where;
  auto sel = algebra::Select(scan, pred).ValueOrDie();
  auto proj =
      algebra::Project(sel, PassThrough(sel, {"POSID", "EMPNAME"})).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(
      Algorithm::kProjectD, proj,
      {Node(Algorithm::kSelectD, sel, {Node(Algorithm::kScanD, scan, {})})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().sql,
            "SELECT S1.POSID AS POSID, S1.EMPNAME AS EMPNAME FROM POSITION S1 "
            "WHERE (S1.POSID = 1)");
  EXPECT_TRUE(rendered.ValueOrDie().base_table.empty());
  EXPECT_EQ(RunSql(rendered.ValueOrDie().sql).size(), 2u);
}

TEST(TranslatorTest, ProjectedJoinInputsNameTheirTablesInFrom) {
  auto a = algebra::Scan("POSITION", PosSchema(), "A").ValueOrDie();
  auto b = algebra::Scan("POSITION", PosSchema(), "B").ValueOrDie();
  auto pa = algebra::Project(a, PassThrough(a, {"A.POSID", "A.EMPNAME"}))
                .ValueOrDie();
  auto pb =
      algebra::Project(b, PassThrough(b, {"B.POSID", "B.T1"})).ValueOrDie();
  auto join = algebra::Join(pa, pb, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(*Node(
      Algorithm::kJoinD, join,
      {Node(Algorithm::kProjectD, pa, {Node(Algorithm::kScanD, a, {})}),
       Node(Algorithm::kProjectD, pb, {Node(Algorithm::kScanD, b, {})})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().sql,
            "SELECT S1.POSID AS POSID, S1.EMPNAME AS EMPNAME, S2.POSID AS "
            "POSID_2, S2.T1 AS T1 FROM POSITION S1, POSITION S2 WHERE "
            "S1.POSID = S2.POSID");
  EXPECT_EQ(RunSql(rendered.ValueOrDie().sql).size(), 5u);  // 2x2 + 1
}

TEST(TranslatorTest, ComputedProjectionItemRendersItsExpression) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto proj =
      algebra::Project(
          scan, {{Expr::Binary(BinaryOp::kAdd, Expr::Column("", "POSID"),
                               Expr::Int(1)),
                  "X"}})
          .ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kProjectD, proj, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().sql,
            "SELECT (S1.POSID + 1) AS X FROM POSITION S1");
  EXPECT_TRUE(rendered.ValueOrDie().base_table.empty());
  const auto rows = RunSql(rendered.ValueOrDie().sql + " ORDER BY X");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2][0].AsInt(), 3);
}

TEST(TranslatorTest, RepeatedProjectionColumnGetsItsOwnAlias) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  auto proj =
      algebra::Project(scan, PassThrough(scan, {"POSID", "POSID"})).ValueOrDie();
  Translator t({});
  auto rendered = t.Render(
      *Node(Algorithm::kProjectD, proj, {Node(Algorithm::kScanD, scan, {})}));
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(rendered.ValueOrDie().sql,
            "SELECT S1.POSID AS POSID, S1.POSID AS POSID_2 FROM POSITION S1");
  EXPECT_TRUE(rendered.ValueOrDie().base_table.empty());
  const auto rows = RunSql(rendered.ValueOrDie().sql);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), rows[0][1].AsInt());
}

TEST(TranslatorTest, MiddlewareAlgorithmsAreNotRenderable) {
  auto scan = algebra::Scan("POSITION", PosSchema()).ValueOrDie();
  Translator t({});
  EXPECT_FALSE(t.Render(*Node(Algorithm::kSortM,
                              SortOpOf(scan->schema, {{"T1", true}}),
                              {Node(Algorithm::kScanD, scan, {})}))
                   .ok());
}

}  // namespace
}  // namespace sqlgen
}  // namespace tango
