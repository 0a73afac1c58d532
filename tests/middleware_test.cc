#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tango/middleware.h"
#include "tsql/tsql.h"
#include "workload/uis.h"

namespace tango {
namespace {

// The running example: POSITION of Figure 3(a).
void LoadFigure3(dbms::Engine* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                          "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  ASSERT_TRUE(db->Execute("INSERT INTO POSITION VALUES "
                          "(1, 'Tom', 2, 20), (1, 'Jane', 5, 25), "
                          "(2, 'Tom', 5, 10)")
                  .ok());
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
}

Middleware::Config TestConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  return config;
}

TEST(MiddlewareTest, Query1AggregationMatchesFigure3c) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& rows = result.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 4u);
  const int64_t expected[4][4] = {
      {1, 2, 5, 1}, {1, 5, 20, 2}, {1, 20, 25, 1}, {2, 5, 10, 1}};
  for (size_t i = 0; i < 4; ++i) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(rows[i][c].AsInt(), expected[i][c]) << i << "," << c;
    }
  }
}

TEST(MiddlewareTest, RunningExampleMatchesFigure3b) {
  // Section 2.2: temporal aggregation joined back to POSITION, sorted by
  // position — the result of Figure 3(b).
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CountOfPosID "
      "FROM (TEMPORAL SELECT PosID, COUNT(PosID) AS CountOfPosID "
      "      FROM POSITION GROUP BY PosID OVER TIME) C, POSITION P "
      "WHERE C.PosID = P.PosID "
      "ORDER BY PosID, T1, EmpName DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& rows = result.ValueOrDie().rows;
  // Figure 3(b): 5 rows.
  ASSERT_EQ(rows.size(), 5u);
  // (1, Tom, 2, 5, 1), (1, Tom, 5, 20, 2), (1, Jane, 5, 20, 2),
  // (1, Jane, 20, 25, 1), (2, Tom, 5, 10, 1).
  struct Row {
    int64_t pos;
    const char* name;
    int64_t t1, t2, cnt;
  };
  const Row expected[5] = {{1, "Tom", 2, 5, 1},
                           {1, "Tom", 5, 20, 2},
                           {1, "Jane", 5, 20, 2},
                           {1, "Jane", 20, 25, 1},
                           {2, "Tom", 5, 10, 1}};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), expected[i].pos) << i;
    EXPECT_EQ(rows[i][1].AsString(), expected[i].name) << i;
    EXPECT_EQ(rows[i][2].AsInt(), expected[i].t1) << i;
    EXPECT_EQ(rows[i][3].AsInt(), expected[i].t2) << i;
    EXPECT_EQ(rows[i][4].AsInt(), expected[i].cnt) << i;
  }
}

TEST(MiddlewareTest, TemporaryTablesAreDropped) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT "
      "FROM (TEMPORAL SELECT PosID, COUNT(PosID) AS CNT "
      "      FROM POSITION GROUP BY PosID OVER TIME) C, POSITION P "
      "WHERE C.PosID = P.PosID ORDER BY PosID");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const std::string& t : db.catalog().TableNames()) {
    EXPECT_EQ(t.find("TANGO_TMP"), std::string::npos) << t;
  }
}

TEST(MiddlewareTest, PlanAgreementAcrossForcedShapes) {
  // All-DBMS (exploration off still yields a correct plan) vs optimized:
  // identical results.
  dbms::Engine db;
  LoadFigure3(&db);
  const char* q =
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1";

  Middleware optimized(&db, TestConfig());
  auto a = optimized.Query(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  // Force the all-DBMS shape by making middleware algorithms prohibitive.
  Middleware dbms_only(&db, TestConfig());
  dbms_only.cost_model().factors().taggm1 = 1e9;
  dbms_only.cost_model().factors().taggm2 = 1e9;
  dbms_only.cost_model().factors().sortm = 1e9;
  auto prepared = dbms_only.Prepare(q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // The chosen plan must now use TAGGR^D (everything in the DBMS).
  std::function<bool(const optimizer::PhysPlanPtr&)> has_taggrd =
      [&](const optimizer::PhysPlanPtr& p) {
        if (p->algorithm == optimizer::Algorithm::kTAggrD) return true;
        for (const auto& c : p->children) {
          if (has_taggrd(c)) return true;
        }
        return false;
      };
  ASSERT_TRUE(has_taggrd(prepared.ValueOrDie().plan))
      << prepared.ValueOrDie().plan->ToString();
  auto b = dbms_only.Execute(prepared.ValueOrDie().plan);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a.ValueOrDie().rows.size(), b.ValueOrDie().rows.size());
  for (size_t i = 0; i < a.ValueOrDie().rows.size(); ++i) {
    for (size_t c = 0; c < a.ValueOrDie().rows[i].size(); ++c) {
      EXPECT_EQ(a.ValueOrDie().rows[i][c].Compare(b.ValueOrDie().rows[i][c]),
                0)
          << i << "," << c;
    }
  }
}

TEST(MiddlewareTest, RegularJoinQuery) {
  // Query 4 shape: a regular join, no temporal semantics.
  dbms::Engine db;
  LoadFigure3(&db);
  ASSERT_TRUE(db.Execute("CREATE TABLE EMPLOYEE (EmpName VARCHAR(20), "
                         "Addr VARCHAR(30))")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO EMPLOYEE VALUES "
                         "('Tom', '12 Elm St'), ('Jane', '9 Oak Ave')")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "SELECT PosID, P.EmpName, Addr FROM POSITION P, EMPLOYEE E "
      "WHERE P.EmpName = E.EmpName ORDER BY PosID, Addr");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().rows.size(), 3u);
  EXPECT_EQ(result.ValueOrDie().rows[0][2].AsString(), "12 Elm St");
}

TEST(MiddlewareTest, TimeWindowQueryPushesSelection) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "WHERE OVERLAPS PERIOD (4, 6) "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Tuples overlapping [4,6): all three. Constant periods as in Fig 3(c).
  // The WHERE applies *before* aggregation (SQL semantics), so the result
  // equals Figure 3(c) computed over all three tuples.
  ASSERT_EQ(result.ValueOrDie().rows.size(), 4u);
}

TEST(MiddlewareTest, StatisticsCollectorFetchesOverWire) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  ASSERT_TRUE(mw.CollectStatistics({"POSITION"}).ok());
  auto stats = mw.TableStatistics("POSITION");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().cardinality, 3);
  EXPECT_FALSE(mw.TableStatistics("MISSING").ok());
}

TEST(MiddlewareTest, HistogramStrippingConfig) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware::Config config = TestConfig();
  config.use_histograms = false;
  Middleware mw(&db, config);
  ASSERT_TRUE(mw.CollectStatistics({"POSITION"}).ok());
  auto stats = mw.TableStatistics("POSITION");
  ASSERT_TRUE(stats.ok());
  for (const auto& c : stats.ValueOrDie().columns) {
    EXPECT_TRUE(c.histogram.empty());
  }
}

TEST(MiddlewareTest, FeedbackAdjustsCostFactors) {
  dbms::Engine db;
  // Enough data for measurable per-algorithm times.
  ASSERT_TRUE(db.Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                         "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  std::string values;
  for (int i = 0; i < 3000; ++i) {
    if (i > 0) values += ", ";
    values.append("(")
        .append(std::to_string(i % 300))
        .append(", 'emp")
        .append(std::to_string(i))
        .append("', ")
        .append(std::to_string(i % 97))
        .append(", ")
        .append(std::to_string(i % 97 + 10))
        .append(")");
  }
  ASSERT_TRUE(db.Execute("INSERT INTO POSITION VALUES " + values).ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  Middleware::Config config = TestConfig();
  config.adapt = true;
  config.feedback_alpha = 0.5;
  Middleware mw(&db, config);
  const cost::CostFactors before = mw.cost_model().factors();
  auto result = mw.Query(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With the wire simulation off, observed times diverge from the default
  // factors' predictions: adaptation must move the factors of algorithms
  // that ran (TAGGR^M and the SORT^D inside the transferred fragment).
  const cost::CostFactors& after = mw.cost_model().factors();
  EXPECT_TRUE(after.taggm1 != before.taggm1 || after.taggm2 != before.taggm2 ||
              after.sortd != before.sortd || after.tm != before.tm);

  // And with adaptation disabled the factors stay put.
  Middleware::Config frozen = TestConfig();
  frozen.adapt = false;
  Middleware mw2(&db, frozen);
  const cost::CostFactors before2 = mw2.cost_model().factors();
  ASSERT_TRUE(mw2.Query("TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT "
                        "FROM POSITION GROUP BY PosID OVER TIME "
                        "ORDER BY PosID, T1")
                  .ok());
  EXPECT_EQ(mw2.cost_model().factors().tm, before2.tm);
  EXPECT_EQ(mw2.cost_model().factors().sortd, before2.sortd);
  EXPECT_EQ(mw2.cost_model().factors().taggm1, before2.taggm1);
}

TEST(MiddlewareTest, ExecutionReportsTimingsAndSql) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.ValueOrDie().timings.empty());
  EXPECT_FALSE(result.ValueOrDie().sql_statements.empty());
  EXPECT_GT(result.ValueOrDie().elapsed_seconds, 0);
}

TEST(MiddlewareTest, ParseErrorsSurface) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  EXPECT_FALSE(mw.Query("TEMPORAL SELECT FROM").ok());
  EXPECT_FALSE(mw.Query("TEMPORAL SELECT X FROM NO_SUCH_TABLE").ok());
  EXPECT_FALSE(
      mw.Query("TEMPORAL SELECT PosID FROM POSITION GROUP BY PosID").ok());
}

TEST(MiddlewareTest, CoalesceMergesValueEquivalentPeriods) {
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                         "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  // Tom holds position 1 in two adjacent stints and one overlapping one;
  // coalesced, they form a single period [2, 30).
  ASSERT_TRUE(db.Execute("INSERT INTO POSITION VALUES "
                         "(1, 'Tom', 2, 10), (1, 'Tom', 10, 20), "
                         "(1, 'Tom', 15, 30), (1, 'Jane', 40, 50), "
                         "(2, 'Tom', 5, 10)")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT COALESCE PosID, EmpName FROM POSITION "
      "ORDER BY PosID, EmpName");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& rows = result.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 3u);
  // (1, Jane, 40, 50), (1, Tom, 2, 30), (2, Tom, 5, 10).
  EXPECT_EQ(rows[0][1].AsString(), "Jane");
  EXPECT_EQ(rows[1][2].AsInt(), 2);
  EXPECT_EQ(rows[1][3].AsInt(), 30);
  EXPECT_EQ(rows[2][0].AsInt(), 2);
}

TEST(MiddlewareTest, DistinctRemovesDuplicates) {
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                         "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO POSITION VALUES "
                         "(1, 'Tom', 2, 10), (1, 'Tom', 2, 10), "
                         "(2, 'Tom', 2, 10)")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT DISTINCT PosID, EmpName FROM POSITION ORDER BY PosID");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().rows.size(), 2u);
}

TEST(MiddlewareTest, SharedTransfersIssueOneStatement) {
  // §7 refinement: a temporal self-join whose two arguments are the same
  // DBMS fragment must transfer it once (and still be correct).
  dbms::Engine db;
  LoadFigure3(&db);
  const char* q =
      "TEMPORAL SELECT A.PosID, A.EmpName, B.EmpName "
      "FROM POSITION A, POSITION B "
      "WHERE A.PosID = B.PosID AND A.EmpName < B.EmpName ORDER BY PosID";

  // Force the temporal join into the middleware so both arguments are
  // TRANSFER^M fragments.
  Middleware mw(&db, TestConfig());
  mw.cost_model().factors().joind = 1e9;
  mw.cost_model().factors().joindout = 1e9;
  mw.connection().ResetCounters();
  auto r = mw.Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows.size(), 1u);  // only Jane+Tom share 1
  const uint64_t bytes = mw.connection().counters().bytes_to_client;

  // Both arguments render to the same SQL; it crossed the wire once and
  // served the second argument from the shared store.
  const std::vector<std::string>& sql = r.ValueOrDie().sql_statements;
  ASSERT_EQ(sql.size(), 2u);
  EXPECT_EQ(sql[0], sql[1]);
  EXPECT_EQ(mw.metrics().counter("transfer_cache.misses").load(), 1u);
  EXPECT_EQ(mw.metrics().counter("transfer_cache.hits").load(), 1u);

  // So the middleware received about one drain of that SQL.
  dbms::Connection plain(&db, TestConfig().wire);
  auto cursor = plain.ExecuteQuery(sql[0]);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_TRUE(MaterializeAll(cursor.ValueOrDie().get()).ok());
  const double one_drain =
      static_cast<double>(plain.counters().bytes_to_client);
  EXPECT_NEAR(static_cast<double>(bytes), one_drain, one_drain * 0.2);
}

TEST(MiddlewareTest, ExceptComputesMultisetDifference) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  // Everyone's assignments, minus Tom's: leaves Jane's single tuple.
  auto result = mw.Query(
      "TEMPORAL SELECT PosID, EmpName FROM POSITION "
      "EXCEPT TEMPORAL SELECT PosID, EmpName FROM POSITION "
      "WHERE EmpName = 'Tom'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().rows[0][1].AsString(), "Jane");

  // Multiset semantics: subtracting one copy keeps the other.
  ASSERT_TRUE(db.Execute("CREATE TABLE D (X INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO D VALUES (1), (1), (2)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE D").ok());
  auto ms = mw.Query("SELECT X FROM D EXCEPT SELECT X FROM D WHERE X = 2");
  ASSERT_TRUE(ms.ok()) << ms.status().ToString();
  EXPECT_EQ(ms.ValueOrDie().rows.size(), 2u);  // both 1s survive

  // Incompatible arms are rejected.
  EXPECT_FALSE(mw.Query("TEMPORAL SELECT PosID, EmpName FROM POSITION "
                        "EXCEPT SELECT X FROM D")
                   .ok());
}

/// P(PosID, Rate, T1, T2): PosIDs 1, 2, ... in `rates` order, each valid
/// over [1, 10).
void LoadRates(dbms::Engine* db, const std::vector<std::string>& rates) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE P (PosID INT, Rate DOUBLE, T1 INT, T2 INT)")
          .ok());
  for (size_t i = 0; i < rates.size(); ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO P VALUES (" + std::to_string(i + 1) +
                            ", " + rates[i] + ", 1, 10)")
                    .ok());
  }
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
}

std::vector<int64_t> PosIds(const Middleware::Execution& execution) {
  std::vector<int64_t> out;
  for (const Tuple& row : execution.rows) out.push_back(row[0].AsInt());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MiddlewareTest, ExceptArmsThatDifferInGroupingStayApart) {
  // The two selections differ only in where the parentheses go. Were they
  // filed as one memo expression, both arms would send one arm's SQL and
  // the difference would be empty.
  dbms::Engine db;
  LoadRates(&db, {"14.0", "20.5", "0.5"});
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT PosID FROM P WHERE (Rate + 1) * 2 > 30 "
      "EXCEPT TEMPORAL SELECT PosID FROM P WHERE Rate + 1 * 2 > 30");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(PosIds(result.ValueOrDie()), std::vector<int64_t>{2});
}

TEST(MiddlewareTest, ExceptArmsThatDifferInADoublesLastDigitsStayApart) {
  dbms::Engine db;
  LoadRates(&db, {"12.345605"});
  Middleware mw(&db, TestConfig());
  auto result = mw.Query(
      "TEMPORAL SELECT PosID FROM P WHERE Rate > 12.3456 "
      "EXCEPT TEMPORAL SELECT PosID FROM P WHERE Rate > 12.34561");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(PosIds(result.ValueOrDie()), std::vector<int64_t>{1});
  auto alone = mw.Query("TEMPORAL SELECT PosID FROM P WHERE Rate > 12.34561");
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  EXPECT_TRUE(alone.ValueOrDie().rows.empty());
}

TEST(MiddlewareTest, DbmsSelectionsCarryDoubleLiteralsExactly) {
  // A six-digit rendering would send 1.23457e+06 and 1e-05, which the SQL
  // lexer cannot read, and 1234567.5 would lose its last digit.
  dbms::Engine db;
  LoadRates(&db, {"0.000005", "0.00001", "0.00002", "1234567.25", "1234567.5",
                  "1234567.75"});
  Middleware mw(&db, TestConfig());
  const struct {
    const char* literal;
    std::vector<int64_t> expected;
  } kCases[] = {{"1234567.5", {6}}, {"0.00001", {3, 4, 5, 6}}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.literal);
    auto prepared = mw.Prepare(
        std::string("TEMPORAL SELECT PosID FROM P WHERE Rate > ") + c.literal);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_NE(prepared.ValueOrDie().plan->ToString().find("SELECT^D"),
              std::string::npos)
        << prepared.ValueOrDie().plan->ToString();
    auto result = mw.Execute(prepared.ValueOrDie());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(PosIds(result.ValueOrDie()), c.expected);
    const std::vector<std::string>& sql = result.ValueOrDie().sql_statements;
    ASSERT_EQ(sql.size(), 1u);
    EXPECT_NE(sql[0].find(std::string("> ") + c.literal + ")"),
              std::string::npos)
        << sql[0];
  }
}

TEST(MiddlewareTest, ExplainShowsPlanAndSqlWithoutExecuting) {
  dbms::Engine db;
  LoadFigure3(&db);
  Middleware mw(&db, TestConfig());
  auto prepared = mw.Prepare(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const uint64_t before = db.statements_executed();
  auto explanation = mw.Explain(prepared.ValueOrDie());
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_NE(explanation.ValueOrDie().find("chosen physical plan"),
            std::string::npos);
  EXPECT_NE(explanation.ValueOrDie().find("SELECT"), std::string::npos);
  // Explaining runs nothing against the DBMS.
  EXPECT_EQ(db.statements_executed(), before);
}

TEST(MiddlewareTest, SpillingSortProducesCorrectResults) {
  // A tiny middleware sort budget forces SORT^M to spill runs; the query
  // result must match the in-memory configuration exactly.
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE R (G INT, V INT, T1 INT, T2 INT)")
                  .ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i % 37)),
                    Value(static_cast<int64_t>((i * 7919) % 1000)),
                    Value(static_cast<int64_t>(i % 97)),
                    Value(static_cast<int64_t>(i % 97 + 5))});
  }
  ASSERT_TRUE(db.BulkLoad("R", rows).ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());

  const char* q =
      "TEMPORAL SELECT G, T1, T2, COUNT(G) AS C FROM R "
      "GROUP BY G OVER TIME ORDER BY G, T1";
  auto run = [&](size_t budget) {
    Middleware::Config config = TestConfig();
    config.sort_memory_budget_bytes = budget;
    // Force the sort into the middleware so the budget matters.
    Middleware mw(&db, config);
    mw.cost_model().factors().sortd = 1e9;
    mw.cost_model().factors().taggd1 = 1e9;
    auto r = mw.Query(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ValueOrDie().rows;
  };
  const auto spilled = run(/*budget=*/8 * 1024);
  const auto in_memory = run(/*budget=*/64 << 20);
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    for (size_t c = 0; c < spilled[i].size(); ++c) {
      EXPECT_EQ(spilled[i][c].Compare(in_memory[i][c]), 0) << i << "," << c;
    }
  }
}

/// The chosen plan's algorithms, e.g. "TRANSFER^M(PROJECT^D(SCAN^D))".
std::string Signature(const optimizer::PhysPlan& plan) {
  std::string out = optimizer::AlgorithmName(plan.algorithm);
  if (plan.children.empty()) return out;
  out += "(";
  for (size_t i = 0; i < plan.children.size(); ++i) {
    if (i > 0) out += ",";
    out += Signature(*plan.children[i]);
  }
  return out + ")";
}

std::string RenderSchema(const Schema& schema) {
  std::string out;
  for (const Column& c : schema.columns()) {
    if (!out.empty()) out += ", ";
    out += c.QualifiedName();
  }
  return out;
}

TEST(MiddlewareTest, QualifiedReferenceSurvivesCommutedJoin) {
  // Rule E2 commutes a join and restores the column order with a
  // projection. That projection, and the narrowing projections below the
  // join, must keep the P./E. qualifiers: a parent reference to E.Addr used
  // to fail with "no such column: E.ADDR". The two join orders cost the
  // same; on UIS seed 42 at scale 0.05, with the cost factors fixed, the
  // commuted join wins for FROM EMPLOYEE E, POSITION P.
  dbms::Engine db;
  workload::UisOptions opts;
  opts.seed = 42;
  opts.employee_rows = 2498;
  opts.position_rows = 4192;
  ASSERT_TRUE(workload::LoadUis(&db, opts).ok());
  Middleware::Config config = TestConfig();
  config.adapt = false;
  Middleware mw(&db, config);

  std::vector<std::string> plans;
  const auto run = [&mw, &plans](const std::string& text) {
    auto prepared = mw.Prepare(text);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) return std::vector<Tuple>{};
    plans.push_back(Signature(*prepared.ValueOrDie().plan));
    auto explained = mw.Explain(prepared.ValueOrDie());
    EXPECT_TRUE(explained.ok()) << explained.status().ToString();
    auto executed = mw.Execute(prepared.ValueOrDie());
    EXPECT_TRUE(executed.ok()) << executed.status().ToString();
    if (!executed.ok()) return std::vector<Tuple>{};
    EXPECT_EQ(RenderSchema(executed.ValueOrDie().schema),
              "POSID, ADDR, T1, T2");
    std::vector<Tuple> rows = executed.ValueOrDie().rows;
    std::vector<SortKey> keys;
    for (size_t c = 0; c < executed.ValueOrDie().schema.num_columns(); ++c) {
      keys.push_back({c, true});
    }
    std::sort(rows.begin(), rows.end(), TupleComparator(keys));
    return rows;
  };
  const std::vector<Tuple> unqualified = run(
      "TEMPORAL SELECT PosID, Addr FROM POSITION P, EMPLOYEE E "
      "WHERE P.EmpName = E.EmpName");
  ASSERT_FALSE(unqualified.empty());
  for (const char* text :
       {"TEMPORAL SELECT PosID, E.Addr FROM POSITION P, EMPLOYEE E "
        "WHERE P.EmpName = E.EmpName",
        "TEMPORAL SELECT PosID, Addr FROM EMPLOYEE E, POSITION P "
        "WHERE P.EmpName = E.EmpName",
        "TEMPORAL SELECT PosID, E.Addr FROM EMPLOYEE E, POSITION P "
        "WHERE P.EmpName = E.EmpName"}) {
    const std::vector<Tuple> rows = run(text);
    ASSERT_EQ(rows.size(), unqualified.size()) << text;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].size(), unqualified[i].size());
      for (size_t c = 0; c < rows[i].size(); ++c) {
        EXPECT_EQ(rows[i][c].Compare(unqualified[i][c]), 0) << i << "," << c;
      }
    }
  }
  // The restoring projection sits between the query's projection and the
  // commuted join; the narrowing projections sit below the join.
  const std::string commuted =
      "TRANSFER^M(PROJECT^D(PROJECT^D(JOIN^D(PROJECT^D(SCAN^D),"
      "PROJECT^D(SCAN^D)))))";
  std::string chosen;
  for (const std::string& plan : plans) chosen += " " + plan;
  EXPECT_NE(std::find(plans.begin(), plans.end(), commuted), plans.end())
      << "no plan ran the commuted join:" << chosen;
}

// Queries 1-4 and the service's timeslice lookup (perfbench) over UIS seed 42
// at scale 0.1.
class NarrowedTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::UisOptions opts;
    opts.seed = 42;
    opts.employee_rows = 4997;
    opts.position_rows = 8385;
    ASSERT_TRUE(workload::LoadUis(&db_, opts).ok());
  }

  static Middleware::Config Config() {
    Middleware::Config config = TestConfig();
    config.adapt = false;
    return config;
  }

  /// Prepares `text` for `restriction` and executes it.
  Result<Middleware::Execution> Run(
      Middleware* mw, const std::string& text,
      optimizer::SiteRestriction restriction =
          optimizer::SiteRestriction::kNone) {
    tsql::Parser::SchemaProvider provider =
        [mw](const std::string& table) -> Result<Schema> {
      return mw->connection().GetTableSchema(table);
    };
    TANGO_ASSIGN_OR_RETURN(algebra::OpPtr initial,
                           tsql::Parser::Parse(text, provider));
    TANGO_ASSIGN_OR_RETURN(Middleware::Prepared prepared,
                           mw->PrepareLogical(initial, restriction));
    return mw->Execute(prepared.plan);
  }

  static constexpr const char* kQuery1 =
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID";
  static constexpr const char* kLookup =
      "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE PosID = 17 "
      "AND T1 <= 9131 AND T2 > 9131";

  dbms::Engine db_;
};

TEST_F(NarrowedTransferTest, ResultSchemasAreThoseOfTheQueries) {
  // The narrowing projections and T9's relabel leave every result schema
  // as the query states it, whichever site runs the plan.
  const std::vector<std::pair<std::string, std::string>> queries = {
      {kQuery1, "POSID, T1, T2, CNT"},
      {"TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT FROM (TEMPORAL SELECT "
       "PosID, COUNT(PosID) AS CNT FROM POSITION WHERE T2 > 4748 AND T1 < "
       "9862 GROUP BY PosID OVER TIME) C, POSITION P WHERE C.PosID = P.PosID "
       "AND PayRate > 10 ORDER BY PosID",
       "POSID, EMPNAME, T1, T2, CNT"},
      {"TEMPORAL SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, "
       "POSITION B WHERE A.PosID = B.PosID AND A.T1 < 9496 AND B.T1 < 9496",
       "POSID, EMPNAME, EMPNAME, T1, T2"},
      {"TEMPORAL SELECT PosID, Addr FROM POSITION P, EMPLOYEE E "
       "WHERE P.EmpName = E.EmpName",
       "POSID, ADDR, T1, T2"},
      {kLookup, "POSID, EMPNAME, T1, T2"},
  };
  Middleware mw(&db_, Config());
  for (const auto& [text, schema] : queries) {
    for (const auto restriction : {optimizer::SiteRestriction::kNone,
                                   optimizer::SiteRestriction::kDbmsOnly}) {
      auto executed = Run(&mw, text, restriction);
      ASSERT_TRUE(executed.ok()) << executed.status().ToString();
      EXPECT_EQ(RenderSchema(executed.ValueOrDie().schema), schema) << text;
    }
  }
}

TEST_F(NarrowedTransferTest, Query1ShipsOnlyTheColumnsItsAggregationReads) {
  Middleware mw(&db_, Config());
  const dbms::WireCounters& wire = mw.connection().counters();
  const uint64_t before = wire.bytes_to_client;
  auto executed = Run(&mw, kQuery1);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  const uint64_t narrowed = wire.bytes_to_client - before;
  EXPECT_EQ(executed.ValueOrDie().sql_statements,
            (std::vector<std::string>{"SELECT POSID AS POSID, T1 AS T1, T2 AS "
                                      "T2 FROM POSITION ORDER BY POSID, T1"}));

  // The same table drained at full width, in the same order.
  const uint64_t full_before = wire.bytes_to_client;
  auto cursor =
      mw.connection().ExecuteQuery("SELECT * FROM POSITION ORDER BY POSID, T1");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto rows = MaterializeAll(cursor.ValueOrDie().get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const uint64_t full = wire.bytes_to_client - full_before;
  EXPECT_EQ(rows.ValueOrDie().size(), 8385u);
  EXPECT_GT(narrowed, 0u);
  EXPECT_LE(static_cast<double>(narrowed), 0.4 * static_cast<double>(full))
      << narrowed << " of " << full << " bytes";
}

TEST_F(NarrowedTransferTest, LookupSqlIsOneBlock) {
  Middleware mw(&db_, Config());
  auto executed = Run(&mw, kLookup);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  ASSERT_EQ(executed.ValueOrDie().sql_statements.size(), 1u);
  EXPECT_EQ(executed.ValueOrDie().sql_statements[0],
            "SELECT S1.POSID AS POSID, S1.EMPNAME AS EMPNAME, S1.T1 AS T1, "
            "S1.T2 AS T2 FROM POSITION S1 WHERE (((S1.POSID = 17) AND "
            "(S1.T1 <= 9131)) AND (S1.T2 > 9131))");
}

TEST(MiddlewareTest, ProductKeepsTheRowsOfAnUnreadSide) {
  // Nothing above the product reads R, but its rows still multiply L's:
  // R's narrowing projection keeps its narrowest column, V.
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE L (K INT, NAME VARCHAR(10))").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO L VALUES (1, 'a'), (2, 'b'), (3, 'c')").ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE R (NAME VARCHAR(10), V INT, W DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO R VALUES ('x', 1, 0.5), ('y', 2, 1.5), "
                         "('z', 3, 2.5), ('w', 4, 3.5)")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  Middleware mw(&db, TestConfig());
  auto result = mw.Query("SELECT L.K FROM L, R");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().rows.size(), 12u);
  ASSERT_EQ(result.ValueOrDie().sql_statements.size(), 1u);
  const std::string& sql = result.ValueOrDie().sql_statements[0];
  EXPECT_NE(sql.find("S2.V AS V"), std::string::npos) << sql;
  EXPECT_EQ(sql.find("NAME"), std::string::npos) << sql;
  EXPECT_EQ(sql.find("W"), std::string::npos) << sql;
}

/// A result as the sorted text of its rows: the multiset a query returns,
/// whatever order its plan leaves ties in.
std::vector<std::string> RowStrings(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& row : rows) {
    std::string text;
    for (const Value& v : row) text += v.ToString() + "|";
    out.push_back(std::move(text));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MiddlewareTest, ConcurrentCallersShareOneMiddleware) {
  // One middleware called from four threads at once, as the network
  // server's workers call it: each thread prepares and executes Figure 3's
  // queries and timeslice lookups for many rounds while thread 0 also
  // re-collects the statistics and renders Explain and ExplainAnalyze.
  // Cost feedback on moves the shared factors (and the cost model's
  // version) under the other threads; factors forcing the join into the
  // DBMS over the middleware's aggregation put TRANSFER^D temp tables in
  // every round. Every result must equal a serial run's.
  dbms::Engine db;
  LoadFigure3(&db);
  const std::string aggregation =
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID, T1";
  const std::string running_example =
      "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT "
      "FROM (TEMPORAL SELECT PosID, COUNT(PosID) AS CNT "
      "      FROM POSITION GROUP BY PosID OVER TIME) C, POSITION P "
      "WHERE C.PosID = P.PosID ORDER BY PosID, T1, EmpName DESC";
  std::vector<std::string> queries = {aggregation, running_example};
  for (const int pos : {1, 2}) {
    for (const int day : {3, 6, 21}) {
      std::string lookup =
          "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE PosID = ";
      lookup += std::to_string(pos) + " AND T1 <= " + std::to_string(day) +
                " AND T2 > " + std::to_string(day);
      queries.push_back(std::move(lookup));
    }
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;

  for (const bool adapt : {false, true}) {
    for (const bool transfer_d : {false, true}) {
      const std::string label = std::string("adapt=") + (adapt ? "1" : "0") +
                                " transfer_d=" + (transfer_d ? "1" : "0");
      Middleware::Config config = TestConfig();
      config.adapt = adapt;
      const auto set_up = [transfer_d](Middleware* mw) {
        if (!transfer_d) return;
        cost::CostFactors& f = mw->cost_model().factors();
        f.tjm = f.mjm = 1e9;
        f.taggd1 = f.taggd2 = 1e9;
      };

      std::vector<std::vector<std::string>> expected;
      {
        Middleware serial(&db, config);
        set_up(&serial);
        for (const std::string& q : queries) {
          auto r = serial.Query(q);
          ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
          expected.push_back(RowStrings(r.ValueOrDie().rows));
          if (transfer_d && q == running_example) {
            const std::vector<std::string>& sql =
                r.ValueOrDie().sql_statements;
            EXPECT_TRUE(std::any_of(sql.begin(), sql.end(),
                                    [](const std::string& statement) {
                                      return statement.find("TANGO_TMP_") !=
                                             std::string::npos;
                                    }))
                << label;
          }
        }
      }

      Middleware shared(&db, config);
      set_up(&shared);
      std::atomic<int> failures{0};
      std::atomic<int> mismatches{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int round = 0; round < kRounds; ++round) {
            for (size_t i = 0; i < queries.size(); ++i) {
              const size_t q = (i + static_cast<size_t>(t)) % queries.size();
              auto prepared = shared.Prepare(queries[q]);
              if (!prepared.ok()) {
                ++failures;
                continue;
              }
              if (t == 0) {
                // A statistics refresh, as a write-churn check would run
                // one, under the other threads' optimizations.
                if (!shared.CollectStatistics({"POSITION"}).ok()) ++failures;
                std::string head = "EXPLAIN ANALYZE rows=";
                head += std::to_string(expected[q].size()) + " ";
                auto explained = shared.Explain(prepared.ValueOrDie());
                auto analyzed = shared.ExplainAnalyze(prepared.ValueOrDie());
                if (!explained.ok() || !analyzed.ok() ||
                    analyzed.ValueOrDie().rfind(head, 0) != 0) {
                  ++failures;
                }
              }
              auto executed = shared.Execute(prepared.ValueOrDie());
              if (!executed.ok()) {
                ++failures;
              } else if (RowStrings(executed.ValueOrDie().rows) !=
                         expected[q]) {
                ++mismatches;
              }
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      EXPECT_EQ(failures.load(), 0) << label;
      EXPECT_EQ(mismatches.load(), 0) << label;
      EXPECT_EQ(shared.metrics().gauge("query.active").load(), 0) << label;
      for (const std::string& t : db.catalog().TableNames()) {
        EXPECT_EQ(t.find("TANGO_TMP"), std::string::npos) << label << t;
      }
    }
  }
}

}  // namespace
}  // namespace tango
