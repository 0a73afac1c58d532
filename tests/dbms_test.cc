#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/rng.h"
#include "dbms/connection.h"
#include "dbms/engine.h"

namespace tango {
namespace dbms {
namespace {

// The POSITION relation of Figure 3(a).
void LoadFigure3(Engine* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                          "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  ASSERT_TRUE(db->Execute("INSERT INTO POSITION VALUES "
                          "(1, 'Tom', 2, 20), (1, 'Jane', 5, 25), "
                          "(2, 'Tom', 5, 10)")
                  .ok());
}

TEST(EngineTest, CreateInsertSelect) {
  Engine db;
  LoadFigure3(&db);
  auto r = db.Execute("SELECT PosID, EmpName FROM POSITION WHERE T1 >= 5 "
                      "ORDER BY PosID DESC, EmpName");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);
  EXPECT_EQ(rows[0][1].AsString(), "Tom");
  EXPECT_EQ(rows[1][1].AsString(), "Jane");
}

TEST(EngineTest, ProjectionExpressionsAndAliases) {
  Engine db;
  LoadFigure3(&db);
  auto r = db.Execute(
      "SELECT PosID * 10 AS P10, T2 - T1 AS DUR, GREATEST(T1, 4) AS G "
      "FROM POSITION ORDER BY P10, DUR");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& res = r.ValueOrDie();
  EXPECT_EQ(res.schema.column(0).name, "P10");
  EXPECT_EQ(res.schema.column(1).name, "DUR");
  ASSERT_EQ(res.rows.size(), 3u);
  EXPECT_EQ(res.rows[0][0].AsInt(), 10);
  EXPECT_EQ(res.rows[0][1].AsInt(), 18);  // Tom: 20-2
  EXPECT_EQ(res.rows[0][2].AsInt(), 4);   // GREATEST(2,4)
}

TEST(EngineTest, SelfJoinWithQualifiers) {
  Engine db;
  LoadFigure3(&db);
  // Overlapping same-position pairs (Query 3 shape).
  auto r = db.Execute(
      "SELECT A.EmpName, B.EmpName FROM POSITION A, POSITION B "
      "WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 "
      "AND A.EmpName < B.EmpName");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsString(), "Jane");
  EXPECT_EQ(r.ValueOrDie().rows[0][1].AsString(), "Tom");
}

TEST(EngineTest, JoinMethodsAgree) {
  Engine db;
  LoadFigure3(&db);
  ASSERT_TRUE(db.Execute("CREATE TABLE NAMES (EmpName VARCHAR(20), Nice INT)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO NAMES VALUES ('Tom', 1), ('Jane', 0)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX IX ON NAMES (EmpName)").ok());
  const char* q =
      "SELECT PosID, Nice FROM POSITION A, NAMES B "
      "WHERE A.EmpName = B.EmpName ORDER BY PosID, Nice";
  auto run = [&](SessionConfig::JoinMethod m) {
    db.config().forced_join = m;
    auto r = db.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ValueOrDie().rows;
  };
  const auto hash_rows = run(SessionConfig::JoinMethod::kHash);
  const auto merge_rows = run(SessionConfig::JoinMethod::kMerge);
  const auto nl_rows = run(SessionConfig::JoinMethod::kNestedLoop);
  const auto auto_rows = run(SessionConfig::JoinMethod::kAuto);
  ASSERT_EQ(hash_rows.size(), 3u);
  for (const auto& rows : {merge_rows, nl_rows, auto_rows}) {
    ASSERT_EQ(rows.size(), hash_rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t c = 0; c < rows[i].size(); ++c) {
        EXPECT_EQ(rows[i][c].Compare(hash_rows[i][c]), 0) << i << "," << c;
      }
    }
  }
}

TEST(EngineTest, GroupByAggregates) {
  Engine db;
  LoadFigure3(&db);
  auto r = db.Execute(
      "SELECT PosID, COUNT(*) AS C, MIN(T1) AS MN, MAX(T2) AS MX, "
      "AVG(T1) AS AV FROM POSITION GROUP BY PosID ORDER BY PosID");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.ValueOrDie().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsInt(), 2);
  EXPECT_EQ(rows[0][2].AsInt(), 2);
  EXPECT_EQ(rows[0][3].AsInt(), 25);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 3.5);
  EXPECT_EQ(rows[1][1].AsInt(), 1);
}

TEST(EngineTest, HavingFiltersGroups) {
  Engine db;
  LoadFigure3(&db);
  auto r = db.Execute(
      "SELECT PosID FROM POSITION GROUP BY PosID HAVING COUNT(*) > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsInt(), 1);
}

TEST(EngineTest, GlobalAggregateOnEmptyInput) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE E (X INT)").ok());
  auto r = db.Execute("SELECT COUNT(*) AS C, SUM(X) AS S FROM E");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.ValueOrDie().rows[0][1].is_null());
}

// GROUP BY's SUM over ints is exact: 2^53 + 1 has no double.
TEST(EngineTest, IntegerSumIsExact) {
  constexpr int64_t k2To53 = int64_t{1} << 53;
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE S (K INT, V INT)").ok());
  ASSERT_TRUE(db.BulkLoad("S", {{Value(int64_t{1}), Value(k2To53)},
                                {Value(int64_t{1}), Value(int64_t{1})}})
                  .ok());
  auto r = db.Execute("SELECT K, SUM(V) AS S FROM S GROUP BY K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 1u);
  const Value& sum = r.ValueOrDie().rows[0][1];
  ASSERT_TRUE(sum.is_int()) << sum.ToString();
  EXPECT_EQ(sum.AsInt(), k2To53 + 1);
}

// A sum that leaves int64 is a double, never a cast back to int64.
TEST(EngineTest, IntegerSumPastInt64FallsBackToDouble) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE S (K INT, V INT)").ok());
  ASSERT_TRUE(
      db.BulkLoad("S", {{Value(int64_t{1}),
                         Value(std::numeric_limits<int64_t>::max())},
                        {Value(int64_t{1}), Value(int64_t{1})}})
          .ok());
  auto r = db.Execute("SELECT K, SUM(V) AS S FROM S GROUP BY K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 1u);
  const Value& sum = r.ValueOrDie().rows[0][1];
  ASSERT_TRUE(sum.is_double()) << sum.ToString();
  EXPECT_EQ(sum.AsDouble(), 9223372036854775808.0);
}

TEST(EngineTest, AggregatesSkipNulls) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE N (G INT, X INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO N VALUES (1, 5), (1, NULL), (1, 7)")
                  .ok());
  auto r = db.Execute(
      "SELECT G, COUNT(X) AS C, AVG(X) AS A FROM N GROUP BY G");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows[0][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.ValueOrDie().rows[0][2].AsDouble(), 6.0);
}

TEST(EngineTest, UnionDistinctAndAll) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE U (X INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO U VALUES (1), (2), (2)").ok());
  auto distinct = db.Execute("SELECT X FROM U UNION SELECT X FROM U");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct.ValueOrDie().rows.size(), 2u);
  auto all = db.Execute("SELECT X FROM U UNION ALL SELECT X FROM U");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().rows.size(), 6u);
}

TEST(EngineTest, DistinctSelect) {
  Engine db;
  LoadFigure3(&db);
  auto r = db.Execute("SELECT DISTINCT EmpName FROM POSITION ORDER BY EmpName");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().rows.size(), 2u);
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsString(), "Jane");
}

TEST(EngineTest, SubqueryInFrom) {
  Engine db;
  LoadFigure3(&db);
  auto r = db.Execute(
      "SELECT S.PosID, CNT FROM "
      "(SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID) S "
      "WHERE CNT > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsInt(), 1);
}

TEST(EngineTest, TemporalAggregationSqlShape) {
  // The nested SQL the Translator-To-SQL emits for TAGGR^D, on the Figure 3
  // data: must reproduce the Figure 3(c) aggregation result.
  Engine db;
  LoadFigure3(&db);
  const char* q =
      "SELECT R.PosID AS PosID, P.T1 AS T1, P.T2 AS T2, COUNT(*) AS CNT "
      "FROM POSITION R, "
      " (SELECT A.G AS G, A.T AS T1, MIN(B.T) AS T2 "
      "  FROM (SELECT PosID AS G, T1 AS T FROM POSITION "
      "        UNION SELECT PosID AS G, T2 AS T FROM POSITION) A, "
      "       (SELECT PosID AS G, T1 AS T FROM POSITION "
      "        UNION SELECT PosID AS G, T2 AS T FROM POSITION) B "
      "  WHERE A.G = B.G AND A.T < B.T GROUP BY A.G, A.T) P "
      "WHERE R.PosID = P.G AND R.T1 <= P.T1 AND P.T2 <= R.T2 "
      "GROUP BY R.PosID, P.T1, P.T2 "
      "ORDER BY PosID, T1";
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.ValueOrDie().rows;
  // Figure 3(c): (1,2,5,1) (1,5,20,2) (1,20,25,1) (2,5,10,1).
  ASSERT_EQ(rows.size(), 4u);
  const int64_t expected[4][4] = {
      {1, 2, 5, 1}, {1, 5, 20, 2}, {1, 20, 25, 1}, {2, 5, 10, 1}};
  for (size_t i = 0; i < 4; ++i) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(rows[i][c].AsInt(), expected[i][c]) << i << "," << c;
    }
  }
}

TEST(EngineTest, IndexScanMatchesFullScan) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE R (K INT, P INT)").ok());
  std::string values;
  for (int i = 0; i < 500; ++i) {
    if (i > 0) values += ", ";
    values.append("(")
        .append(std::to_string(i % 97))
        .append(", ")
        .append(std::to_string(i))
        .append(")");
  }
  ASSERT_TRUE(db.Execute("INSERT INTO R VALUES " + values).ok());
  auto no_index = db.Execute("SELECT P FROM R WHERE K >= 10 AND K < 15 ORDER BY P");
  ASSERT_TRUE(no_index.ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX IK ON R (K)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());
  auto with_index = db.Execute("SELECT P FROM R WHERE K >= 10 AND K < 15 ORDER BY P");
  ASSERT_TRUE(with_index.ok());
  ASSERT_EQ(with_index.ValueOrDie().rows.size(),
            no_index.ValueOrDie().rows.size());
  for (size_t i = 0; i < with_index.ValueOrDie().rows.size(); ++i) {
    EXPECT_EQ(with_index.ValueOrDie().rows[i][0].AsInt(),
              no_index.ValueOrDie().rows[i][0].AsInt());
  }
}

TEST(EngineTest, CreateTableAsSelect) {
  Engine db;
  LoadFigure3(&db);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE TMP AS SELECT PosID, T1 FROM POSITION "
                 "WHERE PosID = 1")
          .ok());
  auto r = db.Execute("SELECT COUNT(*) AS C FROM TMP");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows[0][0].AsInt(), 2);
  ASSERT_TRUE(db.Execute("DROP TABLE TMP").ok());
  EXPECT_FALSE(db.Execute("SELECT X FROM TMP").ok());
}

TEST(EngineTest, AnalyzeComputesStats) {
  Engine db;
  LoadFigure3(&db);
  ASSERT_TRUE(db.Execute("ANALYZE POSITION").ok());
  const Table* t = db.catalog().GetTable("POSITION").ValueOrDie();
  const TableStats& s = t->stats();
  EXPECT_TRUE(s.analyzed);
  EXPECT_DOUBLE_EQ(s.cardinality, 3.0);
  EXPECT_GE(s.blocks, 1.0);
  EXPECT_GT(s.avg_tuple_bytes, 0.0);
  EXPECT_DOUBLE_EQ(s.columns[0].num_distinct, 2.0);  // PosID in {1,2}
  EXPECT_EQ(s.columns[2].min.AsInt(), 2);             // T1
  EXPECT_EQ(s.columns[3].max.AsInt(), 25);            // T2
  EXPECT_FALSE(s.columns[2].histogram.empty());
  EXPECT_TRUE(s.columns[1].histogram.empty());  // strings: no histogram
}

TEST(EngineTest, ErrorsSurfaceCleanly) {
  Engine db;
  EXPECT_EQ(db.Execute("SELECT X FROM MISSING").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.Execute("NONSENSE").status().code(), StatusCode::kParseError);
  LoadFigure3(&db);
  EXPECT_FALSE(db.Execute("SELECT Nope FROM POSITION").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO POSITION VALUES (1)").ok());
  // Ambiguous unqualified column in a self-join.
  EXPECT_FALSE(db.Execute("SELECT A.PosID FROM POSITION A, POSITION B "
                          "WHERE T1 < 5")
                   .ok());
}

TEST(ConnectionTest, RemoteCursorDeliversBatches) {
  Engine db;
  LoadFigure3(&db);
  WireConfig wire;
  wire.simulate_delay = false;
  wire.row_prefetch = 2;
  Connection conn(&db, wire);
  auto cur = conn.ExecuteQuery("SELECT PosID, EmpName FROM POSITION ORDER BY T1");
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  auto rows = MaterializeAll(cur.ValueOrDie().get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.ValueOrDie().size(), 3u);
  EXPECT_EQ(rows.ValueOrDie()[0][1].AsString(), "Tom");
  EXPECT_EQ(conn.counters().batches, 2u);  // 3 rows / prefetch 2
  EXPECT_GT(conn.counters().bytes_to_client, 0u);
}

TEST(ConnectionTest, BulkLoadAndInsertLoadAgree) {
  Engine db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE A (X INT, S VARCHAR(8), R DOUBLE)").ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE B (X INT, S VARCHAR(8), R DOUBLE)").ok());
  WireConfig wire;
  wire.simulate_delay = false;
  Connection conn(&db, wire);
  // Full-precision doubles: UIS-like PayRates, and values whose six-digit
  // rendering would lose digits, read back as an int, or carry an exponent.
  Rng rng(2001);
  std::vector<double> rates;
  for (int i = 0; i < 20; ++i) {
    rates.push_back(3.0 - 5.0 * std::log(1.0 - rng.NextDouble()));
  }
  rates.insert(rates.end(), {7.123456789, 54321.98765, 1234567.5});
  std::vector<Tuple> rows;
  for (size_t i = 0; i < rates.size(); ++i) {
    rows.push_back({Value(static_cast<int64_t>(i)),
                    Value(std::string("s").append(std::to_string(i))),
                    Value(rates[i])});
  }
  ASSERT_TRUE(conn.BulkLoad("A", rows).ok());
  const Status inserted = conn.InsertLoad("B", rows);
  ASSERT_TRUE(inserted.ok()) << inserted.ToString();
  auto a = db.Execute("SELECT X, S, R FROM A ORDER BY X");
  auto b = db.Execute("SELECT X, S, R FROM B ORDER BY X");
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<Tuple>& ra = a.ValueOrDie().rows;
  const std::vector<Tuple>& rb = b.ValueOrDie().rows;
  ASSERT_EQ(ra.size(), rows.size());
  ASSERT_EQ(rb.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < rows[i].size(); ++c) {
      SCOPED_TRACE("row " + std::to_string(i) + " column " +
                   std::to_string(c));
      EXPECT_EQ(ra[i][c], rows[i][c]);
      EXPECT_EQ(rb[i][c], ra[i][c]);
      EXPECT_EQ(rb[i][c].is_double(), ra[i][c].is_double());
      EXPECT_EQ(rb[i][c].is_int(), ra[i][c].is_int());
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(rb[i][2].AsDouble()),
              std::bit_cast<uint64_t>(rates[i]));
  }
  // InsertLoad pays one round trip per row.
  EXPECT_GE(conn.counters().statements, rows.size() + 1);
}

TEST(ConnectionTest, StatsOverTheWire) {
  Engine db;
  LoadFigure3(&db);
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  WireConfig wire;
  wire.simulate_delay = false;
  Connection conn(&db, wire);
  auto stats = conn.GetTableStats("POSITION");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().cardinality, 3.0);
  auto schema = conn.GetTableSchema("POSITION");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.ValueOrDie().num_columns(), 4u);
}

TEST(ConnectionTest, WirePacingAccumulates) {
  Engine db;
  LoadFigure3(&db);
  WireConfig wire;
  wire.simulate_delay = true;
  wire.bytes_per_second = 1e9;  // keep the test fast
  wire.roundtrip_seconds = 1e-5;
  Connection conn(&db, wire);
  ASSERT_TRUE(conn.Execute("SELECT PosID FROM POSITION").ok());
  EXPECT_GT(conn.counters().simulated_seconds, 0.0);
}

}  // namespace
}  // namespace dbms
}  // namespace tango
