#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "dbms/connection.h"
#include "dbms/engine.h"
#include "exec/basic.h"
#include "exec/instrument.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "exec/taggr.h"
#include "exec/transfer.h"

namespace tango {
namespace exec {
namespace {

Schema PosSchema() {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

// Figure 3(a)'s POSITION relation.
std::vector<Tuple> Figure3Rows() {
  return {
      {Value(int64_t{1}), Value("Tom"), Value(int64_t{2}), Value(int64_t{20})},
      {Value(int64_t{1}), Value("Jane"), Value(int64_t{5}), Value(int64_t{25})},
      {Value(int64_t{2}), Value("Tom"), Value(int64_t{5}), Value(int64_t{10})},
  };
}

CursorPtr PosCursor() {
  return std::make_unique<VectorCursor>(PosSchema(), Figure3Rows());
}

TEST(FilterCursorTest, FiltersRows) {
  auto pred = Bind(Expr::Binary(BinaryOp::kEq, Expr::ColumnRef("POSID"),
                                Expr::Int(1)),
                   PosSchema())
                  .ValueOrDie();
  FilterCursor f(PosCursor(), pred);
  auto rows = MaterializeAll(&f).ValueOrDie();
  EXPECT_EQ(rows.size(), 2u);
}

TEST(ProjectCursorTest, ComputesExpressions) {
  Schema out({{"", "DUR", DataType::kInt}});
  auto e = Bind(Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("T2"),
                             Expr::ColumnRef("T1")),
                PosSchema())
               .ValueOrDie();
  ProjectCursor p(PosCursor(), {e}, out);
  auto rows = MaterializeAll(&p).ValueOrDie();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), 18);
  EXPECT_EQ(rows[2][0].AsInt(), 5);
}

TEST(SortCursorTest, InMemorySort) {
  SortCursor s(PosCursor(), {{0, false}, {2, true}});
  auto rows = MaterializeAll(&s).ValueOrDie();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt(), 2);
  EXPECT_EQ(rows[1][2].AsInt(), 2);  // PosID 1 sorted by T1
  EXPECT_EQ(s.spilled_runs(), 0u);
}

TEST(SortCursorTest, ExternalSortSpillsAndStaysSorted) {
  Rng rng(3);
  Schema schema({{"", "K", DataType::kInt}, {"", "PAD", DataType::kString}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value(rng.Uniform(0, 100000)),
                    Value(std::string(64, 'x'))});
  }
  auto expected = rows;
  std::sort(expected.begin(), expected.end(),
            [](const Tuple& a, const Tuple& b) { return a[0] < b[0]; });
  // Tiny budget forces spilling.
  SortCursor s(std::make_unique<VectorCursor>(schema, rows), {{0, true}},
               /*memory_budget_bytes=*/16 * 1024);
  auto sorted = MaterializeAll(&s).ValueOrDie();
  ASSERT_EQ(sorted.size(), rows.size());
  EXPECT_GT(s.spilled_runs(), 2u);
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i][0].AsInt(), expected[i][0].AsInt()) << i;
  }
}

TEST(DupElimCursorTest, RemovesAdjacentDuplicates) {
  Schema schema({{"", "X", DataType::kInt}});
  std::vector<Tuple> rows = {{Value(int64_t{1})}, {Value(int64_t{1})},
                             {Value(int64_t{2})}, {Value(int64_t{2})},
                             {Value(int64_t{2})}, {Value(int64_t{3})}};
  DupElimCursor d(std::make_unique<VectorCursor>(schema, rows));
  auto out = MaterializeAll(&d).ValueOrDie();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2][0].AsInt(), 3);
}

TEST(DifferenceCursorTest, MultisetSemantics) {
  Schema schema({{"", "X", DataType::kInt}});
  auto mk = [&](std::vector<int64_t> v) {
    std::vector<Tuple> rows;
    for (int64_t x : v) rows.push_back({Value(x)});
    return std::make_unique<VectorCursor>(schema, rows);
  };
  // {1,1,2,3} - {1,3,4} = {1,2} (one 1 cancelled, not both).
  DifferenceCursor d(mk({1, 1, 2, 3}), mk({1, 3, 4}));
  auto out = MaterializeAll(&d).ValueOrDie();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].AsInt(), 1);
  EXPECT_EQ(out[1][0].AsInt(), 2);
}

TEST(CoalesceCursorTest, MergesAdjacentAndOverlapping) {
  Schema schema({{"", "K", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{5})},
      {Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{8})},   // adjacent
      {Value(int64_t{1}), Value(int64_t{7}), Value(int64_t{9})},   // overlap
      {Value(int64_t{1}), Value(int64_t{11}), Value(int64_t{12})}, // gap
      {Value(int64_t{2}), Value(int64_t{1}), Value(int64_t{3})},   // new key
  };
  CoalesceCursor c(std::make_unique<VectorCursor>(schema, rows), 1, 2);
  auto out = MaterializeAll(&c).ValueOrDie();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][1].AsInt(), 1);
  EXPECT_EQ(out[0][2].AsInt(), 9);
  EXPECT_EQ(out[1][1].AsInt(), 11);
  EXPECT_EQ(out[2][0].AsInt(), 2);
}

TEST(CoalesceCursorTest, ContainedPeriodDoesNotShrinkResult) {
  Schema schema({{"", "K", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
  // Second period contained in the first: [1,10) + [2,3) = [1,10).
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{10})},
      {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})},
  };
  CoalesceCursor c(std::make_unique<VectorCursor>(schema, rows), 1, 2);
  auto out = MaterializeAll(&c).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][2].AsInt(), 10);
}

TEST(MergeJoinCursorTest, JoinsWithDuplicates) {
  Schema ls({{"L", "K", DataType::kInt}, {"L", "A", DataType::kString}});
  Schema rs({{"R", "K", DataType::kInt}, {"R", "B", DataType::kString}});
  std::vector<Tuple> lrows = {{Value(int64_t{1}), Value("a1")},
                              {Value(int64_t{1}), Value("a2")},
                              {Value(int64_t{2}), Value("a3")},
                              {Value(int64_t{4}), Value("a4")}};
  std::vector<Tuple> rrows = {{Value(int64_t{1}), Value("b1")},
                              {Value(int64_t{1}), Value("b2")},
                              {Value(int64_t{3}), Value("b3")},
                              {Value(int64_t{4}), Value("b4")}};
  MergeJoinCursor j(std::make_unique<VectorCursor>(ls, lrows),
                    std::make_unique<VectorCursor>(rs, rrows), {0}, {0});
  auto out = MaterializeAll(&j).ValueOrDie();
  // key 1: 2x2 = 4 pairs; key 4: 1 pair.
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0][1].AsString(), "a1");
  EXPECT_EQ(out[0][3].AsString(), "b1");
  EXPECT_EQ(out[4][3].AsString(), "b4");
  EXPECT_EQ(j.schema().num_columns(), 4u);
}

TEST(MergeJoinCursorTest, NullKeysNeverJoin) {
  Schema s({{"", "K", DataType::kInt}});
  std::vector<Tuple> l = {{Value::Null()}, {Value(int64_t{1})}};
  std::vector<Tuple> r = {{Value::Null()}, {Value(int64_t{1})}};
  MergeJoinCursor j(std::make_unique<VectorCursor>(s, l),
                    std::make_unique<VectorCursor>(s, r), {0}, {0});
  auto out = MaterializeAll(&j).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].AsInt(), 1);
}

TEST(TemporalJoinCursorTest, IntersectsPeriods) {
  // TAGGR result (Figure 3(c)) temporally joined back to POSITION —
  // reproducing the paper's query result (Figure 3(b)).
  Schema aggs({{"", "POSID", DataType::kInt},
               {"", "T1", DataType::kInt},
               {"", "T2", DataType::kInt},
               {"", "CNT", DataType::kInt}});
  std::vector<Tuple> agg_rows = {
      {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{5}), Value(int64_t{1})},
      {Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{20}), Value(int64_t{2})},
      {Value(int64_t{1}), Value(int64_t{20}), Value(int64_t{25}), Value(int64_t{1})},
      {Value(int64_t{2}), Value(int64_t{5}), Value(int64_t{10}), Value(int64_t{1})},
  };
  // left = POSITION sorted on PosID; right = aggregation result.
  auto pos_rows = Figure3Rows();
  // Output schema per the algebra: left minus period (POSID, EMPNAME), right
  // minus join attr and period (CNT), then T1, T2.
  Schema out_schema({{"", "POSID", DataType::kInt},
                     {"", "EMPNAME", DataType::kString},
                     {"", "CNT", DataType::kInt},
                     {"", "T1", DataType::kInt},
                     {"", "T2", DataType::kInt}});
  TemporalJoinCursor j(std::make_unique<VectorCursor>(PosSchema(), pos_rows),
                       std::make_unique<VectorCursor>(aggs, agg_rows),
                       /*left_keys=*/{0}, /*right_keys=*/{0},
                       /*left_t1=*/2, /*left_t2=*/3, /*right_t1=*/1,
                       /*right_t2=*/2, /*left_out=*/{0, 1},
                       /*right_out=*/{3}, out_schema);
  auto out = MaterializeAll(&j).ValueOrDie();
  // Figure 3(b): 5 rows.
  ASSERT_EQ(out.size(), 5u);
  // Tom@1 [2,20) x [2,5)c1 -> [2,5) count 1; x [5,20)c2 -> [5,20) count 2.
  EXPECT_EQ(out[0][1].AsString(), "Tom");
  EXPECT_EQ(out[0][3].AsInt(), 2);
  EXPECT_EQ(out[0][4].AsInt(), 5);
  EXPECT_EQ(out[0][2].AsInt(), 1);
  EXPECT_EQ(out[1][3].AsInt(), 5);
  EXPECT_EQ(out[1][4].AsInt(), 20);
  EXPECT_EQ(out[1][2].AsInt(), 2);
}

TEST(TemporalAggregationCursorTest, ReproducesFigure3c) {
  // Input must be sorted on (PosID, T1); Figure 3(a) already is.
  Schema out({{"", "POSID", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "COUNT", DataType::kInt}});
  TemporalAggregationCursor agg(PosCursor(), {0}, 2, 3,
                                {{AggFunc::kCount, 0, false}}, out);
  auto rows = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(rows.size(), 4u);
  const int64_t expected[4][4] = {
      {1, 2, 5, 1}, {1, 5, 20, 2}, {1, 20, 25, 1}, {2, 5, 10, 1}};
  for (size_t i = 0; i < 4; ++i) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(rows[i][c].AsInt(), expected[i][c]) << i << "," << c;
    }
  }
}

TEST(TemporalAggregationCursorTest, MinMaxSumAvg) {
  Schema in({{"", "G", DataType::kInt},
             {"", "V", DataType::kInt},
             {"", "T1", DataType::kInt},
             {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(int64_t{10}), Value(int64_t{0}), Value(int64_t{10})},
      {Value(int64_t{1}), Value(int64_t{4}), Value(int64_t{5}), Value(int64_t{15})},
  };
  Schema out({{"", "G", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "MN", DataType::kInt},
              {"", "MX", DataType::kInt},
              {"", "SM", DataType::kInt},
              {"", "AV", DataType::kDouble}});
  TemporalAggregationCursor agg(
      std::make_unique<VectorCursor>(in, rows), {0}, 2, 3,
      {{AggFunc::kMin, 1, false},
       {AggFunc::kMax, 1, false},
       {AggFunc::kSum, 1, false},
       {AggFunc::kAvg, 1, false}},
      out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  // Constant periods: [0,5) {10}, [5,10) {10,4}, [10,15) {4}.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0][3].AsInt(), 10);
  EXPECT_EQ(got[0][4].AsInt(), 10);
  EXPECT_EQ(got[1][3].AsInt(), 4);
  EXPECT_EQ(got[1][4].AsInt(), 10);
  EXPECT_EQ(got[1][5].AsInt(), 14);
  EXPECT_DOUBLE_EQ(got[1][6].AsDouble(), 7.0);
  EXPECT_EQ(got[2][3].AsInt(), 4);
  EXPECT_EQ(got[2][4].AsInt(), 4);
}

TEST(TemporalAggregationCursorTest, SkipsEmptyAndNullPeriods) {
  Schema in({{"", "G", DataType::kInt},
             {"", "T1", DataType::kInt},
             {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{5})},  // empty
      {Value(int64_t{1}), Value::Null(), Value(int64_t{9})},      // null
      {Value(int64_t{1}), Value(int64_t{3}), Value(int64_t{7})},
  };
  Schema out({{"", "G", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt}});
  TemporalAggregationCursor agg(std::make_unique<VectorCursor>(in, rows), {0},
                                1, 2, {{AggFunc::kCount, 0, true}}, out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][1].AsInt(), 3);
  EXPECT_EQ(got[0][2].AsInt(), 7);
  EXPECT_EQ(got[0][3].AsInt(), 1);
}

TEST(TemporalAggregationCursorTest, NoGroupingSweepsWholeRelation) {
  Schema in({{"", "T1", DataType::kInt}, {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(int64_t{4})},
      {Value(int64_t{2}), Value(int64_t{6})},
  };
  Schema out({{"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt}});
  TemporalAggregationCursor agg(std::make_unique<VectorCursor>(in, rows), {},
                                0, 1, {{AggFunc::kCount, 0, true}}, out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  // [1,2):1  [2,4):2  [4,6):1
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1][2].AsInt(), 2);
}

// SUM over ints is exact: 2^53 + 1 has no double, so a sum kept in a double
// reads 2^53 over [0,5) and, once the 1 expires, 2^53 - 1 over [5,10).
TEST(TemporalAggregationCursorTest, IntegerSumIsExact) {
  constexpr int64_t k2To53 = int64_t{1} << 53;
  Schema in({{"", "K", DataType::kInt},
             {"", "V", DataType::kInt},
             {"", "T1", DataType::kInt},
             {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(k2To53), Value(int64_t{0}), Value(int64_t{10})},
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{5})},
  };
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "S", DataType::kInt}});
  TemporalAggregationCursor agg(std::make_unique<VectorCursor>(in, rows), {0},
                                2, 3, {{AggFunc::kSum, 1, false}}, out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(got.size(), 2u);
  ASSERT_TRUE(got[0][3].is_int());
  EXPECT_EQ(got[0][3].AsInt(), k2To53 + 1);
  ASSERT_TRUE(got[1][3].is_int());
  EXPECT_EQ(got[1][3].AsInt(), k2To53);
}

// An int sum that leaves int64 becomes a double (casting it back would be
// undefined behaviour) and stays one for the rest of the group.
TEST(TemporalAggregationCursorTest, IntegerSumPastInt64FallsBackToDouble) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Schema in({{"", "K", DataType::kInt},
             {"", "V", DataType::kInt},
             {"", "T1", DataType::kInt},
             {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows = {
      {Value(int64_t{1}), Value(kMax), Value(int64_t{0}), Value(int64_t{10})},
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{5})},
  };
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "S", DataType::kInt},
              {"", "A", DataType::kDouble}});
  TemporalAggregationCursor agg(
      std::make_unique<VectorCursor>(in, rows), {0}, 2, 3,
      {{AggFunc::kSum, 1, false}, {AggFunc::kAvg, 1, false}}, out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(got.size(), 2u);
  ASSERT_TRUE(got[0][3].is_double());
  EXPECT_EQ(got[0][3].AsDouble(), 9223372036854775808.0);
  EXPECT_EQ(got[0][4].AsDouble(), 9223372036854775808.0 / 2);
  ASSERT_TRUE(got[1][3].is_double());
  EXPECT_EQ(got[1][3].AsDouble(), 9223372036854775808.0);
}

// Property: for random inputs, temporal COUNT aggregation conserves
// "tuple-days": sum over output of count*(T2-T1) == sum over input of
// (T2-T1), and constant periods tile each group without overlaps.
class TAggrPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TAggrPropertyTest, ConservesTupleDaysAndTiles) {
  Rng rng(GetParam());
  Schema in({{"", "G", DataType::kInt},
             {"", "T1", DataType::kInt},
             {"", "T2", DataType::kInt}});
  std::vector<Tuple> rows;
  int64_t input_days = 0;
  for (int i = 0; i < 300; ++i) {
    const int64_t g = rng.Uniform(0, 5);
    const int64_t t1 = rng.Uniform(0, 100);
    const int64_t t2 = t1 + rng.Uniform(1, 30);
    input_days += t2 - t1;
    rows.push_back({Value(g), Value(t1), Value(t2)});
  }
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    if (a[0].AsInt() != b[0].AsInt()) return a[0].AsInt() < b[0].AsInt();
    return a[1].AsInt() < b[1].AsInt();
  });
  Schema out({{"", "G", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt}});
  TemporalAggregationCursor agg(std::make_unique<VectorCursor>(in, rows), {0},
                                1, 2, {{AggFunc::kCount, 0, true}}, out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  int64_t output_days = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const int64_t t1 = got[i][1].AsInt();
    const int64_t t2 = got[i][2].AsInt();
    const int64_t c = got[i][3].AsInt();
    ASSERT_LT(t1, t2) << "empty constant period";
    ASSERT_GE(c, 1) << "empty group emitted";
    output_days += c * (t2 - t1);
    if (i > 0 && got[i][0].AsInt() == got[i - 1][0].AsInt()) {
      ASSERT_GE(t1, got[i - 1][2].AsInt()) << "overlapping constant periods";
    }
  }
  EXPECT_EQ(output_days, input_days);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TAggrPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

TEST(TransferCursorsTest, RoundTripThroughDbms) {
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                         "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO POSITION VALUES "
                         "(1, 'Tom', 2, 20), (1, 'Jane', 5, 25), "
                         "(2, 'Tom', 5, 10)")
                  .ok());
  dbms::WireConfig wire;
  wire.simulate_delay = false;
  dbms::Connection conn(&db, wire);

  // TRANSFER^D loads middleware rows into a temp table; a dependent
  // TRANSFER^M then reads them back joined with POSITION — the Figure 5
  // plan in miniature.
  Schema agg_schema({{"", "POSID", DataType::kInt},
                     {"", "T1", DataType::kInt},
                     {"", "T2", DataType::kInt},
                     {"", "CNT", DataType::kInt}});
  std::vector<Tuple> agg_rows = {
      {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{5}), Value(int64_t{1})},
      {Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{20}), Value(int64_t{2})},
  };
  auto td = std::make_unique<TransferDCursor>(
      &conn, "TMP1", std::vector<std::string>{"POSID", "T1", "T2", "CNT"},
      std::make_unique<VectorCursor>(agg_schema, agg_rows));

  Schema result_schema({{"", "POSID", DataType::kInt},
                        {"", "EMPNAME", DataType::kString},
                        {"", "CNT", DataType::kInt}});
  std::vector<CursorPtr> deps;
  deps.push_back(std::move(td));
  TransferMCursor tm(&conn,
                     "SELECT A.PosID AS PosID, EmpName, CNT "
                     "FROM TMP1 A, POSITION B "
                     "WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 "
                     "ORDER BY PosID, CNT, EmpName",
                     result_schema, std::move(deps));
  auto rows = MaterializeAll(&tm);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // TMP1 x POSITION overlaps: [2,5)x Tom; [5,20)x Tom, Jane -> 3 rows... plus
  // [2,5) does not overlap Jane [5,25) (closed-open), total 4? Check: row1
  // [2,5): Tom[2,20) yes, Jane[5,25) no (5 !< 5). row2 [5,20): Tom yes, Jane
  // yes. => 3 rows.
  ASSERT_EQ(rows.ValueOrDie().size(), 3u);
  EXPECT_TRUE(db.catalog().HasTable("TMP1"));
  ASSERT_TRUE(db.Execute("DROP TABLE TMP1").ok());
}

TEST(InstrumentTest, SelfTimeSubtractsChildren) {
  TimingSink sink;
  auto child = std::make_unique<InstrumentedCursor>(PosCursor(), "scan", &sink,
                                                    std::vector<size_t>{});
  const size_t child_id = child->id();
  auto parent = std::make_unique<InstrumentedCursor>(
      std::make_unique<SortCursor>(std::move(child),
                                   std::vector<SortKey>{{0, true}}),
      "sort", &sink, std::vector<size_t>{child_id});
  auto rows = MaterializeAll(parent.get()).ValueOrDie();
  EXPECT_EQ(rows.size(), 3u);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[1].rows, 3u);
  EXPECT_GE(sink[1].inclusive_seconds, sink[0].inclusive_seconds);
  EXPECT_GE(SelfSeconds(sink, 1), 0.0);
}

}  // namespace
}  // namespace exec
}  // namespace tango
