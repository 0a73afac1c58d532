// Property tests on the middleware execution algorithms' invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "exec/basic.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "exec/taggr.h"
#include "exec/transfer.h"
#include "expr/expr.h"

namespace tango {
namespace exec {
namespace {

Schema KeyedSchema() {
  return Schema({{"", "K", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

std::vector<Tuple> RandomPeriods(uint64_t seed, size_t n, int64_t keys,
                                 int64_t horizon) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(0, horizon);
    rows.push_back(
        {Value(rng.Uniform(0, keys - 1)), Value(t1),
         Value(t1 + rng.Uniform(1, horizon / 3))});
  }
  return rows;
}

std::vector<Tuple> SortedForCoalesce(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    if (int c = a[0].Compare(b[0]); c != 0) return c < 0;
    return a[1] < b[1];
  });
  return rows;
}

std::vector<Tuple> RunCoalesce(const std::vector<Tuple>& rows) {
  CoalesceCursor c(std::make_unique<VectorCursor>(KeyedSchema(), rows), 1, 2);
  return MaterializeAll(&c).ValueOrDie();
}

class CoalescePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescePropertyTest, IdempotentAndSnapshotPreserving) {
  const auto input = SortedForCoalesce(RandomPeriods(GetParam(), 200, 5, 60));
  const auto once = RunCoalesce(input);
  const auto twice = RunCoalesce(once);

  // Idempotence: coal(coal(x)) == coal(x).
  ASSERT_EQ(twice.size(), once.size());
  for (size_t i = 0; i < once.size(); ++i) {
    for (size_t c = 0; c < once[i].size(); ++c) {
      EXPECT_EQ(twice[i][c].Compare(once[i][c]), 0) << i;
    }
  }

  // Snapshot preservation: the set of (key, day) memberships is unchanged.
  auto snapshot = [](const std::vector<Tuple>& rows) {
    std::set<std::pair<int64_t, int64_t>> days;
    for (const Tuple& t : rows) {
      for (int64_t d = t[1].AsInt(); d < t[2].AsInt(); ++d) {
        days.insert({t[0].AsInt(), d});
      }
    }
    return days;
  };
  EXPECT_EQ(snapshot(input), snapshot(once));

  // Maximality: within a key, consecutive coalesced periods have gaps.
  for (size_t i = 1; i < once.size(); ++i) {
    if (once[i][0].Compare(once[i - 1][0]) == 0) {
      EXPECT_GT(once[i][1].AsInt(), once[i - 1][2].AsInt())
          << "period " << i << " should have been merged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescePropertyTest,
                         ::testing::Values(4, 9, 16, 25, 36));

class SortBudgetPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SortBudgetPropertyTest, AnyBudgetMatchesStdSort) {
  auto rows = RandomPeriods(123, 3000, 50, 500);
  auto expected = rows;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Tuple& a, const Tuple& b) {
                     if (int c = a[0].Compare(b[0]); c != 0) return c < 0;
                     return a[1] < b[1];
                   });
  SortCursor sort(std::make_unique<VectorCursor>(KeyedSchema(), rows),
                  {{0, true}, {1, true}}, GetParam());
  auto got = MaterializeAll(&sort).ValueOrDie();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i][0].AsInt(), expected[i][0].AsInt()) << i;
    EXPECT_EQ(got[i][1].AsInt(), expected[i][1].AsInt()) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, SortBudgetPropertyTest,
                         ::testing::Values(1 << 12, 1 << 15, 1 << 19,
                                           64 << 20));

TEST(TemporalJoinPropertyTest, CommutesUpToColumnOrder) {
  const auto a = SortedForCoalesce(RandomPeriods(77, 150, 6, 80));
  const auto b = SortedForCoalesce(RandomPeriods(88, 120, 6, 80));
  Schema out_ab({{"", "K", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
  auto run = [&](const std::vector<Tuple>& l, const std::vector<Tuple>& r) {
    TemporalJoinCursor j(std::make_unique<VectorCursor>(KeyedSchema(), l),
                         std::make_unique<VectorCursor>(KeyedSchema(), r),
                         {0}, {0}, 1, 2, 1, 2, /*left_out=*/{0},
                         /*right_out=*/{}, out_ab);
    return MaterializeAll(&j).ValueOrDie();
  };
  auto ab = run(a, b);
  auto ba = run(b, a);
  // Same multiset of (key, intersected period) rows.
  auto canon = [](const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const Tuple& t : rows) {
      out.insert(t[0].ToString() + "/" + t[1].ToString() + "/" +
                 t[2].ToString());
    }
    return out;
  };
  EXPECT_FALSE(ab.empty());
  EXPECT_EQ(canon(ab), canon(ba));
}

TEST(TAggrPropertyTest, CountMatchesSumOfStarWeights) {
  // COUNT(K) with no NULLs equals COUNT(*) everywhere; MIN <= AVG <= MAX.
  auto rows = SortedForCoalesce(RandomPeriods(55, 300, 4, 100));
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C1", DataType::kInt},
              {"", "C2", DataType::kInt},
              {"", "MN", DataType::kInt},
              {"", "AV", DataType::kDouble},
              {"", "MX", DataType::kInt}});
  TemporalAggregationCursor agg(
      std::make_unique<VectorCursor>(KeyedSchema(), rows), {0}, 1, 2,
      {{AggFunc::kCount, 0, false},
       {AggFunc::kCount, 0, true},
       {AggFunc::kMin, 1, false},
       {AggFunc::kAvg, 1, false},
       {AggFunc::kMax, 1, false}},
      out);
  auto got = MaterializeAll(&agg).ValueOrDie();
  ASSERT_FALSE(got.empty());
  for (const Tuple& t : got) {
    EXPECT_EQ(t[3].AsInt(), t[4].AsInt());
    EXPECT_LE(t[5].AsDouble(), t[6].AsDouble() + 1e-9);
    EXPECT_LE(t[6].AsDouble(), t[7].AsDouble() + 1e-9);
  }
}

TEST(DifferencePropertyTest, SelfDifferenceIsEmptyAndEmptyIsIdentity) {
  auto rows = SortedForCoalesce(RandomPeriods(66, 100, 4, 60));
  auto sorted_all = rows;
  std::sort(sorted_all.begin(), sorted_all.end(),
            [](const Tuple& a, const Tuple& b) {
              for (size_t i = 0; i < a.size(); ++i) {
                if (int c = a[i].Compare(b[i]); c != 0) return c < 0;
              }
              return false;
            });
  {
    DifferenceCursor d(
        std::make_unique<VectorCursor>(KeyedSchema(), sorted_all),
        std::make_unique<VectorCursor>(KeyedSchema(), sorted_all));
    EXPECT_TRUE(MaterializeAll(&d).ValueOrDie().empty());
  }
  {
    DifferenceCursor d(
        std::make_unique<VectorCursor>(KeyedSchema(), sorted_all),
        std::make_unique<VectorCursor>(KeyedSchema(), std::vector<Tuple>{}));
    EXPECT_EQ(MaterializeAll(&d).ValueOrDie().size(), sorted_all.size());
  }
}

TEST(CursorReinitTest, AlgorithmsAreReExecutable) {
  // Figure 2's engine calls init() once, but re-execution must be safe —
  // a prepared plan can be run twice.
  auto rows = SortedForCoalesce(RandomPeriods(44, 120, 4, 60));
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt}});
  TemporalAggregationCursor agg(
      std::make_unique<VectorCursor>(KeyedSchema(), rows), {0}, 1, 2,
      {{AggFunc::kCount, 0, true}}, out);
  const auto first = MaterializeAll(&agg).ValueOrDie();
  const auto second = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    for (size_t c = 0; c < first[i].size(); ++c) {
      EXPECT_EQ(first[i][c].Compare(second[i][c]), 0);
    }
  }

  SortCursor sort(std::make_unique<VectorCursor>(KeyedSchema(), rows),
                  {{1, true}}, /*memory_budget_bytes=*/2048);
  const auto s1 = MaterializeAll(&sort).ValueOrDie();
  const auto s2 = MaterializeAll(&sort).ValueOrDie();
  EXPECT_EQ(s1.size(), s2.size());
}

// ---------------------------------------------------------------------------
// Batch/tuple differential harness: for every operator, draining via
// NextBatch (at several block capacities, including degenerate ones) must
// produce the exact row sequence the tuple-at-a-time drain produces. The
// same cursor object is drained repeatedly, which also exercises re-Init.

std::vector<Tuple> DrainTuple(Cursor* c) {
  EXPECT_TRUE(c->Init().ok());
  std::vector<Tuple> rows;
  Tuple t;
  while (true) {
    auto more = c->Next(&t);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.ValueOrDie()) break;
    rows.push_back(t);
  }
  return rows;
}

std::vector<Tuple> DrainBatch(Cursor* c, size_t capacity) {
  EXPECT_TRUE(c->Init().ok());
  std::vector<Tuple> rows;
  RowBlock block(capacity);
  Tuple t;
  while (true) {
    auto n = c->NextBatch(&block);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (!n.ok() || n.ValueOrDie() == 0) break;
    for (size_t i = 0; i < n.ValueOrDie(); ++i) {
      block.MoveRowTo(i, &t);
      rows.push_back(std::move(t));
    }
  }
  return rows;
}

void ExpectSameRows(const std::vector<Tuple>& want,
                    const std::vector<Tuple>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size()) << what << " row " << i;
    for (size_t c = 0; c < want[i].size(); ++c) {
      ASSERT_EQ(want[i][c].Compare(got[i][c]), 0)
          << what << " row " << i << " col " << c;
    }
  }
}

/// Drains `cursor` tuple-at-a-time, then batched at capacities 1/2/7/1024,
/// asserting bit-identical output every time.
void RunDifferential(Cursor* cursor, const std::string& what) {
  const auto want = DrainTuple(cursor);
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{7},
                                RowBlock::kDefaultCapacity}) {
    const auto got = DrainBatch(cursor, capacity);
    ExpectSameRows(want, got,
                   what + " @capacity=" + std::to_string(capacity));
  }
  // Mixing row and batch calls between Inits must also replay identically.
  const auto again = DrainTuple(cursor);
  ExpectSameRows(want, again, what + " re-drained tuple-at-a-time");
}

CursorPtr KeyedVector(std::vector<Tuple> rows) {
  return std::make_unique<VectorCursor>(KeyedSchema(), std::move(rows));
}

TEST(BatchDifferentialTest, FilterCursor) {
  auto pred = Bind(Expr::Binary(BinaryOp::kLt, Expr::ColumnRef("T1"),
                                Expr::Int(30)),
                   KeyedSchema())
                  .ValueOrDie();
  FilterCursor f(KeyedVector(RandomPeriods(91, 500, 8, 80)), pred);
  RunDifferential(&f, "FILTER^M");
  // An all-rejecting filter must terminate the batch drain with zero.
  auto none = Bind(Expr::Binary(BinaryOp::kLt, Expr::ColumnRef("T1"),
                                Expr::Int(-1)),
                   KeyedSchema())
                  .ValueOrDie();
  FilterCursor empty(KeyedVector(RandomPeriods(91, 100, 8, 80)), none);
  RunDifferential(&empty, "FILTER^M(empty)");
}

TEST(BatchDifferentialTest, ProjectCursor) {
  Schema out({{"", "K", DataType::kInt}, {"", "DUR", DataType::kInt}});
  auto k = Bind(Expr::ColumnRef("K"), KeyedSchema()).ValueOrDie();
  auto dur = Bind(Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("T2"),
                               Expr::ColumnRef("T1")),
                  KeyedSchema())
                 .ValueOrDie();
  ProjectCursor p(KeyedVector(RandomPeriods(92, 400, 6, 70)), {k, dur}, out);
  RunDifferential(&p, "PROJECT^M");
}

TEST(BatchDifferentialTest, SortCursorInMemoryAndSpilled) {
  const auto rows = RandomPeriods(93, 800, 10, 90);
  SortCursor in_mem(KeyedVector(rows), {{0, true}, {1, true}});
  RunDifferential(&in_mem, "SORT^M(in-memory)");
  SortCursor spilled(KeyedVector(rows), {{0, true}, {1, true}},
                     /*memory_budget_bytes=*/4096);
  RunDifferential(&spilled, "SORT^M(spilled)");
}

TEST(BatchDifferentialTest, DupElimAndDifferenceAndCoalesce) {
  auto sorted = SortedForCoalesce(RandomPeriods(94, 300, 5, 60));
  DupElimCursor dup(KeyedVector(sorted));
  RunDifferential(&dup, "DUPELIM^M");

  auto all_sorted = sorted;
  std::sort(all_sorted.begin(), all_sorted.end(),
            [](const Tuple& a, const Tuple& b) {
              for (size_t i = 0; i < a.size(); ++i) {
                if (int c = a[i].Compare(b[i]); c != 0) return c < 0;
              }
              return false;
            });
  std::vector<Tuple> half(all_sorted.begin(),
                          all_sorted.begin() + all_sorted.size() / 2);
  DifferenceCursor diff(KeyedVector(all_sorted), KeyedVector(half));
  RunDifferential(&diff, "DIFF^M");

  CoalesceCursor coal(KeyedVector(sorted), 1, 2);
  RunDifferential(&coal, "COALESCE^M");
}

TEST(BatchDifferentialTest, MergeAndTemporalJoin) {
  auto left = SortedForCoalesce(RandomPeriods(95, 250, 6, 70));
  auto right = SortedForCoalesce(RandomPeriods(96, 200, 6, 70));
  MergeJoinCursor mj(KeyedVector(left), KeyedVector(right), {0}, {0});
  RunDifferential(&mj, "MERGEJOIN^M");

  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt}});
  TemporalJoinCursor tj(KeyedVector(left), KeyedVector(right), {0}, {0}, 1, 2,
                        1, 2, /*left_out=*/{0}, /*right_out=*/{}, out);
  RunDifferential(&tj, "TJOIN^M");
}

TEST(BatchDifferentialTest, TemporalAggregation) {
  auto rows = SortedForCoalesce(RandomPeriods(97, 350, 4, 80));
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt}});
  TemporalAggregationCursor agg(KeyedVector(rows), {0}, 1, 2,
                                {{AggFunc::kCount, 0, true}}, out);
  RunDifferential(&agg, "TAGGR^M");
}

// ---------------------------------------------------------------------------
// Restart invariant: a TRANSFER^M whose remote cursor is killed mid-drain
// re-issues its SELECT and skips the rows already delivered. Drained at any
// batch capacity, with the kill landing in the first wire batch, early,
// mid-stream and late, the delivered sequence must equal a clean drain row
// for row — the skip offset stays block-aligned, so no row is duplicated or
// lost.

Status DrainBatched(Cursor* c, size_t capacity, std::vector<Tuple>* out) {
  TANGO_RETURN_IF_ERROR(c->Init());
  RowBlock block(capacity);
  Tuple t;
  while (true) {
    auto n = c->NextBatch(&block);
    TANGO_RETURN_IF_ERROR(n.status());
    if (n.ValueOrDie() == 0) return Status::OK();
    for (size_t i = 0; i < n.ValueOrDie(); ++i) {
      block.MoveRowTo(i, &t);
      out->push_back(std::move(t));
    }
  }
}

class TransferRestartPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TransferRestartPropertyTest, RestartedDrainMatchesCleanDrain) {
  const size_t capacity = GetParam();
  constexpr size_t kRows = 2500;
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE R (K INT, T1 INT, T2 INT)").ok());
  ASSERT_TRUE(db.BulkLoad("R", RandomPeriods(17, kRows, 9, 90)).ok());
  dbms::WireConfig wc;
  wc.simulate_delay = false;
  wc.row_prefetch = 16;  // many small wire batches -> many restart points
  dbms::Connection conn(&db, wc);
  const std::string sql = "SELECT K, T1, T2 FROM R";
  const Schema schema = conn.GetTableSchema("R").ValueOrDie();

  std::vector<Tuple> clean;
  {
    TransferMCursor c(&conn, sql, schema);
    ASSERT_TRUE(DrainBatched(&c, capacity, &clean).ok());
    ASSERT_EQ(clean.size(), kRows);
  }

  auto injector = std::make_shared<dbms::FaultInjector>();
  conn.set_fault_injector(injector);
  // Wire batches are 16 rows, so 2,500 rows take 157 of them: the kill
  // lands in the first batch, early, mid-stream and near the tail.
  for (const uint64_t fault_batch : {0, 10, 70, 150}) {
    const std::string what = "capacity=" + std::to_string(capacity) +
                             " fault_batch=" + std::to_string(fault_batch);
    dbms::FaultPlan plan;
    plan.kind = dbms::FaultKind::kCursorKill;
    plan.batch_index = fault_batch;
    plan.times = 1;
    injector->Arm(plan);
    const uint64_t fired_before = injector->faults_fired();

    RecoveryCounters counters;
    TransferMCursor c(&conn, sql, schema, {}, nullptr, nullptr, RetryPolicy(),
                      &counters);
    std::vector<Tuple> delivered;
    const Status status = DrainBatched(&c, capacity, &delivered);
    ASSERT_TRUE(status.ok()) << what << ": " << status.ToString();
    EXPECT_EQ(injector->faults_fired() - fired_before, 1u) << what;
    EXPECT_GE(counters.tm_retries.load(), 1u) << what;
    ExpectSameRows(clean, delivered, what + " restarted drain");
    injector->Disarm();
  }
}

INSTANTIATE_TEST_SUITE_P(BatchCapacities, TransferRestartPropertyTest,
                         ::testing::Values(1, 2, 7, 1024));

TEST(VectorCursorTest, ReplaysAfterDrain) {
  const auto rows = RandomPeriods(102, 50, 4, 40);
  VectorCursor cursor(KeyedSchema(), rows);
  const auto first = DrainTuple(&cursor);
  const auto second = DrainBatch(&cursor, 7);
  ExpectSameRows(first, second, "VectorCursor re-Init replay");
  ASSERT_EQ(first.size(), rows.size());
}

}  // namespace
}  // namespace exec
}  // namespace tango
