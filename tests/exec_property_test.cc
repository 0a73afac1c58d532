// Property tests on the middleware execution algorithms' invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
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
// Capacity differential: every operator is drained at block capacities 1,
// 2, 7 and 1,024 and compared row for row with an engine-free oracle (a
// std::stable_sort, a nested-loop join, std::unique, ...). Each capacity
// drains a fresh cursor; the last one is then re-Init'ed and drained once
// more, which must replay the same rows.

/// Drains `c` from Init in blocks of `capacity`, appending to `*out`.
Status Drain(Cursor* c, size_t capacity, std::vector<Tuple>* out) {
  TANGO_RETURN_IF_ERROR(c->Init());
  RowBlock block(capacity);
  while (true) {
    TANGO_ASSIGN_OR_RETURN(const size_t n, c->NextBatch(&block));
    if (n == 0) return Status::OK();
    MoveRowsInto(&block, out);
  }
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

void RunCapacityDifferential(const std::function<CursorPtr()>& make,
                             const std::vector<Tuple>& want,
                             const std::string& what) {
  CursorPtr cursor;
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{7},
                                RowBlock::kDefaultCapacity}) {
    const std::string cell = what + " @capacity=" + std::to_string(capacity);
    cursor = make();
    ASSERT_TRUE(cursor->Init().ok()) << cell;
    RowBlock block(capacity);
    std::vector<Tuple> got;
    while (true) {
      auto n = cursor->NextBatch(&block);
      ASSERT_TRUE(n.ok()) << cell << ": " << n.status().ToString();
      if (n.ValueOrDie() == 0) break;
      ASSERT_LE(n.ValueOrDie(), capacity) << cell;
      ASSERT_EQ(n.ValueOrDie(), block.rows()) << cell;
      MoveRowsInto(&block, &got);
    }
    ExpectSameRows(want, got, cell);
  }
  std::vector<Tuple> again;
  ASSERT_TRUE(Drain(cursor.get(), 7, &again).ok()) << what;
  ExpectSameRows(want, again, what + " re-Init");
}

CursorPtr KeyedVector(std::vector<Tuple> rows) {
  return std::make_unique<VectorCursor>(KeyedSchema(), std::move(rows));
}

/// Whole-row order, all columns in schema order.
bool RowLess(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (int c = a[i].Compare(b[i]); c != 0) return c < 0;
  }
  return false;
}

bool RowEqual(const Tuple& a, const Tuple& b) {
  return !RowLess(a, b) && !RowLess(b, a);
}

/// `rows` with every third row doubled, sorted on all columns.
std::vector<Tuple> SortedWithDuplicates(const std::vector<Tuple>& rows) {
  std::vector<Tuple> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    out.push_back(rows[i]);
    if (i % 3 == 0) out.push_back(rows[i]);
  }
  std::sort(out.begin(), out.end(), RowLess);
  return out;
}

ExprPtr KeyedPredicate(BinaryOp op, const char* column, int64_t literal) {
  return Bind(Expr::Binary(op, Expr::ColumnRef(column), Expr::Int(literal)),
              KeyedSchema())
      .ValueOrDie();
}

TEST(CapacityDifferentialTest, Filter) {
  const auto rows = RandomPeriods(91, 500, 8, 80);
  std::vector<Tuple> want;
  std::copy_if(rows.begin(), rows.end(), std::back_inserter(want),
               [](const Tuple& t) { return t[1].AsInt() < 30; });
  ASSERT_FALSE(want.empty());
  RunCapacityDifferential(
      [&] {
        return std::make_unique<FilterCursor>(
            KeyedVector(rows), KeyedPredicate(BinaryOp::kLt, "T1", 30));
      },
      want, "FILTER^M");
  // An all-rejecting filter must end every drain with zero.
  RunCapacityDifferential(
      [&] {
        return std::make_unique<FilterCursor>(
            KeyedVector(rows), KeyedPredicate(BinaryOp::kLt, "T1", -1));
      },
      {}, "FILTER^M(empty)");
}

TEST(CapacityDifferentialTest, Project) {
  const auto rows = RandomPeriods(92, 400, 6, 70);
  std::vector<Tuple> want;
  for (const Tuple& t : rows) {
    want.push_back({t[0], Value(t[2].AsInt() - t[1].AsInt())});
  }
  Schema out({{"", "K", DataType::kInt}, {"", "DUR", DataType::kInt}});
  auto k = Bind(Expr::ColumnRef("K"), KeyedSchema()).ValueOrDie();
  auto dur = Bind(Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("T2"),
                               Expr::ColumnRef("T1")),
                  KeyedSchema())
                 .ValueOrDie();
  RunCapacityDifferential(
      [&] {
        return std::make_unique<ProjectCursor>(
            KeyedVector(rows), std::vector<ExprPtr>{k, dur}, out);
      },
      want, "PROJECT^M");
}

TEST(CapacityDifferentialTest, SortInMemoryAndSpilled) {
  const auto rows = RandomPeriods(93, 800, 10, 90);
  // K ascending, then T1 descending; ties keep their input order.
  auto want = rows;
  std::stable_sort(want.begin(), want.end(),
                   [](const Tuple& a, const Tuple& b) {
                     if (int c = a[0].Compare(b[0]); c != 0) return c < 0;
                     return a[1] > b[1];
                   });
  const std::vector<SortKey> keys = {{0, true}, {1, false}};
  RunCapacityDifferential(
      [&] { return std::make_unique<SortCursor>(KeyedVector(rows), keys); },
      want, "SORT^M(in-memory)");
  RunCapacityDifferential(
      [&] {
        return std::make_unique<SortCursor>(KeyedVector(rows), keys,
                                            /*memory_budget_bytes=*/4096);
      },
      want, "SORT^M(spilled)");
  SortCursor spilled(KeyedVector(rows), keys, /*memory_budget_bytes=*/4096);
  ASSERT_TRUE(MaterializeAll(&spilled).ok());
  EXPECT_GT(spilled.spilled_runs(), 1u);
}

// ---------------------------------------------------------------------------
// SORT^M's normalized keys: each key becomes a 64-bit word (lossy for string
// prefixes and for ints beyond 2^53 beside doubles), then the input position
// breaks ties. The oracle is std::stable_sort with TupleComparator, over
// values on which Value::Compare is an order. Every row carries a distinct
// ID, so a tie emitted out of input order (1 before 1.0, say) fails.

Schema SortKeySchema() {
  return Schema({{"", "I", DataType::kInt},
                 {"", "N", DataType::kDouble},
                 {"", "S", DataType::kString},
                 {"", "M", DataType::kString},
                 {"", "ID", DataType::kInt}});
}

/// Rows drawn from small pools, so every key has many duplicates and every
/// pool value occurs in memory and in spilled runs alike.
std::vector<Tuple> SortKeyRows(uint64_t seed, size_t n) {
  constexpr int64_t k2To53 = int64_t{1} << 53;
  const std::vector<Value> ints = {
      Value::Null(), Value(int64_t{-7}), Value(int64_t{-1}), Value(int64_t{0}),
      Value(int64_t{3}), Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max())};
  // Ints mixed with doubles: 1 ties 1.0 and -0.0 ties 0; 2^53 and 2^53 + 1
  // share a double image, so only the values tell them apart.
  const std::vector<Value> numbers = {
      Value::Null(),      Value(int64_t{1}),       Value(1.0),
      Value(2.5),         Value(int64_t{-3}),      Value(-0.0),
      Value(int64_t{0}),  Value(k2To53),           Value(k2To53 + 1),
      Value(-k2To53 - 1), Value(1e300),            Value(-2.25)};
  const std::vector<Value> strings = {
      Value::Null(),         Value(""),
      Value("abcdefgh"),     Value("abcdefgh1"),
      Value("abcdefgh2"),    Value("abcdefghA"),
      Value("abc"),          Value("abc\x80"),
      Value("abc\xff"),      Value("abcdefg\xff"),
      Value("ABC"),          Value("abcdefgh\x80z")};
  const std::vector<Value> mixed = {
      Value::Null(), Value(int64_t{5}), Value(2.5),    Value(int64_t{-1}),
      Value("x"),    Value(""),         Value("5"),    Value(5.0),
      Value("abcdefghij")};
  Rng rng(seed);
  const auto pick = [&rng](const std::vector<Value>& pool) {
    return pool[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({pick(ints), pick(numbers), pick(strings), pick(mixed),
                    Value(static_cast<int64_t>(i))});
  }
  return rows;
}

TEST(CapacityDifferentialTest, SortNormalizedKeys) {
  const std::vector<std::vector<SortKey>> key_sets = {
      {{0, true}},
      {{0, false}},
      {{1, true}},
      {{1, false}, {0, true}},
      {{2, true}},
      {{2, false}, {0, false}},
      {{3, true}},
      {{3, false}, {1, true}, {2, true}, {0, false}},
      {{2, true}, {3, true}, {1, false}},
  };
  const auto rows = SortKeyRows(95, 700);
  const auto make = [&rows](const std::vector<SortKey>& keys, size_t budget) {
    return std::make_unique<SortCursor>(
        std::make_unique<VectorCursor>(SortKeySchema(), rows), keys, budget);
  };
  for (const std::vector<SortKey>& keys : key_sets) {
    std::string label = "keys";
    for (const SortKey& k : keys) {
      label += ' ';
      label += std::to_string(k.column);
      label += k.ascending ? '+' : '-';
    }
    auto want = rows;
    std::stable_sort(want.begin(), want.end(), TupleComparator(keys));
    RunCapacityDifferential(
        [&] { return make(keys, SortCursor::kDefaultMemoryBudgetBytes); },
        want, "SORT^M(in-memory) " + label);
    RunCapacityDifferential([&] { return make(keys, 4096); }, want,
                            "SORT^M(spilled) " + label);
    auto spilled = make(keys, 4096);
    ASSERT_TRUE(MaterializeAll(spilled.get()).ok());
    EXPECT_GT(spilled->spilled_runs(), 1u) << label;
  }
}

TEST(SortCursorTest, NaNSortsAboveInfinityInInputOrder) {
  // NaN sorts above +infinity (below it descending), NaNs in input order,
  // in memory and spilled alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> input = {nan, 1.0, -inf, nan, inf, 0.5, -nan, 2.0};
  Schema schema({{"", "D", DataType::kDouble}, {"", "ID", DataType::kInt}});
  std::vector<Tuple> rows;
  for (size_t i = 0; i < input.size(); ++i) {
    rows.push_back({Value(input[i]), Value(static_cast<int64_t>(i))});
  }
  rows.push_back({Value::Null(), Value(int64_t{8})});
  const auto ids = [&](bool ascending, size_t budget) {
    SortCursor sort(std::make_unique<VectorCursor>(schema, rows),
                    {{0, ascending}}, budget);
    auto sorted = MaterializeAll(&sort);
    EXPECT_TRUE(sorted.ok());
    EXPECT_EQ(sort.spilled_runs() > 1,
              budget < SortCursor::kDefaultMemoryBudgetBytes);
    std::vector<int64_t> out;
    for (const Tuple& t : sorted.ValueOrDie()) out.push_back(t[1].AsInt());
    return out;
  };
  // Spilled, the runs are merged by Value::Compare, ties by run index.
  for (const size_t budget : {SortCursor::kDefaultMemoryBudgetBytes,
                              size_t{16}}) {
    EXPECT_EQ(ids(true, budget),
              (std::vector<int64_t>{8, 2, 5, 1, 7, 4, 0, 3, 6}))
        << budget;
    EXPECT_EQ(ids(false, budget),
              (std::vector<int64_t>{0, 3, 6, 4, 7, 1, 5, 2, 8}))
        << budget;
  }
}

TEST(CapacityDifferentialTest, DupElim) {
  const auto sorted = SortedWithDuplicates(RandomPeriods(94, 300, 5, 60));
  auto want = sorted;
  want.erase(std::unique(want.begin(), want.end(), RowEqual), want.end());
  ASSERT_LT(want.size(), sorted.size());
  RunCapacityDifferential(
      [&] { return std::make_unique<DupElimCursor>(KeyedVector(sorted)); },
      want, "DUPELIM^M");
}

TEST(CapacityDifferentialTest, Difference) {
  // Multiset difference: each right row cancels one equal left row, which
  // is std::set_difference on sorted ranges.
  const auto left = SortedWithDuplicates(RandomPeriods(95, 300, 5, 60));
  std::vector<Tuple> right;
  for (size_t i = 0; i < left.size(); i += 2) right.push_back(left[i]);
  std::vector<Tuple> want;
  std::set_difference(left.begin(), left.end(), right.begin(), right.end(),
                      std::back_inserter(want), RowLess);
  ASSERT_FALSE(want.empty());
  RunCapacityDifferential(
      [&] {
        return std::make_unique<DifferenceCursor>(KeyedVector(left),
                                                  KeyedVector(right));
      },
      want, "DIFF^M");
}

TEST(CapacityDifferentialTest, Coalesce) {
  // Oracle: the days each key covers, cut into maximal runs.
  const auto sorted = SortedForCoalesce(RandomPeriods(96, 300, 5, 60));
  std::map<int64_t, std::set<int64_t>> days;
  for (const Tuple& t : sorted) {
    for (int64_t d = t[1].AsInt(); d < t[2].AsInt(); ++d) {
      days[t[0].AsInt()].insert(d);
    }
  }
  std::vector<Tuple> want;
  for (const auto& [key, covered] : days) {
    for (auto it = covered.begin(); it != covered.end();) {
      const int64_t start = *it;
      int64_t end = start;
      while (it != covered.end() && *it == end) {
        ++it;
        ++end;
      }
      want.push_back({Value(key), Value(start), Value(end)});
    }
  }
  RunCapacityDifferential(
      [&] {
        return std::make_unique<CoalesceCursor>(KeyedVector(sorted), 1, 2);
      },
      want, "COALESCE^M");
}

/// Nested-loop join oracle on K: for each left row in order, each right row
/// in order whose K equals it (NULL never joins), through `pair`.
template <typename Pair>
std::vector<Tuple> NestedLoopOnK(const std::vector<Tuple>& left,
                                 const std::vector<Tuple>& right, Pair pair) {
  std::vector<Tuple> out;
  Tuple joined;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      if (l[0].is_null() || l[0].Compare(r[0]) != 0) continue;
      if (pair(l, r, &joined)) out.push_back(joined);
    }
  }
  return out;
}

TEST(CapacityDifferentialTest, MergeJoin) {
  const auto left = SortedForCoalesce(RandomPeriods(97, 250, 6, 70));
  const auto right = SortedForCoalesce(RandomPeriods(98, 200, 6, 70));
  const auto concat = [](const Tuple& l, const Tuple& r, Tuple* out) {
    *out = l;
    out->insert(out->end(), r.begin(), r.end());
    return true;
  };
  RunCapacityDifferential(
      [&] {
        return std::make_unique<MergeJoinCursor>(KeyedVector(left),
                                                 KeyedVector(right),
                                                 std::vector<size_t>{0},
                                                 std::vector<size_t>{0});
      },
      NestedLoopOnK(left, right, concat), "MERGEJOIN^M");

  // Residual L.T1 < R.T1, bound to the output schema (left 0-2, right 3-5).
  const ExprPtr residual = Expr::Binary(BinaryOp::kLt, Expr::BoundColumn(1),
                                        Expr::BoundColumn(4));
  const auto want = NestedLoopOnK(
      left, right, [&](const Tuple& l, const Tuple& r, Tuple* out) {
        return l[1].AsInt() < r[1].AsInt() && concat(l, r, out);
      });
  ASSERT_FALSE(want.empty());
  RunCapacityDifferential(
      [&] {
        return std::make_unique<MergeJoinCursor>(
            KeyedVector(left), KeyedVector(right), std::vector<size_t>{0},
            std::vector<size_t>{0}, residual);
      },
      want, "MERGEJOIN^M(residual)");
}

TEST(CapacityDifferentialTest, TemporalJoin) {
  const auto left = SortedForCoalesce(RandomPeriods(99, 250, 6, 70));
  const auto right = SortedForCoalesce(RandomPeriods(100, 200, 6, 70));
  // Overlapping pairs, with the intersection of the two periods.
  const auto want = NestedLoopOnK(
      left, right, [](const Tuple& l, const Tuple& r, Tuple* out) {
        const int64_t t1 = std::max(l[1].AsInt(), r[1].AsInt());
        const int64_t t2 = std::min(l[2].AsInt(), r[2].AsInt());
        if (t1 >= t2) return false;
        *out = {l[0], Value(t1), Value(t2)};
        return true;
      });
  ASSERT_FALSE(want.empty());
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt}});
  RunCapacityDifferential(
      [&] {
        return std::make_unique<TemporalJoinCursor>(
            KeyedVector(left), KeyedVector(right), std::vector<size_t>{0},
            std::vector<size_t>{0}, 1, 2, 1, 2,
            /*left_out=*/std::vector<size_t>{0},
            /*right_out=*/std::vector<size_t>{}, out);
      },
      want, "TJOIN^M");
}

TEST(CapacityDifferentialTest, TemporalAggregation) {
  // Oracle: per key, every span between consecutive distinct period
  // endpoints that some row covers, with COUNT(*) and MAX(T1) over the
  // rows covering it.
  const auto rows = SortedForCoalesce(RandomPeriods(101, 350, 4, 80));
  std::map<int64_t, std::vector<const Tuple*>> groups;
  for (const Tuple& t : rows) groups[t[0].AsInt()].push_back(&t);
  std::vector<Tuple> want;
  for (const auto& [key, members] : groups) {
    std::set<int64_t> points;
    for (const Tuple* t : members) {
      points.insert((*t)[1].AsInt());
      points.insert((*t)[2].AsInt());
    }
    for (auto a = points.begin(); std::next(a) != points.end(); ++a) {
      const int64_t b = *std::next(a);
      int64_t count = 0;
      int64_t max_t1 = 0;
      for (const Tuple* t : members) {
        if ((*t)[1].AsInt() <= *a && (*t)[2].AsInt() >= b) {
          ++count;
          max_t1 = std::max(max_t1, (*t)[1].AsInt());
        }
      }
      if (count > 0) {
        want.push_back({Value(key), Value(*a), Value(b), Value(count),
                        Value(max_t1)});
      }
    }
  }
  Schema out({{"", "K", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt},
              {"", "MX", DataType::kInt}});
  RunCapacityDifferential(
      [&] {
        return std::make_unique<TemporalAggregationCursor>(
            KeyedVector(rows), std::vector<size_t>{0}, 1, 2,
            std::vector<TAggrSpec>{{AggFunc::kCount, 0, true},
                                   {AggFunc::kMax, 1, false}},
            out);
      },
      want, "TAGGR^M");
}

// ---------------------------------------------------------------------------
// Restart invariant: a TRANSFER^M whose remote cursor is killed mid-drain
// re-issues its SELECT and skips the whole wire blocks already delivered.
// Drained at any batch capacity, with the kill landing in the first wire
// batch, early, mid-stream and late, the delivered sequence must equal a
// clean drain row for row — the skip offset stays block-aligned, so no row
// is duplicated or lost. The same holds for a statement marked shared,
// whose rows are materialized into the transfer cache during Init.

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
    ASSERT_TRUE(Drain(&c, capacity, &clean).ok());
    ASSERT_EQ(clean.size(), kRows);
  }

  auto injector = std::make_shared<dbms::FaultInjector>();
  conn.set_fault_injector(injector);
  // Wire batches are 16 rows, so 2,500 rows take 157 of them: the kill
  // lands in the first batch, early, mid-stream and near the tail.
  for (const bool shared : {false, true}) {
    for (const uint64_t fault_batch : {0, 10, 70, 150}) {
      const std::string what = std::string(shared ? "shared" : "streamed") +
                               " capacity=" + std::to_string(capacity) +
                               " fault_batch=" + std::to_string(fault_batch);
      dbms::FaultPlan plan;
      plan.kind = dbms::FaultKind::kCursorKill;
      plan.batch_index = fault_batch;
      plan.times = 1;
      injector->Arm(plan);
      const uint64_t fired_before = injector->faults_fired();

      std::shared_ptr<TransferCache> cache;
      if (shared) {
        cache = std::make_shared<TransferCache>();
        cache->MarkShared(sql);
      }
      RecoveryCounters counters;
      TransferMCursor c(&conn, sql, schema, {}, cache, nullptr, RetryPolicy(),
                        &counters);
      std::vector<Tuple> delivered;
      const Status status = Drain(&c, capacity, &delivered);
      ASSERT_TRUE(status.ok()) << what << ": " << status.ToString();
      EXPECT_EQ(injector->faults_fired() - fired_before, 1u) << what;
      EXPECT_GE(counters.tm_retries.load(), 1u) << what;
      ExpectSameRows(clean, delivered, what + " restarted drain");
      if (shared) {
        const auto cached = cache->Get(sql);
        ASSERT_NE(cached, nullptr) << what;
        ExpectSameRows(clean, *cached, what + " cached rows");
      }
      injector->Disarm();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchCapacities, TransferRestartPropertyTest,
                         ::testing::Values(1, 2, 7, 1024));

TEST(VectorCursorTest, ReplaysAfterDrain) {
  const auto rows = RandomPeriods(102, 50, 4, 40);
  VectorCursor cursor(KeyedSchema(), rows);
  for (const size_t capacity : {size_t{7}, RowBlock::kDefaultCapacity}) {
    std::vector<Tuple> got;
    ASSERT_TRUE(Drain(&cursor, capacity, &got).ok());
    ExpectSameRows(rows, got, "VectorCursor @capacity=" +
                                  std::to_string(capacity));
  }
}

}  // namespace
}  // namespace exec
}  // namespace tango
