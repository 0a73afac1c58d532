// Direct unit tests for the DBMS physical operators (the engine-level SQL
// tests cover them end to end; these pin the edge cases), plus two
// differential suites: the filtered table scan (pushed conjuncts evaluated
// on encoded rows) against a decode-everything oracle, and the four joins
// (residual tested before the output row is built) against a nested-loop
// oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <set>

#include "dbms/catalog.h"
#include "dbms/engine.h"
#include "dbms/exec_ops.h"
#include "exec/basic.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "sql/parser.h"

// Counts every global operator new in this binary, so a test can pin the
// filtered scan's and the joins' promise that a rejected row or candidate
// costs no heap allocation.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc with a free.
// The nothrow form is replaced too (std::stable_sort's temporary buffer
// uses it and frees through the plain delete), so every allocation and
// release here goes through malloc and free.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tango {
namespace dbms {
namespace {

Schema KvSchema() {
  return Schema({{"", "K", DataType::kInt}, {"", "V", DataType::kInt}});
}

std::unique_ptr<Table> MakeTable(const std::vector<Tuple>& rows) {
  auto table = std::make_unique<Table>("T", KvSchema());
  for (const Tuple& t : rows) EXPECT_TRUE(table->Append(t).ok());
  return table;
}

std::vector<Tuple> Kv(std::initializer_list<std::pair<int64_t, int64_t>> kv) {
  std::vector<Tuple> rows;
  for (const auto& [k, v] : kv) rows.push_back({Value(k), Value(v)});
  return rows;
}

TEST(IndexScanOpTest, BoundInclusivityMatrix) {
  auto table = MakeTable(Kv({{1, 10}, {2, 20}, {2, 21}, {3, 30}, {5, 50}}));
  ASSERT_TRUE(table->CreateIndex(0).ok());

  struct Case {
    std::optional<Value> lo, hi;
    bool lo_inc, hi_inc;
    size_t expected;
  };
  const Case cases[] = {
      {Value(int64_t{2}), Value(int64_t{3}), true, true, 3},
      {Value(int64_t{2}), Value(int64_t{3}), false, true, 1},
      {Value(int64_t{2}), Value(int64_t{3}), true, false, 2},
      {Value(int64_t{2}), Value(int64_t{3}), false, false, 0},
      {std::nullopt, Value(int64_t{2}), true, true, 3},
      {Value(int64_t{3}), std::nullopt, true, true, 2},
      {std::nullopt, std::nullopt, true, true, 5},
      {Value(int64_t{9}), std::nullopt, true, true, 0},
  };
  for (const Case& c : cases) {
    IndexScanOp scan(table.get(), 0, "", c.lo, c.lo_inc, c.hi, c.hi_inc, {},
                     AllColumns(KvSchema()));
    auto rows = MaterializeAll(&scan);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.ValueOrDie().size(), c.expected)
        << (c.lo ? c.lo->ToString() : "-inf") << (c.lo_inc ? "[" : "(") << ".."
        << (c.hi ? c.hi->ToString() : "+inf") << (c.hi_inc ? "]" : ")");
  }
}

// The DBMS planner's forced merge join is the middleware's MergeJoinCursor,
// and its sorts are SortCursor; these pin them on the DBMS's inputs.

TEST(MergeJoinCursorTest, DuplicateRunsOnBothSides) {
  auto left = std::make_unique<VectorCursor>(
      KvSchema().WithQualifier("L"), Kv({{1, 1}, {1, 2}, {2, 3}, {4, 4}}));
  auto right = std::make_unique<VectorCursor>(
      KvSchema().WithQualifier("R"),
      Kv({{1, 5}, {1, 6}, {1, 7}, {3, 8}, {4, 9}}));
  exec::MergeJoinCursor join(std::move(left), std::move(right), {0}, {0});
  auto rows = MaterializeAll(&join);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // key 1: 2x3 = 6; key 4: 1 -> 7 pairs.
  EXPECT_EQ(rows.ValueOrDie().size(), 7u);
}

TEST(MergeJoinCursorTest, ResidualOnConcatenatedTuple) {
  auto left = std::make_unique<VectorCursor>(KvSchema().WithQualifier("L"),
                                             Kv({{1, 1}, {1, 9}}));
  auto right = std::make_unique<VectorCursor>(KvSchema().WithQualifier("R"),
                                              Kv({{1, 2}, {1, 8}}));
  // Residual: L.V < R.V — positions 1 and 3 of the concatenated tuple.
  auto residual = Expr::Binary(BinaryOp::kLt, Expr::BoundColumn(1),
                               Expr::BoundColumn(3));
  exec::MergeJoinCursor join(std::move(left), std::move(right), {0}, {0},
                             residual);
  auto rows = MaterializeAll(&join);
  ASSERT_TRUE(rows.ok());
  // Pairs: (1,2)no wait (V pairs): (1,2)y (1,8)y (9,2)n (9,8)n -> 2.
  EXPECT_EQ(rows.ValueOrDie().size(), 2u);
}

TEST(HashJoinOpTest, NullKeysNeverMatchAndBuildSideEmpty) {
  {
    std::vector<Tuple> l = {{Value::Null(), Value(int64_t{1})},
                            {Value(int64_t{1}), Value(int64_t{2})}};
    std::vector<Tuple> r = {{Value::Null(), Value(int64_t{3})},
                            {Value(int64_t{1}), Value(int64_t{4})}};
    HashJoinOp join(
        std::make_unique<VectorCursor>(KvSchema().WithQualifier("L"), l),
        std::make_unique<VectorCursor>(KvSchema().WithQualifier("R"), r), {0},
        {0}, nullptr);
    auto rows = MaterializeAll(&join);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.ValueOrDie().size(), 1u);
  }
  {
    HashJoinOp join(std::make_unique<VectorCursor>(
                        KvSchema().WithQualifier("L"), std::vector<Tuple>{}),
                    std::make_unique<VectorCursor>(
                        KvSchema().WithQualifier("R"), Kv({{1, 1}})),
                    {0}, {0}, nullptr);
    auto rows = MaterializeAll(&join);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows.ValueOrDie().empty());
  }
}

TEST(GroupAggOpTest, PendingGroupBoundaries) {
  // Three groups of different sizes; sorted input.
  auto child = std::make_unique<VectorCursor>(
      KvSchema(), Kv({{1, 10}, {1, 20}, {2, 5}, {3, 1}, {3, 2}, {3, 3}}));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "C"});
  aggs.push_back({AggFunc::kSum, Expr::BoundColumn(1), "S"});
  GroupAggOp agg(std::move(child), {0}, aggs);
  auto rows = MaterializeAll(&agg);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const auto& out = rows.ValueOrDie();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][1].AsInt(), 2);   // count
  EXPECT_EQ(out[0][2].AsInt(), 30);  // sum
  EXPECT_EQ(out[1][2].AsInt(), 5);
  EXPECT_EQ(out[2][1].AsInt(), 3);
  EXPECT_EQ(out[2][2].AsInt(), 6);
}

TEST(GroupAggOpTest, MinMaxOverStrings) {
  Schema schema({{"", "G", DataType::kInt}, {"", "S", DataType::kString}});
  std::vector<Tuple> rows = {{Value(int64_t{1}), Value("beta")},
                             {Value(int64_t{1}), Value("alpha")},
                             {Value(int64_t{1}), Value("gamma")}};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kMin, Expr::BoundColumn(1), "MN"});
  aggs.push_back({AggFunc::kMax, Expr::BoundColumn(1), "MX"});
  GroupAggOp agg(std::make_unique<VectorCursor>(schema, rows), {0}, aggs);
  auto out = MaterializeAll(&agg).ValueOrDie();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1].AsString(), "alpha");
  EXPECT_EQ(out[0][2].AsString(), "gamma");
}

// DISTINCT and UNION deduplicate through exec::DupElimCursor.
TEST(DupElimCursorTest, NullsCompareEqualForDeduplication) {
  Schema schema({{"", "X", DataType::kInt}});
  std::vector<Tuple> rows = {{Value::Null()}, {Value::Null()},
                             {Value(int64_t{1})}};
  exec::DupElimCursor dedup(std::make_unique<VectorCursor>(schema, rows));
  auto out = MaterializeAll(&dedup).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
}

TEST(NestedLoopJoinOpTest, EmptySidesAndNullPredicate) {
  auto mk = [](std::vector<Tuple> rows) {
    return std::make_unique<VectorCursor>(KvSchema(), std::move(rows));
  };
  {
    NestedLoopJoinOp join(mk(Kv({{1, 1}, {2, 2}})), mk(Kv({{3, 3}})), nullptr);
    EXPECT_EQ(MaterializeAll(&join).ValueOrDie().size(), 2u);  // cross product
  }
  {
    NestedLoopJoinOp join(mk({}), mk(Kv({{3, 3}})), nullptr);
    EXPECT_TRUE(MaterializeAll(&join).ValueOrDie().empty());
  }
  {
    NestedLoopJoinOp join(mk(Kv({{1, 1}})), mk({}), nullptr);
    EXPECT_TRUE(MaterializeAll(&join).ValueOrDie().empty());
  }
}

TEST(IndexNestedLoopJoinOpTest, ProbesInnerIndex) {
  auto inner = MakeTable(Kv({{1, 100}, {1, 101}, {2, 200}, {3, 300}}));
  ASSERT_TRUE(inner->CreateIndex(0).ok());
  auto outer = std::make_unique<VectorCursor>(
      KvSchema().WithQualifier("O"), Kv({{1, 1}, {3, 3}, {9, 9}}));
  IndexNestedLoopJoinOp join(std::move(outer), inner.get(), "I", 0, 0,
                             AllColumns(KvSchema()), nullptr);
  auto rows = MaterializeAll(&join);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // key 1 -> two inner rows, key 3 -> one, key 9 -> none.
  EXPECT_EQ(rows.ValueOrDie().size(), 3u);
  // Output schema: outer ++ qualified inner.
  EXPECT_EQ(join.schema().num_columns(), 4u);
  EXPECT_TRUE(join.schema().Contains("I.K"));
}

TEST(SortCursorTest, EveryInitSortsAfresh) {
  // Rows are moved out as they are emitted; reading the result again takes
  // another Init, which materializes and sorts the child again.
  exec::SortCursor sort(std::make_unique<VectorCursor>(
                            KvSchema(), Kv({{3, 1}, {1, 2}, {2, 3}, {1, 4}})),
                        {{0, true}, {1, false}});
  for (int pass = 0; pass < 2; ++pass) {
    auto rows = MaterializeAll(&sort);
    ASSERT_TRUE(rows.ok());
    const std::vector<Tuple> want = Kv({{1, 4}, {1, 2}, {2, 3}, {3, 1}});
    ASSERT_EQ(rows.ValueOrDie().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rows.ValueOrDie()[i][0].AsInt(), want[i][0].AsInt());
      EXPECT_EQ(rows.ValueOrDie()[i][1].AsInt(), want[i][1].AsInt());
    }
  }
}

TEST(IndexScanOpTest, ConjunctsAndNarrowedColumns) {
  auto table = MakeTable(Kv({{1, 10}, {2, 20}, {2, 21}, {3, 30}, {5, 50}}));
  ASSERT_TRUE(table->CreateIndex(0).ok());
  // K in [2, 5], V <> 21; output V only.
  const ExprPtr v_ne = Expr::Binary(BinaryOp::kNe, Expr::BoundColumn(1),
                                    Expr::Int(21));
  IndexScanOp scan(table.get(), 0, "T", Value(int64_t{2}), true,
                   Value(int64_t{5}), true, {v_ne}, {1});
  ASSERT_EQ(scan.schema().num_columns(), 1u);
  EXPECT_TRUE(scan.schema().Contains("T.V"));
  auto rows = MaterializeAll(&scan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<int64_t> got;
  for (const Tuple& t : rows.ValueOrDie()) {
    ASSERT_EQ(t.size(), 1u);
    got.push_back(t[0].AsInt());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{20, 30, 50}));
}

TEST(IndexNestedLoopJoinOpTest, MissingIndexIsAnError) {
  auto inner = MakeTable(Kv({{1, 100}}));
  auto outer = std::make_unique<VectorCursor>(KvSchema().WithQualifier("O"),
                                              Kv({{1, 1}}));
  IndexNestedLoopJoinOp join(std::move(outer), inner.get(), "I", 0, 0,
                             AllColumns(KvSchema()), nullptr);
  EXPECT_FALSE(join.Init().ok());
}

// ------------------------------------------------- filtered TableScanOp

Schema MixedSchema() {
  return Schema({{"", "ID", DataType::kInt},
                 {"", "I", DataType::kInt},
                 {"", "D", DataType::kDouble},
                 {"", "S", DataType::kString},
                 {"", "N", DataType::kInt}});
}

// Seeded rows over every value kind, NULLs in every nullable column (S only
// when `null_strings`), and strings on both sides of the small-string
// boundary.
Tuple MixedRow(int64_t id, std::mt19937_64* rng, bool null_strings) {
  const auto draw = [rng](uint64_t n) { return (*rng)() % n; };
  Tuple t;
  t.push_back(Value(id));
  t.push_back(draw(8) == 0 ? Value::Null() : Value(int64_t(draw(100))));
  t.push_back(draw(8) == 0 ? Value::Null()
                           : Value(static_cast<double>(draw(10000)) / 100.0));
  if (null_strings && draw(8) == 0) {
    t.push_back(Value::Null());
  } else {
    std::string s(draw(31), 'a');
    for (char& c : s) c = static_cast<char>('a' + draw(26));
    t.push_back(Value(std::move(s)));
  }
  t.push_back(draw(6) == 0 ? Value::Null() : Value(int64_t(draw(100))));
  return t;
}

// Fills `table` with `n` rows spanning several pages, then tombstones every
// seventh row and rewrites every eleventh live row with a longer string, so
// its bytes move to the end of its page's data area.
void FillMixed(Table* table, int64_t n, uint64_t seed,
               bool null_strings = true) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<storage::Rid, Tuple>> stored;
  for (int64_t id = 0; id < n; ++id) {
    Tuple t = MixedRow(id, &rng, null_strings);
    auto rid = table->ApplyInsert(t, 0);
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    stored.emplace_back(rid.ValueOrDie(), std::move(t));
  }
  ASSERT_GT(table->file().num_pages(), 2u);
  for (size_t i = 0; i < stored.size(); ++i) {
    const auto& [rid, before] = stored[i];
    if (i % 7 == 3) {
      ASSERT_TRUE(table->ApplyDelete(rid, before, 0).ok());
    } else if (i % 11 == 5) {
      Tuple after = before;
      const char fill = static_cast<char>('a' + i % 26);
      after[3] = Value(std::string(60 + i % 5, fill));
      ASSERT_TRUE(table->ApplyUpdate(rid, before, after, 0).ok());
    }
  }
}

// Every predicate shape the scan must agree on: conjuncts that yield NULL,
// OR, NOT, IS [NOT] NULL, arithmetic, GREATEST/LEAST, int-vs-double
// comparisons, division by zero, and constant-false conjuncts.
const char* const kPredicates[] = {
    "",  // no conjuncts: every live row
    "I > 50",
    "I > 20 AND D < 40.5",
    "S = 'abc' OR I < 10",
    "NOT (I = 3) AND S IS NULL",
    "N IS NOT NULL AND I + N > 100",
    "I * 2 - D >= 7",
    "GREATEST(I, N) < 60 AND LEAST(D, I) > 5",
    "I = 5.0 OR D > I",
    "1 = 0",
    "ID >= 0 AND 1 = 0",
    "I / N > 1",
    "ID < 600 AND S > 'm' AND NOT (N < 30)",
    "S >= 'a' AND S < 'c' AND D IS NOT NULL AND -I < -40",
    "N < 50 AND N > 10 AND I IS NULL OR ID = 7",
};

std::vector<ExprPtr> BoundConjuncts(const std::string& where,
                                    const Schema& schema) {
  std::vector<ExprPtr> out;
  if (where.empty()) return out;
  auto stmt = sql::Parser::ParseSelect("SELECT * FROM T WHERE " + where);
  EXPECT_TRUE(stmt.ok()) << where;
  if (!stmt.ok()) return out;
  for (const ExprPtr& c : SplitConjuncts(stmt.ValueOrDie()->where)) {
    auto bound = Bind(c, schema);
    EXPECT_TRUE(bound.ok()) << c->ToString();
    if (bound.ok()) out.push_back(bound.ValueOrDie());
  }
  return out;
}

// The oracle: decode every live row and evaluate the AND of the conjuncts.
std::vector<std::pair<storage::Rid, Tuple>> OracleScan(
    const Table& table, const std::vector<ExprPtr>& conjuncts) {
  const ExprPtr predicate = Expr::AndAll(conjuncts);
  std::vector<std::pair<storage::Rid, Tuple>> out;
  auto it = table.file().Scan();
  Tuple t;
  storage::Rid rid;
  while (it.Next(&t, &rid)) {
    if (predicate == nullptr || EvalPredicate(*predicate, t)) {
      out.emplace_back(rid, t);
    }
  }
  return out;
}

bool SameValue(const Value& a, const Value& b) {
  return a.is_null() == b.is_null() && a.is_int() == b.is_int() &&
         a.is_double() == b.is_double() && a.is_string() == b.is_string() &&
         a.Compare(b) == 0;
}

void ExpectSameRows(const std::vector<Tuple>& got,
                    const std::vector<std::pair<storage::Rid, Tuple>>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].second.size()) << label << " row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_TRUE(SameValue(got[r][c], want[r].second[c]))
          << label << " row " << r << " col " << c << ": "
          << got[r][c].ToString() << " vs " << want[r].second[c].ToString();
    }
  }
}

TEST(TableScanOpTest, PushedConjunctsMatchDecodeEverythingOracle) {
  Table table("T", MixedSchema());
  FillMixed(&table, 900, 0x5CA9);
  const Schema qualified = MixedSchema().WithQualifier("T");
  for (const char* where : kPredicates) {
    const std::vector<ExprPtr> conjuncts = BoundConjuncts(where, qualified);
    const auto want = OracleScan(table, conjuncts);

    // Row at a time, with the record ids UPDATE's collect pass relies on.
    {
      TableScanOp scan(&table, "T", conjuncts, AllColumns(qualified));
      ASSERT_TRUE(scan.Init().ok());
      std::vector<Tuple> got;
      std::vector<storage::Rid> rids;
      Tuple t;
      storage::Rid rid;
      while (true) {
        auto more = scan.NextWithRid(&t, &rid);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        if (!more.ValueOrDie()) break;
        got.push_back(t);
        rids.push_back(rid);
      }
      ExpectSameRows(got, want, std::string("NextWithRid: ") + where);
      ASSERT_EQ(rids.size(), want.size());
      for (size_t i = 0; i < rids.size(); ++i) {
        EXPECT_TRUE(rids[i] == want[i].first) << where << " row " << i;
      }
    }
    {
      TableScanOp scan(&table, "T", conjuncts, AllColumns(qualified));
      auto rows = MaterializeAll(&scan);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ExpectSameRows(rows.ValueOrDie(), want, std::string("Next: ") + where);
    }
    // Block at a time, at capacities that split pages and conjunct runs
    // every which way.
    for (const size_t capacity : {1, 2, 7, 1024}) {
      TableScanOp scan(&table, "T", conjuncts, AllColumns(qualified));
      ASSERT_TRUE(scan.Init().ok());
      RowBlock block(capacity);
      std::vector<Tuple> got;
      while (true) {
        auto n = scan.NextBatch(&block);
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        if (n.ValueOrDie() == 0) break;
        ASSERT_LE(n.ValueOrDie(), capacity);
        ASSERT_EQ(block.columns(), qualified.num_columns());
        for (size_t r = 0; r < block.rows(); ++r) {
          Tuple row;
          block.CopyRowTo(r, &row);
          got.push_back(std::move(row));
        }
      }
      ExpectSameRows(got, want, std::string("NextBatch(") +
                                    std::to_string(capacity) + "): " + where);
    }
  }
}

TEST(TableScanOpTest, RejectedRowsCostNoHeapAllocation) {
  // Every row is rejected (I never exceeds 99; the string predicate never
  // matches a 40-character literal). Scanning ten times the rows must not
  // allocate more: the scratch row and the offset table are reused, and a
  // decoded string reuses the buffer of the string before it in its
  // column. (A NULL in between releases that buffer, so this table keeps S
  // non-NULL.)
  const auto allocations_for = [](int64_t rows, const char* where) {
    Table table("T", MixedSchema());
    FillMixed(&table, rows, 0xA110C, /*null_strings=*/false);
    const Schema qualified = MixedSchema().WithQualifier("T");
    TableScanOp scan(&table, "T", BoundConjuncts(where, qualified),
                     AllColumns(qualified));
    EXPECT_TRUE(scan.Init().ok());
    RowBlock block(64);
    const uint64_t before = g_allocations.load();
    auto n = scan.NextBatch(&block);
    const uint64_t after = g_allocations.load();
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.ValueOrDie(), 0u);
    return after - before;
  };
  for (const char* where :
       {"I > 1000", "S = 'zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz'",
        "N IS NOT NULL AND D * 2 > 1000000"}) {
    const uint64_t small = allocations_for(300, where);
    const uint64_t large = allocations_for(3000, where);
    EXPECT_LE(large, small + 2) << where;  // a scratch string may grow once
    EXPECT_LE(large, 8u) << where;
  }
}

TEST(TableScanOpTest, UpdateRewritesExactlyTheOracleRows) {
  for (const char* where : kPredicates) {
    Engine engine;
    ASSERT_TRUE(engine
                    .Execute("CREATE TABLE T (ID INT, I INT, D DOUBLE, "
                             "S VARCHAR, N INT)")
                    .ok());
    Table* table = engine.catalog().GetTable("T").ValueOrDie();
    FillMixed(table, 700, 0xD1FF);
    const auto want =
        OracleScan(*table, BoundConjuncts(where, table->schema()));
    std::vector<std::pair<storage::Rid, Tuple>> before;
    {
      auto it = table->file().Scan();
      Tuple t;
      storage::Rid rid;
      while (it.Next(&t, &rid)) before.emplace_back(rid, t);
    }

    std::string update = "UPDATE T SET ID = ID + 100000";
    if (*where != '\0') update += std::string(" WHERE ") + where;
    auto done = engine.Execute(update);
    ASSERT_TRUE(done.ok()) << update << ": " << done.status().ToString();

    std::set<std::pair<uint32_t, uint32_t>> targets;
    for (const auto& [rid, row] : want) targets.insert({rid.page, rid.slot});
    size_t updated = 0;
    for (const auto& [rid, old_row] : before) {
      auto now = table->file().Get(rid);
      ASSERT_TRUE(now.ok());
      const Tuple& row = now.ValueOrDie();
      const bool target = targets.count({rid.page, rid.slot}) != 0;
      EXPECT_EQ(row[0].AsInt(), old_row[0].AsInt() + (target ? 100000 : 0))
          << update << " id " << old_row[0].AsInt();
      for (size_t c = 1; c < row.size(); ++c) {
        EXPECT_TRUE(SameValue(row[c], old_row[c])) << update << " col " << c;
      }
      updated += target ? 1 : 0;
    }
    EXPECT_EQ(updated, want.size()) << update;
  }
}

// ------------------------------------------------ residual-first joins

Schema JoinSchema() {
  return Schema({{"", "K", DataType::kInt},
                 {"", "V", DataType::kInt},
                 {"", "S", DataType::kString}});
}

// Seeded (K, V, S) rows: duplicate keys in [0, keys), and with `nulls` a
// NULL in every column now and then. Strings are past the small-string
// buffer; `unique_strings` makes every string distinct.
std::vector<Tuple> JoinRows(int n, uint64_t seed, int keys, bool nulls,
                            bool unique_strings = false) {
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](uint64_t m) { return rng() % m; };
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.push_back(nulls && draw(9) == 0 ? Value::Null()
                                      : Value(int64_t(draw(keys))));
    t.push_back(nulls && draw(7) == 0 ? Value::Null()
                                      : Value(int64_t(draw(100))));
    if (nulls && draw(6) == 0) {
      t.push_back(Value::Null());
    } else {
      std::string str = "shared-prefix-long-";
      str += unique_strings ? std::to_string(seed) + "-" + std::to_string(i)
                            : std::to_string(draw(4));
      t.push_back(Value(std::move(str)));
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

// Candidates mostly FALSE or NULL, plus the trivial residuals.
const char* const kResiduals[] = {
    "",
    "L.V < R.V",
    "L.V + R.V = 100",
    "L.S = R.S AND L.V > 20",
    "R.V IS NULL OR L.V IS NULL",
    "1 = 0",
    "L.V * 2 > R.V + 150",
};

enum class JoinKind { kHash, kSortMerge, kNestedLoop, kIndexNestedLoop };
const JoinKind kJoinKinds[] = {JoinKind::kHash, JoinKind::kSortMerge,
                               JoinKind::kNestedLoop,
                               JoinKind::kIndexNestedLoop};

const char* JoinName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kHash: return "hash";
    case JoinKind::kSortMerge: return "sort-merge";
    case JoinKind::kNestedLoop: return "nested-loop";
    case JoinKind::kIndexNestedLoop: return "index nested-loop";
  }
  return "?";
}

Schema JoinedSchema() {
  return Schema::Concat(JoinSchema().WithQualifier("L"),
                        JoinSchema().WithQualifier("R"));
}

ExprPtr BoundResidual(const std::string& residual) {
  if (residual.empty()) return nullptr;
  auto stmt =
      sql::Parser::ParseSelect("SELECT * FROM L, R WHERE " + residual);
  EXPECT_TRUE(stmt.ok()) << residual;
  auto bound = Bind(stmt.ValueOrDie()->where, JoinedSchema());
  EXPECT_TRUE(bound.ok()) << residual;
  return bound.ValueOrDie();
}

/// An equi-join on K of `left` with `right` (also stored in `right_table`,
/// indexed on K, for the index nested-loop join).
CursorPtr MakeJoin(JoinKind kind, const std::vector<Tuple>& left,
                   const std::vector<Tuple>& right, const Table* right_table,
                   const ExprPtr& residual) {
  auto l = std::make_unique<VectorCursor>(JoinSchema().WithQualifier("L"),
                                          left);
  auto r = std::make_unique<VectorCursor>(JoinSchema().WithQualifier("R"),
                                          right);
  switch (kind) {
    case JoinKind::kHash:
      return std::make_unique<HashJoinOp>(std::move(l), std::move(r),
                                          std::vector<size_t>{0},
                                          std::vector<size_t>{0}, residual);
    case JoinKind::kSortMerge:
      return std::make_unique<exec::MergeJoinCursor>(
          std::make_unique<exec::SortCursor>(std::move(l),
                                             std::vector<SortKey>{{0}}),
          std::make_unique<exec::SortCursor>(std::move(r),
                                             std::vector<SortKey>{{0}}),
          std::vector<size_t>{0}, std::vector<size_t>{0}, residual);
    case JoinKind::kNestedLoop: {
      // The nested-loop join takes the key equality as part of its
      // predicate.
      ExprPtr keys = Expr::Binary(BinaryOp::kEq, Expr::BoundColumn(0),
                                  Expr::BoundColumn(3));
      return std::make_unique<NestedLoopJoinOp>(
          std::move(l), std::move(r),
          residual == nullptr ? keys : Expr::And(keys, residual));
    }
    case JoinKind::kIndexNestedLoop:
      return std::make_unique<IndexNestedLoopJoinOp>(
          std::move(l), right_table, "R", 0, 0, AllColumns(JoinSchema()),
          residual);
  }
  return nullptr;
}

// The oracle: every (left, right) pair whose keys are equal and non-NULL
// and whose concatenation passes the residual.
std::vector<Tuple> NestedLoopOracle(const std::vector<Tuple>& left,
                                    const std::vector<Tuple>& right,
                                    const ExprPtr& residual) {
  std::vector<Tuple> out;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      if (l[0].is_null() || r[0].is_null() || l[0].Compare(r[0]) != 0) {
        continue;
      }
      Tuple joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      if (residual == nullptr || EvalPredicate(*residual, joined)) {
        out.push_back(std::move(joined));
      }
    }
  }
  return out;
}

bool RowLess(const Tuple& a, const Tuple& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    const int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp < 0;
    if (a[c].is_null() != b[c].is_null()) return a[c].is_null();
  }
  return false;
}

void ExpectSameMultiset(std::vector<Tuple> got, std::vector<Tuple> want,
                        const std::string& label) {
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << label;
    for (size_t c = 0; c < got[r].size(); ++c) {
      ASSERT_TRUE(SameValue(got[r][c], want[r][c]))
          << label << " row " << r << " col " << c << ": "
          << got[r][c].ToString() << " vs " << want[r][c].ToString();
    }
  }
}

std::unique_ptr<Table> IndexedTable(const std::vector<Tuple>& rows) {
  auto table = std::make_unique<Table>("R", JoinSchema());
  for (const Tuple& t : rows) EXPECT_TRUE(table->Append(t).ok());
  EXPECT_TRUE(table->CreateIndex(0).ok());
  return table;
}

TEST(JoinResidualTest, EveryJoinMatchesNestedLoopOracle) {
  const std::vector<Tuple> left = JoinRows(120, 0x1EF7, 9, true);
  const std::vector<Tuple> right = JoinRows(90, 0x2167, 9, true);
  const auto right_table = IndexedTable(right);
  for (const char* text : kResiduals) {
    const ExprPtr residual = BoundResidual(text);
    const std::vector<Tuple> want = NestedLoopOracle(left, right, residual);
    for (const JoinKind kind : kJoinKinds) {
      const std::string label = std::string(JoinName(kind)) + " [" + text + "]";
      for (const size_t capacity : {1, 2, 7, 1024}) {
        CursorPtr join = MakeJoin(kind, left, right, right_table.get(), residual);
        ASSERT_EQ(join->schema().num_columns(), 6u) << label;
        ASSERT_TRUE(join->Init().ok()) << label;
        RowBlock block(capacity);
        std::vector<Tuple> got;
        while (true) {
          auto n = join->NextBatch(&block);
          ASSERT_TRUE(n.ok()) << label << ": " << n.status().ToString();
          if (n.ValueOrDie() == 0) break;
          ASSERT_LE(n.ValueOrDie(), capacity);
          for (size_t r = 0; r < block.rows(); ++r) {
            Tuple row;
            block.CopyRowTo(r, &row);
            got.push_back(std::move(row));
          }
        }
        ExpectSameMultiset(got, want,
                           "NextBatch(" + std::to_string(capacity) + "): " +
                               label);
      }
    }
  }
}

TEST(JoinResidualTest, RejectedCandidatesCostNoHeapAllocation) {
  // Every string is distinct and never NULL, so L.S = R.S rejects every
  // candidate. With one key every pair of rows is a candidate (n * n); with
  // distinct keys only n are. The inputs are otherwise the same, so the two
  // runs may differ by the join's bookkeeping, never by the candidate count.
  // Concatenating before testing cost at least one allocation per
  // candidate.
  constexpr int kRows = 100;
  const auto allocations_for = [](JoinKind kind, int keys) {
    std::vector<Tuple> left = JoinRows(kRows, 0xA11, 1, false, true);
    std::vector<Tuple> right = JoinRows(kRows, 0xB22, 1, false, true);
    for (int i = 0; i < kRows; ++i) {
      left[i][0] = Value(int64_t{keys == 1 ? 0 : i});
      right[i][0] = Value(int64_t{keys == 1 ? 0 : i});
    }
    const auto right_table = IndexedTable(right);
    CursorPtr join = MakeJoin(kind, left, right, right_table.get(),
                              BoundResidual("L.S = R.S AND L.V < R.V"));
    const uint64_t before = g_allocations.load();
    auto rows = MaterializeAll(join.get());
    const uint64_t after = g_allocations.load();
    EXPECT_TRUE(rows.ok());
    EXPECT_TRUE(rows.ValueOrDie().empty());
    return after - before;
  };
  for (const JoinKind kind : kJoinKinds) {
    const uint64_t distinct = allocations_for(kind, kRows);
    const uint64_t one_key = allocations_for(kind, 1);
    EXPECT_LE(one_key, distinct + 64) << JoinName(kind);
    EXPECT_LT(one_key, uint64_t{kRows} * kRows / 10) << JoinName(kind);
  }
}

// ------------------------------------------------ hash join output order

// The hash join's contract, as an oracle: for each probe (right) row in
// order, every build (left) row in order whose keys equal its keys, none of
// them NULL, and whose concatenation passes the residual.
std::vector<Tuple> ProbeOrderOracle(const std::vector<Tuple>& left,
                                    const std::vector<Tuple>& right,
                                    const std::vector<size_t>& left_keys,
                                    const std::vector<size_t>& right_keys,
                                    const ExprPtr& residual) {
  std::vector<Tuple> out;
  for (const Tuple& r : right) {
    for (const Tuple& l : left) {
      bool equal = true;
      for (size_t i = 0; i < left_keys.size() && equal; ++i) {
        const Value& a = l[left_keys[i]];
        const Value& b = r[right_keys[i]];
        equal = !a.is_null() && !b.is_null() && a.Compare(b) == 0;
      }
      if (!equal) continue;
      Tuple joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      if (residual == nullptr || EvalPredicate(*residual, joined)) {
        out.push_back(std::move(joined));
      }
    }
  }
  return out;
}

/// Runs the hash join with and without a residual, drained at capacities
/// 1, 2, 7 and 1,024 and once more after a re-Init, and requires the
/// oracle's exact sequence.
void ExpectProbeOrder(const std::vector<Tuple>& left,
                      const std::vector<Tuple>& right,
                      const std::vector<size_t>& left_keys,
                      const std::vector<size_t>& right_keys,
                      const std::string& label) {
  for (const char* text : {"", "L.V < R.V"}) {
    const ExprPtr residual = BoundResidual(text);
    const std::vector<Tuple> want =
        ProbeOrderOracle(left, right, left_keys, right_keys, residual);
    HashJoinOp join(
        std::make_unique<VectorCursor>(JoinSchema().WithQualifier("L"), left),
        std::make_unique<VectorCursor>(JoinSchema().WithQualifier("R"), right),
        left_keys, right_keys, residual);
    for (const size_t capacity : {1, 2, 7, 1024, 1024}) {
      const std::string cell = label + " [" + text + "] @capacity=" +
                               std::to_string(capacity);
      ASSERT_TRUE(join.Init().ok()) << cell;
      RowBlock block(capacity);
      std::vector<Tuple> got;
      while (true) {
        auto n = join.NextBatch(&block);
        ASSERT_TRUE(n.ok()) << cell << ": " << n.status().ToString();
        if (n.ValueOrDie() == 0) break;
        ASSERT_LE(n.ValueOrDie(), capacity) << cell;
        MoveRowsInto(&block, &got);
      }
      ASSERT_EQ(got.size(), want.size()) << cell;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << cell;
        for (size_t c = 0; c < got[r].size(); ++c) {
          ASSERT_TRUE(SameValue(got[r][c], want[r][c]))
              << cell << " row " << r << " col " << c << ": "
              << got[r][c].ToString() << " vs " << want[r][c].ToString();
        }
      }
    }
  }
}

TEST(HashJoinOpTest, ProbeOrderMatchesNestedLoopOracle) {
  // Duplicate keys on both sides; NULL keys, values and strings on either.
  const std::vector<Tuple> left = JoinRows(150, 0x51, 12, true);
  const std::vector<Tuple> right = JoinRows(130, 0x52, 12, true);
  ExpectProbeOrder(left, right, {0}, {0}, "duplicate and NULL keys");
  ExpectProbeOrder(left, right, {0, 2}, {0, 2}, "two-column keys");
  ExpectProbeOrder(left, right, {2}, {2}, "string keys");
  // 1 joins 1.0 in either direction; x.5 joins nothing.
  std::vector<Tuple> doubles = right;
  for (Tuple& t : doubles) {
    if (!t[0].is_int()) continue;
    const double k = static_cast<double>(t[0].AsInt());
    t[0] = Value(t[0].AsInt() % 4 == 3 ? k + 0.5 : k);
  }
  ExpectProbeOrder(left, doubles, {0}, {0}, "int build, double probe");
  ExpectProbeOrder(doubles, left, {0}, {0}, "double build, int probe");
  ExpectProbeOrder({}, right, {0}, {0}, "empty build side");
  ExpectProbeOrder(left, {}, {0}, {0}, "empty probe side");
}

TEST(HashJoinOpTest, IntsBeyond2To53JoinTheirDoubleImage) {
  // int 2^53+1 equals double 2^53 under Value::Compare (the int's double
  // image), as INT64_MAX equals double 2^63; the hash join must pair them
  // as the nested loop does, from either side.
  const int64_t p53 = int64_t{1} << 53;
  const std::vector<Tuple> ints = {
      {Value(p53 + 1), Value(int64_t{1}), Value("a")},
      {Value(std::numeric_limits<int64_t>::max()), Value(int64_t{2}),
       Value("b")},
      {Value(int64_t{7}), Value(int64_t{3}), Value("c")}};
  const std::vector<Tuple> doubles = {
      {Value(0x1p53), Value(int64_t{50}), Value("x")},
      {Value(0x1p63), Value(int64_t{60}), Value("y")},
      {Value(7.5), Value(int64_t{70}), Value("z")}};
  ASSERT_EQ(ProbeOrderOracle(ints, doubles, {0}, {0}, nullptr).size(), 2u);
  ExpectProbeOrder(ints, doubles, {0}, {0}, "int build, double probe");
  ExpectProbeOrder(doubles, ints, {0}, {0}, "double build, int probe");
}

TEST(HashJoinOpTest, NaNKeysJoinEveryNaNAndNothingElse) {
  // Under Value::Compare every NaN, whatever its sign or payload, equals
  // every other NaN and no other number; the hash join must pair them as
  // the nested loop does, from either side.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double payload_nan =
      std::bit_cast<double>(uint64_t{0x7ff8000000000123});
  const std::vector<Tuple> left = {
      {Value(nan), Value(int64_t{1}), Value("a")},
      {Value(5.0), Value(int64_t{2}), Value("b")},
      {Value(-nan), Value(int64_t{3}), Value("c")},
      {Value(std::numeric_limits<double>::infinity()), Value(int64_t{4}),
       Value("d")}};
  const std::vector<Tuple> right = {
      {Value(payload_nan), Value(int64_t{10}), Value("x")},
      {Value(int64_t{5}), Value(int64_t{20}), Value("y")},
      {Value(nan), Value(int64_t{0}), Value("z")}};
  // Two NaNs a side pair four ways; 5.0 meets the int 5.
  ASSERT_EQ(ProbeOrderOracle(left, right, {0}, {0}, nullptr).size(), 5u);
  ExpectProbeOrder(left, right, {0}, {0}, "NaN keys");
  ExpectProbeOrder(right, left, {0}, {0}, "NaN keys, sides swapped");
}

TEST(HashJoinOpTest, ManyDistinctBuildKeys) {
  // 12,000 distinct build keys, probed by hits, misses and repeats.
  std::vector<Tuple> left;
  for (int64_t i = 0; i < 12000; ++i) {
    std::string s = "s";
    s += std::to_string(i % 7);
    left.push_back({Value(i * 3), Value(i % 100), Value(std::move(s))});
  }
  std::vector<Tuple> right;
  for (int64_t i = 0; i < 1000; ++i) {
    right.push_back({Value((i * 97) % 40000), Value(i % 100), Value("s")});
  }
  ExpectProbeOrder(left, right, {0}, {0}, "12,000 distinct build keys");
}

}  // namespace
}  // namespace dbms
}  // namespace tango
