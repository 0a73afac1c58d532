// E8: operator micro-benchmarks (google-benchmark).
//
// * the middleware's block algorithms, each drained through one reused
//   block so that the operator, not a Tuple per output row, is timed:
//   TAGGR^M vs the TAGGR^D SQL shape (the asymmetry behind Figure 8),
//   TJOIN^M on Q3's shape (an int key, a short name on each side, int
//   periods), MERGEJOIN^M, and PROJECT over three int columns, moving the
//   columns or computing one item. scripts/check.sh's Release leg prints
//   these once, ungated (`--benchmark_filter='BM_TAggrMiddleware|
//   BM_TJoinMiddleware|BM_MergeJoinMiddleware|BM_ProjectColumns'`);
// * TRANSFER^M at different row-prefetch settings (§3.2 observes that the
//   JDBC row-prefetch affects transfer performance);
// * direct-path bulk load vs row-at-a-time INSERTs (§3.2's SQL*Loader
//   discussion);
// * middleware external sort: in-memory vs spilling runs;
// * merge join vs the DBMS's hash/merge joins;
// * the DBMS's ORDER BY over full-scale POSITION (Q1's and Q2's SORT^D) and
//   Q4's hash join, each beside the scans it reads, so the operator's own
//   cost is the difference;
// * the wire codec every transferred byte runs through on both hops (the
//   TRANSFER^M link and the client socket): Crc32 with each kernel on
//   1 MiB, and PutRowBlock / GetRowBlock on a 1,024-row block of four ints
//   (Q1's result) and one of an int, two names and two ints (Q3's), each
//   in MB/s (bytes_per_second). scripts/check.sh's Release leg runs these
//   once (`--benchmark_filter='BM_Crc32|BM_PutRowBlock|BM_GetRowBlock'`),
//   ungated, so every log carries the codec ledger.

#include <benchmark/benchmark.h>

#include "common/date.h"
#include "common/rng.h"
#include "common/wire.h"
#include "dbms/connection.h"
#include "exec/basic.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "exec/taggr.h"
#include "workload/uis.h"

namespace tango {
namespace {

Schema ProbeSchema() {
  return Schema({{"", "G", DataType::kInt},
                 {"", "V", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

std::vector<Tuple> ProbeRows(size_t n, int64_t groups) {
  Rng rng(11);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(0, 3000);
    rows.push_back({Value(rng.Uniform(0, groups - 1)), Value(rng.Uniform(0, 99)),
                    Value(t1), Value(t1 + rng.Uniform(1, 300))});
  }
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    if (int c = a[0].Compare(b[0]); c != 0) return c < 0;
    return a[2] < b[2];
  });
  return rows;
}

/// Inits `cursor` and drains it through one reused block; returns the rows.
size_t Drain(Cursor* cursor) {
  if (!cursor->Init().ok()) return 0;
  RowBlock block;
  size_t rows = 0;
  while (true) {
    auto n = cursor->NextBatch(&block);
    if (!n.ok() || n.ValueOrDie() == 0) return rows;
    rows += n.ValueOrDie();
  }
}

/// A DBMS preloaded with the probe relation (shared across iterations).
struct ProbeDb {
  dbms::Engine db;
  explicit ProbeDb(size_t n) {
    (void)db.Execute("CREATE TABLE PROBE (G INT, V INT, T1 INT, T2 INT)");
    (void)db.BulkLoad("PROBE", ProbeRows(n, 256));
    (void)db.Execute("ANALYZE PROBE");
  }
};

void BM_TAggrMiddleware(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto rows = ProbeRows(n, 256);
  Schema out({{"", "G", DataType::kInt},
              {"", "T1", DataType::kInt},
              {"", "T2", DataType::kInt},
              {"", "C", DataType::kInt}});
  for (auto _ : state) {
    exec::TemporalAggregationCursor agg(
        std::make_unique<VectorCursor>(ProbeSchema(), rows), {0}, 2, 3,
        {{AggFunc::kCount, 0, false}}, out);
    benchmark::DoNotOptimize(Drain(&agg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_TAggrMiddleware)->Arg(4096)->Arg(16384)->Arg(65536);

void BM_TAggrDbmsSql(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ProbeDb probe(n);
  const char* q =
      "SELECT R.G AS G, P.T1 AS T1, P.T2 AS T2, COUNT(*) AS C "
      "FROM PROBE R, "
      " (SELECT A.G AS G, A.T AS T1, MIN(B.T) AS T2 "
      "  FROM (SELECT G, T1 AS T FROM PROBE UNION SELECT G, T2 AS T FROM PROBE) A, "
      "       (SELECT G, T1 AS T FROM PROBE UNION SELECT G, T2 AS T FROM PROBE) B "
      "  WHERE A.G = B.G AND A.T < B.T GROUP BY A.G, A.T) P "
      "WHERE R.G = P.G AND R.T1 <= P.T1 AND P.T2 <= R.T2 "
      "GROUP BY R.G, P.T1, P.T2";
  for (auto _ : state) {
    auto result = probe.db.Execute(q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_TAggrDbmsSql)->Arg(4096)->Arg(16384);

void BM_TransferRowPrefetch(benchmark::State& state) {
  static ProbeDb probe(32768);
  dbms::WireConfig wire;
  wire.row_prefetch = static_cast<size_t>(state.range(0));
  dbms::Connection conn(&probe.db, wire);
  for (auto _ : state) {
    auto cur = conn.ExecuteQuery("SELECT G, V, T1, T2 FROM PROBE");
    auto rows = MaterializeAll(cur.ValueOrDie().get());
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(32768 * state.iterations());
}
BENCHMARK(BM_TransferRowPrefetch)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_BulkLoadVsInsert(benchmark::State& state) {
  const bool bulk = state.range(0) == 1;
  const size_t n = 2048;
  auto rows = ProbeRows(n, 64);
  dbms::Engine db;
  dbms::WireConfig wire;
  dbms::Connection conn(&db, wire);
  int table_id = 0;
  for (auto _ : state) {
    const std::string table = "LOAD_" + std::to_string(table_id++);
    (void)db.Execute("CREATE TABLE " + table + " (G INT, V INT, T1 INT, T2 INT)");
    if (bulk) {
      (void)conn.BulkLoad(table, rows);
    } else {
      (void)conn.InsertLoad(table, rows);
    }
    (void)db.Execute("DROP TABLE " + table);
  }
  state.SetLabel(bulk ? "direct-path (SQL*Loader style)" : "INSERT per row");
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_BulkLoadVsInsert)->Arg(1)->Arg(0);

void BM_ExternalSort(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  auto rows = ProbeRows(65536, 1024);
  for (auto _ : state) {
    exec::SortCursor sort(std::make_unique<VectorCursor>(ProbeSchema(), rows),
                          {{1, true}, {2, true}}, budget);
    auto out = MaterializeAll(&sort);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(budget >= (64u << 20) ? "in-memory" : "spilling");
  state.SetItemsProcessed(65536 * state.iterations());
}
BENCHMARK(BM_ExternalSort)->Arg(64 << 20)->Arg(512 << 10);

void BM_MergeJoinMiddleware(benchmark::State& state) {
  auto left = ProbeRows(32768, 512);
  auto right = ProbeRows(16384, 512);
  for (auto _ : state) {
    exec::MergeJoinCursor join(
        std::make_unique<VectorCursor>(ProbeSchema(), left),
        std::make_unique<VectorCursor>(ProbeSchema(), right), {0}, {0});
    benchmark::DoNotOptimize(Drain(&join));
  }
}
BENCHMARK(BM_MergeJoinMiddleware);

/// One side of Q3's TJOIN^M: (PosID, EmpName, T1, T2) sorted on PosID, a
/// short name per row and int day-number periods.
std::vector<Tuple> TJoinRows(size_t n, int64_t keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(3000, 10000);
    rows.push_back({Value(rng.Uniform(1, keys)),
                    Value("EMP" + std::to_string(rng.Uniform(0, 49971))),
                    Value(t1), Value(t1 + rng.Uniform(30, 3000))});
  }
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return a[0] < b[0];
  });
  return rows;
}

void BM_TJoinMiddleware(benchmark::State& state) {
  const Schema in({{"", "POSID", DataType::kInt},
                   {"", "EMPNAME", DataType::kString},
                   {"", "T1", DataType::kInt},
                   {"", "T2", DataType::kInt}});
  const Schema out({{"", "POSID", DataType::kInt},
                    {"", "EMPNAME", DataType::kString},
                    {"", "EMPNAME_2", DataType::kString},
                    {"", "T1", DataType::kInt},
                    {"", "T2", DataType::kInt}});
  const auto left = TJoinRows(16384, 2048, 5);
  const auto right = TJoinRows(16384, 2048, 6);
  size_t rows = 0;
  for (auto _ : state) {
    exec::TemporalJoinCursor join(std::make_unique<VectorCursor>(in, left),
                                  std::make_unique<VectorCursor>(in, right),
                                  {0}, {0}, 2, 3, 2, 3, {0, 1}, {1}, out);
    rows = Drain(&join);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(left.size() + right.size()) *
                          state.iterations());
}
BENCHMARK(BM_TJoinMiddleware);

/// Serves `blocks` copies of one block, copying its columns into the
/// consumer's block as a scan fills it.
class RepeatBlockCursor : public Cursor {
 public:
  RepeatBlockCursor(Schema schema, RowBlock block, size_t blocks)
      : schema_(std::move(schema)), block_(std::move(block)), blocks_(blocks) {}
  Status Init() override {
    served_ = 0;
    return Status::OK();
  }
  Result<size_t> NextBatch(RowBlock* block) override {
    block->Reset(block_.columns());
    if (served_ == blocks_) return 0;
    ++served_;
    for (size_t c = 0; c < block_.columns(); ++c) {
      block->column(c) = block_.column(c);
    }
    block->set_rows(block_.rows());
    return block_.rows();
  }
  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  RowBlock block_;
  size_t blocks_;
  size_t served_ = 0;
};

/// PROJECT over 64 blocks of POSITION's (PosID, T1, T2): the DBMS SELECT
/// list `SELECT PosID, T1, T2` moves the three columns; `computed` adds
/// T2 - T1, evaluated row by row.
void BM_ProjectColumns(benchmark::State& state, bool computed) {
  const Schema in({{"", "POSID", DataType::kInt},
                   {"", "T1", DataType::kInt},
                   {"", "T2", DataType::kInt}});
  Rng rng(19);
  RowBlock block;
  for (size_t r = 0; r < RowBlock::kDefaultCapacity; ++r) {
    const int64_t t1 = rng.Uniform(3000, 10000);
    block.AppendRow({Value(rng.Uniform(1, 2500)), Value(t1),
                     Value(t1 + rng.Uniform(30, 3000))});
  }
  std::vector<ExprPtr> items;
  Schema out;
  for (const char* name : {"POSID", "T1", "T2"}) {
    items.push_back(Bind(Expr::ColumnRef(name), in).ValueOrDie());
    out.AddColumn(in.column(in.IndexOf(name).ValueOrDie()));
  }
  if (computed) {
    items.push_back(Bind(Expr::Binary(BinaryOp::kSub, Expr::ColumnRef("T2"),
                                      Expr::ColumnRef("T1")),
                         in)
                        .ValueOrDie());
    out.AddColumn({"", "DUR", DataType::kInt});
  }
  constexpr size_t kBlocks = 64;
  for (auto _ : state) {
    exec::ProjectCursor project(
        std::make_unique<RepeatBlockCursor>(in, block, kBlocks), items, out);
    benchmark::DoNotOptimize(Drain(&project));
  }
  state.SetItemsProcessed(static_cast<int64_t>(kBlocks * block.rows()) *
                          state.iterations());
}
BENCHMARK_CAPTURE(BM_ProjectColumns, moved, false);
BENCHMARK_CAPTURE(BM_ProjectColumns, computed, true);

void BM_JoinDbms(benchmark::State& state) {
  static ProbeDb probe(32768);
  const auto method = state.range(0) == 0
                          ? dbms::SessionConfig::JoinMethod::kHash
                          : dbms::SessionConfig::JoinMethod::kMerge;
  probe.db.config().forced_join = method;
  for (auto _ : state) {
    auto result = probe.db.Execute(
        "SELECT A.V FROM PROBE A, PROBE B WHERE A.G = B.G AND A.T1 = B.T2");
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(state.range(0) == 0 ? "hash" : "sort-merge");
}
BENCHMARK(BM_JoinDbms)->Arg(0)->Arg(1);

/// The full-scale UIS database (built once, shared across cases).
dbms::Engine* UisDb() {
  static dbms::Engine* db = [] {
    auto* engine = new dbms::Engine();
    (void)workload::LoadUis(engine, workload::UisOptions{});
    return engine;
  }();
  return db;
}

/// Each argument of Q3's join: POSITION's periods that start before 1996.
std::string PositionBefore1996() {
  return "SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE T1 < " +
         std::to_string(date::Jan1(1996));
}

void BM_UisSql(benchmark::State& state, const std::string& sql) {
  dbms::Engine* db = UisDb();
  size_t rows = 0;
  for (auto _ : state) {
    auto result = db->Execute(sql);
    rows = result.ok() ? result.ValueOrDie().rows.size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
// ORDER BY (PosID, T1), Q1's and Q2's SORT^D, over all 8 columns and over
// the 3 that TAGGR^M reads; the plain scans are the baseline.
BENCHMARK_CAPTURE(BM_UisSql, position_scan_8col, "SELECT * FROM POSITION")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UisSql, position_order_by_8col,
                  "SELECT * FROM POSITION ORDER BY PosID, T1")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UisSql, position_scan_3col,
                  "SELECT PosID, T1, T2 FROM POSITION")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UisSql, position_order_by_3col,
                  "SELECT PosID, T1, T2 FROM POSITION ORDER BY PosID, T1")
    ->Unit(benchmark::kMillisecond);
// Q4's JOIN^D (a hash join building on POSITION) with one column out, and
// the two narrowed scans it reads.
BENCHMARK_CAPTURE(BM_UisSql, q4_scan_position,
                  "SELECT PosID, EmpName FROM POSITION")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UisSql, q4_scan_employee, "SELECT EmpName FROM EMPLOYEE")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UisSql, q4_join,
                  "SELECT P.PosID FROM POSITION P, EMPLOYEE E "
                  "WHERE P.EmpName = E.EmpName")
    ->Unit(benchmark::kMillisecond);
// Q3's TJOIN^D SQL (the equi-join on PosID, the overlap residual and the
// intersected period) and one of the two filtered scans it reads.
BENCHMARK_CAPTURE(
    BM_UisSql, q3_tjoin,
    "SELECT A.PosID, A.EmpName, B.EmpName, GREATEST(A.T1, B.T1) AS T1, "
    "LEAST(A.T2, B.T2) AS T2 FROM (" + PositionBefore1996() + ") A, (" +
        PositionBefore1996() +
        ") B WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UisSql, q3_scan, PositionBefore1996())
    ->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state, bool fold) {
  const wire_internal::Crc32Kernels& kernels = wire_internal::GetCrc32Kernels();
  const wire_internal::Crc32Kernel kernel =
      fold ? kernels.fold : kernels.portable;
  if (kernel == nullptr) {
    state.SkipWithError("this CPU reports no PCLMUL and SSE4.1: no fold");
    return;
  }
  Rng rng(3);
  std::vector<uint8_t> buf(size_t{1} << 20);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) benchmark::DoNotOptimize(kernel(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * buf.size()));
}
BENCHMARK_CAPTURE(BM_Crc32, portable, false);
BENCHMARK_CAPTURE(BM_Crc32, fold, true);

/// 1,024 result rows: Q1's four ints (PosID, T1, T2, CNT), or Q3's PosID,
/// two employee names and the intersected period.
RowBlock CodecBlock(bool names) {
  Rng rng(17);
  RowBlock block;
  for (size_t r = 0; r < RowBlock::kDefaultCapacity; ++r) {
    const int64_t t1 = rng.Uniform(3000, 10000);
    Tuple row{Value(rng.Uniform(1, 2500))};
    if (names) {
      row.push_back(Value("EMP" + std::to_string(rng.Uniform(0, 49971))));
      row.push_back(Value("EMP" + std::to_string(rng.Uniform(0, 49971))));
    }
    row.push_back(Value(t1));
    row.push_back(Value(t1 + rng.Uniform(30, 3000)));
    if (!names) row.push_back(Value(rng.Uniform(1, 60)));
    block.AppendRow(std::move(row));
  }
  return block;
}

void BM_PutRowBlock(benchmark::State& state, bool names) {
  const RowBlock block = CodecBlock(names);
  size_t bytes = 0;
  for (auto _ : state) {
    WireWriter writer;
    writer.PutRowBlock(block);
    bytes = writer.size();
    benchmark::DoNotOptimize(writer.buffer().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK_CAPTURE(BM_PutRowBlock, q1_ints, false);
BENCHMARK_CAPTURE(BM_PutRowBlock, q3_names, true);

/// Decodes into a fresh block each time, as both hops do.
void BM_GetRowBlock(benchmark::State& state, bool names) {
  WireWriter writer;
  writer.PutRowBlock(CodecBlock(names));
  for (auto _ : state) {
    RowBlock decoded;
    WireReader reader(writer.buffer());
    auto rows = reader.GetRowBlock(&decoded);
    benchmark::DoNotOptimize(rows);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * writer.size()));
}
BENCHMARK_CAPTURE(BM_GetRowBlock, q1_ints, false);
BENCHMARK_CAPTURE(BM_GetRowBlock, q3_names, true);

}  // namespace
}  // namespace tango

BENCHMARK_MAIN();
