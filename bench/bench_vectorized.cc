// Closed-loop vectorization bench: rows/s for the tuple-at-a-time baseline
// (batch size 1, one wire frame per row — the engine's pre-vectorization
// shape) against block execution at increasing batch sizes, on two of the
// paper's workloads:
//
//   fig8_taggr:     Query 1 Plan 2 — TAGGR^M( SORT^M( T^M( SCAN^D ) ) )
//   fig10_transfer: Query 2 Plan 4's signature move — FILTER^M( T^M( SCAN^D ) ),
//                   the whole base relation crossing the wire
//   fig11_tjoin:    Query 3 Plan 2 — FILTER^M( TJOIN^M( T^M(SORT^D(SEL^D)) x2 ) )
//   fig10_transfer_wire: the same transfer plan under the calibrated link
//                   simulation (per-message latency + bandwidth pacing)
//
// The first three workloads disable wire pacing so their numbers measure
// real CPU cost (virtual calls, per-tuple copies, per-row frame headers and
// CRC), not simulated link latency. The fourth, fig10_transfer_wire, is the
// same transfer-dominated plan under the repo's calibrated wire model
// (simulate_delay on, as every figure bench runs): there each fetch pays the
// per-message link cost, which is the overhead batched transfer exists to
// amortize, so that workload carries the headline speedup. Every
// configuration must produce checksum-identical rows.
//
// Emits a JSON summary (stdout, and to argv[1] if given) that
// scripts/bench_summary.sh commits as BENCH_vectorized.json — the
// perf-trajectory baseline for the vectorized engine.

#include <cstring>

#include "common/date.h"
#include "bench_util.h"

namespace tango {
namespace bench {
namespace {

using optimizer::Algorithm;
using optimizer::PhysPlanPtr;

constexpr size_t kBatchSizes[] = {1, 4, 16, 64, 256, 1024};

struct Point {
  size_t batch_size = 0;
  double seconds = 0;
  double rows_per_sec = 0;
  double speedup = 0;  // vs batch_size 1
};

struct WorkloadResult {
  std::string name;
  size_t input_rows = 0;
  bool wire_paced = false;
  std::vector<Point> points;
  double best_speedup = 0;
  bool checksums_agree = true;
};

/// A middleware configured for a given block granularity: `batch` rows per
/// RowBlock in the execution engine AND per wire frame (row_prefetch), so
/// batch=1 degenerates to the old one-message-per-tuple hot path. `paced`
/// enables the calibrated link simulation (per-message latency + bandwidth).
std::unique_ptr<Middleware> MakeMiddleware(dbms::Engine* db, size_t batch,
                                           bool paced) {
  Middleware::Config cfg;
  cfg.batch_size = batch;
  cfg.wire.row_prefetch = batch;
  cfg.wire.simulate_delay = paced;
  return std::make_unique<Middleware>(db, cfg);
}

PhysPlanPtr BuildFig8Plan(dbms::Engine* db) {
  const Schema schema =
      db->catalog().GetTable("POSITION").ValueOrDie()->schema();
  auto scan = algebra::Scan("POSITION", schema).ValueOrDie();
  auto agg = algebra::TAggregate(scan, {"POSID"},
                                 {{AggFunc::kCount, "POSID", "CNT"}})
                 .ValueOrDie();
  const std::vector<algebra::SortSpec> arg_keys = {{"POSID", true},
                                                   {"T1", true}};
  return Node(
      Algorithm::kTAggrM, agg,
      {Node(Algorithm::kSortM, SortOpOf(scan->schema, arg_keys),
            {Node(Algorithm::kTransferM,
                  TransferOpOf(algebra::OpKind::kTransferM, scan->schema),
                  {Node(Algorithm::kScanD, scan, {})})})});
}

PhysPlanPtr BuildFig10Plan(dbms::Engine* db) {
  // Figure 10 Plan 4 moves the selection above the transfer, so the whole
  // base relation crosses the wire. That makes the plan transfer-dominated:
  // per-row frame headers, CRC, and fetch round trips are nearly the entire
  // cost at batch 1, which is exactly where block framing pays the most.
  const Schema schema =
      db->catalog().GetTable("POSITION").ValueOrDie()->schema();
  auto scan = algebra::Scan("POSITION", schema).ValueOrDie();
  auto pay_pred = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("PAYRATE"),
                               Expr::Int(10));
  auto sel = algebra::Select(scan, pay_pred).ValueOrDie();
  return Node(Algorithm::kFilterM, sel,
              {Node(Algorithm::kTransferM,
                    TransferOpOf(algebra::OpKind::kTransferM, scan->schema),
                    {Node(Algorithm::kScanD, scan, {})})});
}

PhysPlanPtr BuildFig11Plan(dbms::Engine* db, int64_t max_start) {
  const Schema schema =
      db->catalog().GetTable("POSITION").ValueOrDie()->schema();
  auto scan_a = algebra::Scan("POSITION", schema, "A").ValueOrDie();
  auto scan_b = algebra::Scan("POSITION", schema, "B").ValueOrDie();
  auto start_pred = [&](const std::string& qual) {
    return Expr::Binary(BinaryOp::kLt, Expr::ColumnRef(qual + ".T1"),
                        Expr::Int(max_start));
  };
  auto sel_a = algebra::Select(scan_a, start_pred("A")).ValueOrDie();
  auto sel_b = algebra::Select(scan_b, start_pred("B")).ValueOrDie();
  auto tjoin =
      algebra::TJoin(sel_a, sel_b, {{"A.POSID", "B.POSID"}}).ValueOrDie();
  auto pair_pred = Expr::Binary(BinaryOp::kLt, Expr::ColumnRef("A.EMPNAME"),
                                Expr::ColumnRef("B.EMPNAME"));
  auto pairs = algebra::Select(tjoin, pair_pred).ValueOrDie();

  const std::vector<algebra::SortSpec> arg_keys = {{"POSID", true}};
  auto arg = [&](const algebra::OpPtr& sel, const algebra::OpPtr& scan) {
    return Node(Algorithm::kTransferM,
                TransferOpOf(algebra::OpKind::kTransferM, sel->schema),
                {Node(Algorithm::kSortD, SortOpOf(sel->schema, arg_keys),
                      {Node(Algorithm::kSelectD, sel,
                            {Node(Algorithm::kScanD, scan, {})})})});
  };
  return Node(Algorithm::kFilterM, pairs,
              {Node(Algorithm::kTJoinM, tjoin,
                    {arg(sel_a, scan_a), arg(sel_b, scan_b)})});
}

WorkloadResult RunWorkload(
    dbms::Engine* db, const std::string& name, size_t input_rows, bool paced,
    const std::function<PhysPlanPtr(dbms::Engine*)>& build) {
  WorkloadResult out;
  out.name = name;
  out.input_rows = input_rows;
  out.wire_paced = paced;

  uint64_t base_checksum = 0;
  double base_rps = 0;
  for (const size_t batch : kBatchSizes) {
    auto mw = MakeMiddleware(db, batch, paced);
    const PhysPlanPtr plan = build(db);
    // Warm once (first run pays catalog/stat lookups), then best-of-3.
    // Paced runs are deterministic (the spin-paced link dominates), so one
    // timed run suffices and keeps the batch=1 point from taking minutes.
    auto warm = mw->Execute(plan);
    if (!warm.ok()) {
      std::fprintf(stderr, "%s failed at batch %zu: %s\n", name.c_str(),
                   batch, warm.status().ToString().c_str());
      std::abort();
    }
    const uint64_t sum = Checksum(warm.ValueOrDie().rows);
    if (batch == kBatchSizes[0]) {
      base_checksum = sum;
    } else if (sum != base_checksum) {
      out.checksums_agree = false;
    }
    const auto [secs, rows] = RunBest(mw.get(), plan, paced ? 1 : 3);
    (void)rows;

    Point p;
    p.batch_size = batch;
    p.seconds = secs;
    p.rows_per_sec = secs > 0 ? static_cast<double>(input_rows) / secs : 0;
    if (batch == kBatchSizes[0]) base_rps = p.rows_per_sec;
    p.speedup = base_rps > 0 ? p.rows_per_sec / base_rps : 0;
    out.best_speedup = std::max(out.best_speedup, p.speedup);
    out.points.push_back(p);
    std::printf("  %-12s batch=%-5zu %8.3fs  %12.0f rows/s  %5.2fx\n",
                name.c_str(), batch, p.seconds, p.rows_per_sec, p.speedup);
  }
  return out;
}

void WriteJson(std::FILE* f, const std::vector<WorkloadResult>& results) {
  std::fprintf(f, "{\n  \"bench\": \"vectorized\",\n  \"scale\": %.3f,\n",
               Scale());
  std::fputs(BuildStampJson().c_str(), f);
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"input_rows\": %zu, "
                 "\"wire_paced\": %s, \"checksums_agree\": %s,\n"
                 "     \"points\": [\n",
                 r.name.c_str(), r.input_rows,
                 r.wire_paced ? "true" : "false",
                 r.checksums_agree ? "true" : "false");
    for (size_t i = 0; i < r.points.size(); ++i) {
      const Point& p = r.points[i];
      std::fprintf(f,
                   "      {\"batch_size\": %zu, \"seconds\": %.6f, "
                   "\"rows_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                   p.batch_size, p.seconds, p.rows_per_sec, p.speedup,
                   i + 1 < r.points.size() ? "," : "");
    }
    std::fprintf(f, "     ],\n     \"best_speedup\": %.3f}%s\n",
                 r.best_speedup, w + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  std::printf("=== Vectorized execution: tuple-at-a-time vs block ===\n");
  std::printf("rows/s per batch size; wire pacing off; scale=%.2f\n\n",
              Scale());

  dbms::Engine db;
  workload::UisOptions opts;
  opts.position_rows = Scaled(opts.position_rows);
  opts.employee_rows = 1;  // EMPLOYEE unused by either workload
  if (!workload::LoadUis(&db, opts).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  const size_t n = opts.position_rows;

  std::vector<WorkloadResult> results;
  results.push_back(
      RunWorkload(&db, "fig8_taggr", n, /*paced=*/false, BuildFig8Plan));
  results.push_back(RunWorkload(&db, "fig10_transfer", n, /*paced=*/false,
                                BuildFig10Plan));
  // Query 3 at max start 1993: a mid-selectivity self-join so both the
  // transfer path and the merge join see real row volume (the join reads
  // two filtered POSITION streams).
  const int64_t max_start = date::Jan1(1993);
  results.push_back(RunWorkload(
      &db, "fig11_tjoin", 2 * n, /*paced=*/false,
      [max_start](dbms::Engine* e) { return BuildFig11Plan(e, max_start); }));
  // The same transfer-dominated plan under the calibrated link model every
  // figure bench uses: one message per fetch costs per_batch latency plus
  // bandwidth, so amortizing messages over blocks is the whole game — this
  // is the deployment-shaped number and the headline speedup.
  results.push_back(RunWorkload(&db, "fig10_transfer_wire", n, /*paced=*/true,
                                BuildFig10Plan));

  std::printf("\n");
  WriteJson(stdout, results);
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    WriteJson(f, results);
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }

  ShapeChecks checks;
  for (const WorkloadResult& r : results) {
    checks.Check(r.checksums_agree,
                 r.name + ": identical results at every batch size");
  }
  double best = 0;
  for (const WorkloadResult& r : results) {
    best = std::max(best, r.best_speedup);
  }
  checks.Check(best >= 2.0, "block execution >= 2x tuple-at-a-time on at "
                            "least one workload (got " +
                                std::to_string(best) + "x)");
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tango

int main(int argc, char** argv) { return tango::bench::Main(argc, argv); }
