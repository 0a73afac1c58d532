// Durable write path bench (EXPERIMENTS.md E15), two curves:
//
//   churn:    latency of a timeslice query over POSITION while a
//             temporal-update writer streams transactions against the same
//             table — quiet baseline vs under-churn, plus the writer's
//             standalone throughput (the write-rate axis).
//   recovery: replay time of a fresh engine over the same directory as the
//             log grows — recovery-time vs log-length, with and without a
//             checkpoint snapshot in front of the log.
//
// Emits a JSON summary (stdout, and to argv[1] if given) that
// scripts/bench_summary.sh commits as BENCH_write_churn.json.

#include <unistd.h>

#include <filesystem>

#include "common/date.h"
#include "bench_util.h"
#include "workload/writer.h"

namespace tango {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct ChurnPoint {
  std::string mode;  // "quiet" | "churn"
  double query_seconds = 0;
  size_t rows = 0;
  double writer_txns_per_sec = 0;
};

struct RecoveryPoint {
  size_t txns = 0;
  bool checkpointed = false;
  uint64_t log_records = 0;
  double open_seconds = 0;
  size_t table_rows = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<size_t> CountRows(dbms::Engine* db, const std::string& table) {
  TANGO_ASSIGN_OR_RETURN(dbms::QueryResult r,
                         db->Execute("SELECT * FROM " + table));
  return r.rows.size();
}

/// Timeslice at 1996-06-01 — mid-mass, so the query reads real volume.
std::pair<double, size_t> TimesliceLatency(dbms::Connection* conn, int reps) {
  const std::string sql =
      "SELECT * FROM POSITION WHERE T1 <= " +
      std::to_string(date::FromYmd(1996, 6, 1)) + " AND T2 > " +
      std::to_string(date::FromYmd(1996, 6, 1));
  double best = 1e300;
  size_t rows = 0;
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    auto r = conn->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    best = std::min(best, Now() - t0);
    rows = r.ValueOrDie().rows.size();
  }
  return {best, rows};
}

Status LoadChurnTable(dbms::Engine* db, size_t rows) {
  TANGO_RETURN_IF_ERROR(
      db->Execute("CREATE TABLE POSITION " + workload::PositionDdlColumns())
          .status());
  return db->BulkLoad("POSITION", workload::GeneratePositionRows(rows, 42));
}

void WriteJson(std::FILE* f, const std::vector<ChurnPoint>& churn,
               const std::vector<RecoveryPoint>& recovery) {
  std::fprintf(f, "{\n  \"bench\": \"write_churn\",\n  \"scale\": %.3f,\n",
               Scale());
  std::fputs(BuildStampJson().c_str(), f);
  std::fprintf(f, "  \"churn\": [\n");
  for (size_t i = 0; i < churn.size(); ++i) {
    const ChurnPoint& p = churn[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"query_seconds\": %.6f, "
                 "\"rows\": %zu, \"writer_txns_per_sec\": %.1f}%s\n",
                 p.mode.c_str(), p.query_seconds, p.rows,
                 p.writer_txns_per_sec, i + 1 < churn.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recovery\": [\n");
  for (size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryPoint& p = recovery[i];
    std::fprintf(f,
                 "    {\"txns\": %zu, \"checkpointed\": %s, "
                 "\"log_records\": %llu, \"open_seconds\": %.6f, "
                 "\"table_rows\": %zu}%s\n",
                 p.txns, p.checkpointed ? "true" : "false",
                 static_cast<unsigned long long>(p.log_records),
                 p.open_seconds, p.table_rows,
                 i + 1 < recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  std::printf("=== Durable write path: churn latency + recovery time ===\n");
  std::printf("scale=%.2f\n\n", Scale());

  const fs::path root =
      fs::temp_directory_path() /
      ("tango_bench_churn_" + std::to_string(::getpid()));
  fs::remove_all(root);
  ShapeChecks checks;

  // ---- churn curve ----
  std::vector<ChurnPoint> churn;
  const size_t rows = Scaled(20000);
  {
    const fs::path dir = root / "churn";
    fs::create_directories(dir);
    dbms::EngineOptions opts;
    opts.wal_dir = dir.string();
    dbms::Engine db(opts);
    checks.Check(db.Open().ok(), "churn engine opens");
    checks.Check(LoadChurnTable(&db, rows).ok(), "churn table loads");

    dbms::WireConfig wire;
    wire.simulate_delay = false;
    dbms::Connection reader(&db, wire);
    dbms::Connection writer_conn(&db, wire);

    {
      ChurnPoint p;
      p.mode = "quiet";
      std::tie(p.query_seconds, p.rows) = TimesliceLatency(&reader, 3);
      std::printf("  quiet  query %8.4fs  (%zu rows)\n", p.query_seconds,
                  p.rows);
      churn.push_back(p);
    }
    {
      // Writer standalone throughput: the write-rate axis of the sweep.
      workload::WriterOptions wopts;
      wopts.num_positions =
          std::max<int64_t>(1, static_cast<int64_t>(rows) / 20);
      workload::WriterGenerator solo(&writer_conn, wopts);
      const size_t n = Scaled(300);
      const double t0 = Now();
      checks.Check(solo.Run(n).ok(), "standalone writer runs");
      const double dt = Now() - t0;

      workload::WriterGenerator w(&writer_conn, wopts);
      w.Start();
      ChurnPoint p;
      p.mode = "churn";
      p.writer_txns_per_sec = static_cast<double>(n) / dt;
      std::tie(p.query_seconds, p.rows) = TimesliceLatency(&reader, 3);
      checks.Check(w.Stop().ok(), "churn writer stops clean");
      checks.Check(
          w.counters().txns_committed.load() > 0,
          "churn writer committed transactions while the query ran");
      std::printf("  churn  query %8.4fs  (%zu rows)  writer %.0f txn/s\n",
                  p.query_seconds, p.rows, p.writer_txns_per_sec);
      churn.push_back(p);
    }
  }

  // ---- recovery curve ----
  std::vector<RecoveryPoint> recovery;
  const size_t kTxnSteps[] = {Scaled(100), Scaled(400), Scaled(1600)};
  for (const size_t txns : kTxnSteps) {
    for (const bool checkpointed : {false, true}) {
      const fs::path dir =
          root / ("rec_" + std::to_string(txns) +
                  (checkpointed ? "_ckpt" : "_log"));
      fs::create_directories(dir);
      size_t rows_before = 0;
      {
        dbms::EngineOptions opts;
        opts.wal_dir = dir.string();
        dbms::Engine db(opts);
        checks.Check(db.Open().ok(), "recovery-curve engine opens");
        checks.Check(LoadChurnTable(&db, Scaled(4000)).ok(),
                     "recovery-curve table loads");
        dbms::WireConfig wire;
        wire.simulate_delay = false;
        dbms::Connection conn(&db, wire);
        workload::WriterOptions wopts;
        wopts.num_positions = 200;
        workload::WriterGenerator w(&conn, wopts);
        checks.Check(w.Run(txns).ok(), "recovery-curve writer runs");
        if (checkpointed) checks.Check(db.Checkpoint().ok(), "checkpoint");
        rows_before = CountRows(&db, "POSITION").ValueOrDie();
      }
      dbms::EngineOptions opts;
      opts.wal_dir = dir.string();
      dbms::Engine db(opts);
      const double t0 = Now();
      checks.Check(db.Open().ok(), "recovery replays");
      RecoveryPoint p;
      p.txns = txns;
      p.checkpointed = checkpointed;
      p.open_seconds = Now() - t0;
      p.log_records = db.recovery_stats().records_scanned;
      p.table_rows = CountRows(&db, "POSITION").ValueOrDie();
      checks.Check(p.table_rows == rows_before,
                   "recovered row count matches pre-crash count");
      std::printf(
          "  txns=%-6zu %s  open %8.4fs  (%llu records, %zu rows)\n", txns,
          checkpointed ? "ckpt" : "log ", p.open_seconds,
          static_cast<unsigned long long>(p.log_records), p.table_rows);
      recovery.push_back(p);
    }
  }

  std::printf("\n");
  WriteJson(stdout, churn, recovery);
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    WriteJson(f, churn, recovery);
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }

  fs::remove_all(root);
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tango

int main(int argc, char** argv) { return tango::bench::Main(argc, argv); }
