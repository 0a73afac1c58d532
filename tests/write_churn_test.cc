// Temporal-update churn against live queries (the ISSUE-8 durability
// satellite): a WriterGenerator streams BEGIN / close-version UPDATE /
// INSERT / COMMIT-or-ROLLBACK transactions against POSITION while the
// middleware runs the paper's four query shapes on another session.
//
// The concurrency itself is the point under ASan/TSan; on top of it the
// test checks three differentials:
//   - quiesced durable engine vs a fresh volatile engine bulk-loaded with
//     the same rows: all four queries return identical row multisets;
//   - reopen differential: destroying the durable engine and recovering
//     from its WAL reproduces the exact pre-close table;
//   - statistics staleness: churn drifts POSITION's modification epoch, and
//     RefreshStatisticsIfStale re-collects (and re-fingerprints cached
//     plans for) exactly the drifted tables.
//
// A fourth test races four reader middlewares, which share the engine latch,
// against the writer and checks every lookup against an engine-free oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/date.h"
#include "common/rng.h"
#include "tango/middleware.h"
#include "workload/uis.h"
#include "workload/writer.h"

namespace tango {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("tango_churn_" + tag + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

Middleware::Config ChurnConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;  // keep plan shapes fixed across the differentials
  return config;
}

// The four paper query shapes, adapted to the churn tables.
const char* const kQueries[] = {
    // Q1: temporal aggregation.
    "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
    "GROUP BY PosID OVER TIME ORDER BY PosID",
    // Q2: temporal selection with a value predicate.
    "TEMPORAL SELECT PosID, EmpName FROM POSITION "
    "WHERE OVERLAPS PERIOD (DATE '1995-01-01', DATE '1998-01-01') "
    "AND PayRate > 10",
    // Q3: temporal self-join.
    "TEMPORAL SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, "
    "POSITION B WHERE A.PosID = B.PosID",
    // Q4: mixed join with the nontemporal EMPLOYEE.
    "TEMPORAL SELECT PosID, Addr FROM POSITION P, EMPLOYEE E "
    "WHERE P.EmpName = E.EmpName",
};

std::vector<Tuple> EmployeeRows() {
  std::vector<Tuple> rows;
  // Names overlap both the generator's and the writer's EmpID universe
  // (0..49971) sparsely, so the Q4 join has matches without exploding.
  for (int64_t k = 0; k < 1000; ++k) {
    rows.push_back({Value(k), Value("EMP" + std::to_string(k)),
                    Value("Addr" + std::to_string(k % 37))});
  }
  return rows;
}

Status LoadChurnTables(dbms::Engine* db, const std::vector<Tuple>& position) {
  TANGO_RETURN_IF_ERROR(
      db->Execute("CREATE TABLE POSITION " + workload::PositionDdlColumns())
          .status());
  TANGO_RETURN_IF_ERROR(db->BulkLoad("POSITION", position));
  TANGO_RETURN_IF_ERROR(
      db->Execute(
            "CREATE TABLE EMPLOYEE (EmpID INT, EmpName VARCHAR(12), "
            "Addr VARCHAR(24))")
          .status());
  TANGO_RETURN_IF_ERROR(db->BulkLoad("EMPLOYEE", EmployeeRows()));
  return db->Execute("ANALYZE").status();
}

std::multiset<std::string> RowSet(const Middleware::Execution& exec) {
  std::multiset<std::string> rows;
  for (const Tuple& t : exec.rows) {
    std::string s;
    for (const Value& v : t) s += v.ToString() + "|";
    rows.insert(std::move(s));
  }
  return rows;
}

Result<std::vector<Tuple>> Dump(dbms::Engine* db, const std::string& table) {
  TANGO_ASSIGN_OR_RETURN(dbms::QueryResult r,
                         db->Execute("SELECT * FROM " + table));
  return std::move(r.rows);
}

std::multiset<std::string> TupleSet(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const Tuple& t : rows) {
    std::string s;
    for (const Value& v : t) s += v.ToString() + "|";
    out.insert(std::move(s));
  }
  return out;
}

TEST(WriteChurnTest, QueriesRaceTheWriterAndDifferentialsHold) {
  TempDir dir("race");
  const std::vector<Tuple> base = workload::GeneratePositionRows(800, 42);

  dbms::EngineOptions opts;
  opts.wal_dir = dir.path.string();
  auto db = std::make_unique<dbms::Engine>(opts);
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(LoadChurnTables(db.get(), base).ok());

  std::vector<std::multiset<std::string>> churn_results;
  {
    Middleware mw(db.get(), ChurnConfig());
    ASSERT_TRUE(mw.CollectStatistics({"POSITION", "EMPLOYEE"}).ok());

    // The writer gets its own Connection — its own engine session — so its
    // transactions interleave with the queries' cursor fetches.
    dbms::WireConfig wire;
    wire.simulate_delay = false;
    dbms::Connection writer_conn(db.get(), wire);
    workload::WriterOptions wopts;
    wopts.num_positions = 40;  // matches 800 rows / 20 versions-per-position
    workload::WriterGenerator writer(&writer_conn, wopts);

    writer.Start();
    for (const char* sql : kQueries) {
      for (int rep = 0; rep < 2; ++rep) {
        auto exec = mw.Query(sql);
        ASSERT_TRUE(exec.ok()) << sql << ": " << exec.status().ToString();
      }
    }
    ASSERT_TRUE(writer.Stop().ok());
    EXPECT_GT(writer.counters().txns_committed.load(), 0u);
    EXPECT_EQ(writer.counters().txns_failed.load(), 0u);

    // Quiesced: every query's answer must match a fresh volatile engine
    // loaded with the durable engine's final rows.
    for (const char* sql : kQueries) {
      auto exec = mw.Query(sql);
      ASSERT_TRUE(exec.ok()) << sql << ": " << exec.status().ToString();
      churn_results.push_back(RowSet(exec.ValueOrDie()));
    }
  }

  auto final_rows = Dump(db.get(), "POSITION");
  ASSERT_TRUE(final_rows.ok());
  {
    dbms::Engine volatile_db;
    ASSERT_TRUE(
        LoadChurnTables(&volatile_db, final_rows.ValueOrDie()).ok());
    Middleware mw(&volatile_db, ChurnConfig());
    for (size_t i = 0; i < std::size(kQueries); ++i) {
      auto exec = mw.Query(kQueries[i]);
      ASSERT_TRUE(exec.ok()) << kQueries[i] << ": "
                             << exec.status().ToString();
      EXPECT_EQ(RowSet(exec.ValueOrDie()), churn_results[i])
          << "differential mismatch for " << kQueries[i];
    }
  }

  // Reopen differential: recovery after heavy churn reproduces the exact
  // table the engine held before it went down.
  db.reset();
  dbms::Engine reopened(opts);
  ASSERT_TRUE(reopened.Open().ok());
  auto recovered = Dump(&reopened, "POSITION");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(TupleSet(recovered.ValueOrDie()),
            TupleSet(final_rows.ValueOrDie()));
}

TEST(WriteChurnTest, RefreshStatisticsIfStaleTracksChurnEpochs) {
  dbms::Engine db;
  ASSERT_TRUE(
      LoadChurnTables(&db, workload::GeneratePositionRows(400, 7)).ok());
  Middleware mw(&db, ChurnConfig());
  ASSERT_TRUE(mw.CollectStatistics({"POSITION", "EMPLOYEE"}).ok());

  // Nothing has moved since collection: no table refreshes.
  auto refreshed = mw.RefreshStatisticsIfStale({"POSITION", "EMPLOYEE"});
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.ValueOrDie(), 0u);

  // Warm the plan cache for Q2.
  auto first = mw.Prepare(kQueries[1]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().source, Middleware::Prepared::Source::kFresh);
  auto warm = mw.Prepare(kQueries[1]);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.ValueOrDie().source, Middleware::Prepared::Source::kCached);

  // Churn only POSITION; EMPLOYEE's epoch must not drift.
  dbms::WireConfig wire;
  wire.simulate_delay = false;
  dbms::Connection writer_conn(&db, wire);
  workload::WriterOptions wopts;
  wopts.num_positions = 20;
  workload::WriterGenerator writer(&writer_conn, wopts);
  ASSERT_TRUE(writer.Run(30).ok());
  EXPECT_GT(writer.counters().txns_committed.load(), 0u);

  refreshed = mw.RefreshStatisticsIfStale({"POSITION", "EMPLOYEE"});
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.ValueOrDie(), 1u);  // POSITION only

  // The refresh re-collected POSITION, invalidating its cached plans.
  auto after = mw.Prepare(kQueries[1]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().source, Middleware::Prepared::Source::kFresh);

  // And the refreshed epoch is now current again.
  refreshed = mw.RefreshStatisticsIfStale({"POSITION", "EMPLOYEE"});
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed.ValueOrDie(), 0u);
}

TEST(WriteChurnTest, WriterCountersAccountForEveryTransaction) {
  dbms::Engine db;
  const std::vector<Tuple> base = workload::GeneratePositionRows(200, 3);
  ASSERT_TRUE(LoadChurnTables(&db, base).ok());
  dbms::WireConfig wire;
  wire.simulate_delay = false;
  dbms::Connection conn(&db, wire);

  workload::WriterOptions wopts;
  wopts.num_positions = 10;
  wopts.abort_fraction = 0.4;
  workload::WriterGenerator writer(&conn, wopts);
  ASSERT_TRUE(writer.Run(50).ok());

  const auto& c = writer.counters();
  EXPECT_EQ(c.txns_committed.load() + c.txns_rolled_back.load() +
                c.txns_failed.load(),
            50u);
  EXPECT_GT(c.txns_committed.load(), 0u);
  EXPECT_GT(c.txns_rolled_back.load(), 0u);
  // A single writer on an otherwise idle engine never conflicts.
  EXPECT_EQ(c.lock_retries.load(), 0u);

  // Each committed transaction inserts exactly one new version; rollbacks
  // and version closes never change the row count.
  auto rows = Dump(&db, "POSITION");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.ValueOrDie().size(),
            base.size() + c.txns_committed.load());
}

std::string LookupSql(int64_t posid, int64_t day) {
  const std::string d = std::to_string(day);
  return "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE PosID = " +
         std::to_string(posid) + " AND T1 <= " + d + " AND T2 > " + d;
}

// A lookup's row count straight from the generated rows, without the
// engine. The writer only closes periods at, and opens them from, its
// current day, which never precedes its start day; so a lookup dated before
// that day has the same answer in the loaded table as under any churn.
size_t OracleCount(const std::vector<Tuple>& rows, int64_t posid,
                   int64_t day) {
  size_t n = 0;
  for (const Tuple& row : rows) {
    n += row[0].AsInt() == posid && row[6].AsInt() <= day &&
                 row[7].AsInt() > day
             ? 1
             : 0;
  }
  return n;
}

TEST(WriteChurnTest, ConcurrentReadersRaceTheWriter) {
  TempDir dir("readers");
  const std::vector<Tuple> base = workload::GeneratePositionRows(2000, 11);
  const int64_t positions = 100;  // 2,000 rows / 20 versions per position
  dbms::EngineOptions opts;
  opts.wal_dir = dir.path.string();
  dbms::Engine db(opts);
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(LoadChurnTables(&db, base).ok());

  // Each reader has its own Middleware (its own Connection and engine
  // session), all built before any thread starts.
  constexpr int kReaders = 4;
  std::vector<std::unique_ptr<Middleware>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Middleware>(&db, ChurnConfig()));
    ASSERT_TRUE(readers.back()->CollectStatistics({"POSITION"}).ok());
  }
  dbms::WireConfig wire;
  wire.simulate_delay = false;
  dbms::Connection writer_conn(&db, wire);
  workload::WriterOptions wopts;
  wopts.num_positions = positions;
  wopts.start_day = date::Jan1(1998);
  workload::WriterGenerator writer(&writer_conn, wopts);

  constexpr size_t kTxns = 60;
  // Readers keep going while the writer runs, so the two always overlap.
  constexpr int kMinOps = 40;
  constexpr int kMaxOps = 4000;
  std::atomic<bool> writing{true};
  Status writer_status;
  std::thread write([&] {
    writer_status = writer.Run(kTxns);
    writing.store(false);
  });
  std::vector<std::vector<std::string>> failures(kReaders);
  std::vector<int> oracle_checked(kReaders, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Middleware& mw = *readers[r];
      Rng rng(1000 + r);
      for (int i = 0; i < kMaxOps && (i < kMinOps || writing.load()); ++i) {
        if (i % 10 == 9) {
          auto q1 = mw.Query(kQueries[0]);
          if (!q1.ok()) {
            failures[r].push_back("Q1: " + q1.status().ToString());
          } else if (q1.ValueOrDie().rows.empty()) {
            failures[r].push_back("Q1: no rows");
          }
          continue;
        }
        const int64_t posid = rng.Uniform(1, positions);
        const int64_t day =
            rng.Uniform(date::Jan1(1990), date::Jan1(2000) - 1);
        const std::string what = "lookup PosID=" + std::to_string(posid) +
                                 " day=" + std::to_string(day);
        auto exec = mw.Query(LookupSql(posid, day));
        if (!exec.ok()) {
          failures[r].push_back(what + ": " + exec.status().ToString());
          continue;
        }
        const std::vector<Tuple>& rows = exec.ValueOrDie().rows;
        for (const Tuple& row : rows) {
          if (row.size() != 4 || row[0].AsInt() != posid ||
              row[2].AsInt() > day || row[3].AsInt() <= day) {
            failures[r].push_back(what + ": row outside the predicate");
            break;
          }
        }
        if (day >= wopts.start_day) continue;
        ++oracle_checked[r];
        const size_t expected = OracleCount(base, posid, day);
        if (rows.size() != expected) {
          failures[r].push_back(what + ": " + std::to_string(rows.size()) +
                                " rows, expected " +
                                std::to_string(expected));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  write.join();

  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(failures[r].empty())
        << "reader " << r << ": " << failures[r].size() << " failures, first: "
        << (failures[r].empty() ? "" : failures[r].front());
    EXPECT_GT(oracle_checked[r], 0) << "reader " << r;
  }
  const workload::WriterCounters& c = writer.counters();
  EXPECT_EQ(c.txns_committed.load() + c.txns_rolled_back.load() +
                c.txns_failed.load(),
            kTxns);
  EXPECT_GT(c.txns_committed.load(), 0u);
  EXPECT_EQ(c.txns_failed.load(), 0u);
}

}  // namespace
}  // namespace tango
