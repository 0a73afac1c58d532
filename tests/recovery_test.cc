// Targeted recovery tests: idempotent transfer retries, shared-cache
// hygiene under failure, graceful degradation to site-restricted fallback
// plans, deadline/cancellation unwinding (including a cancel landing
// mid-transfer on a paced link), and the temp-table janitor + startup
// orphan sweep.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "common/rng.h"
#include "exec/transfer.h"
#include "tango/middleware.h"

namespace tango {
namespace {

struct RandomRelation {
  std::vector<Tuple> rows;  // (G, V, T1, T2)
};

RandomRelation MakeRelation(uint64_t seed, size_t n, int64_t groups,
                            int64_t horizon) {
  Rng rng(seed);
  RandomRelation rel;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(0, horizon);
    rel.rows.push_back({Value(rng.Uniform(1, groups)),
                        Value(rng.Uniform(0, 50)), Value(t1),
                        Value(t1 + rng.Uniform(1, horizon / 4))});
  }
  return rel;
}

void Load(dbms::Engine* db, const std::string& table,
          const RandomRelation& rel) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE " + table + " (G INT, V INT, T1 INT, T2 INT)")
          .ok());
  ASSERT_TRUE(db->BulkLoad(table, rel.rows).ok());
  ASSERT_TRUE(db->Execute("ANALYZE " + table).ok());
}

Middleware::Config StableConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;  // keep the plan shape fixed across runs
  return config;
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

bool CatalogHasTempTables(dbms::Engine* db) {
  for (const std::string& t : db->catalog().TableNames()) {
    if (t.find("TANGO_TMP") != std::string::npos) return true;
  }
  return false;
}

const char* kAggrQuery =
    "TEMPORAL SELECT G, T1, T2, COUNT(G) AS CNT FROM R "
    "GROUP BY G OVER TIME ORDER BY G, T1";

// Aggregate in the middleware, join in the DBMS: the plan must ship the
// aggregate down through TRANSFER^D (temp table + CREATE/BULKLOAD/DROP).
const char* kTransferDQuery =
    "TEMPORAL SELECT C.G, V, CNT FROM "
    "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R GROUP BY G OVER TIME) C, "
    "R S WHERE C.G = S.G ORDER BY G";

void ForceTransferDShape(cost::CostFactors* f) {
  f->tjm = f->mjm = 1e9;        // no middleware join
  f->taggd1 = f->taggd2 = 1e9;  // no DBMS aggregation
}

TEST(RecoveryTest, TransferMRetriesInPlace) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(3, 300, 8, 80));
  Middleware mw(&db, StableConfig());
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  auto baseline = mw.Query(kAggrQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "SELECT";
  plan.times = 2;  // two failures, budget of 3 retries: must recover
  injector->Arm(plan);
  auto faulted = mw.Query(kAggrQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(RowSet(faulted.ValueOrDie()), RowSet(baseline.ValueOrDie()));
  EXPECT_FALSE(faulted.ValueOrDie().degraded);
  EXPECT_GE(mw.recovery_counters().tm_retries.load(), 2u);
  EXPECT_EQ(injector->faults_fired(), 2u);
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, CursorKillMidStreamRepositions) {
  // Unit-level restart-and-skip: a cursor killed on its third prefetch
  // batch must re-issue the SELECT, skip the rows already delivered, and
  // stream the remainder — byte-identical to an unfaulted run.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(5, 100, 4, 40));
  dbms::WireConfig wc;
  wc.simulate_delay = false;
  wc.row_prefetch = 16;  // many small batches
  dbms::Connection conn(&db, wc);
  const std::string sql = "SELECT G, V, T1, T2 FROM R";
  const Schema schema = conn.GetTableSchema("R").ValueOrDie();

  auto drain = [&](exec::TransferMCursor* c,
                   std::vector<Tuple>* out) -> Status {
    TANGO_RETURN_IF_ERROR(c->Init());
    RowBlock block;
    while (true) {
      TANGO_ASSIGN_OR_RETURN(const size_t n, c->NextBatch(&block));
      if (n == 0) return Status::OK();
      MoveRowsInto(&block, out);
    }
  };

  std::vector<Tuple> expected;
  {
    exec::TransferMCursor clean(&conn, sql, schema);
    ASSERT_TRUE(drain(&clean, &expected).ok());
    ASSERT_EQ(expected.size(), 100u);
  }

  auto injector = std::make_shared<dbms::FaultInjector>();
  conn.set_fault_injector(injector);
  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kCursorKill;
  plan.batch_index = 2;
  injector->Arm(plan);

  RecoveryCounters counters;
  std::vector<Tuple> got;
  exec::TransferMCursor faulted(&conn, sql, schema, {}, nullptr, nullptr,
                                RetryPolicy(), &counters);
  ASSERT_TRUE(drain(&faulted, &got).ok());
  EXPECT_EQ(injector->faults_fired(), 1u);
  EXPECT_EQ(counters.tm_retries.load(), 1u);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t c = 0; c < expected[i].size(); ++c) {
      EXPECT_EQ(got[i][c].Compare(expected[i][c]), 0) << i << "," << c;
    }
  }
}

TEST(RecoveryTest, SharedTransferCacheNotPoisonedByFailure) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(9, 80, 4, 40));
  dbms::WireConfig wc;
  wc.simulate_delay = false;
  wc.row_prefetch = 16;
  dbms::Connection conn(&db, wc);
  const std::string sql = "SELECT G, V, T1, T2 FROM R";
  const Schema schema = conn.GetTableSchema("R").ValueOrDie();
  auto cache = std::make_shared<exec::TransferCache>();
  cache->MarkShared(sql);

  auto injector = std::make_shared<dbms::FaultInjector>();
  conn.set_fault_injector(injector);
  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kCursorKill;
  plan.batch_index = 0;
  plan.times = 1000;  // outlast any budget
  injector->Arm(plan);

  RetryPolicy tight;
  tight.max_attempts = 2;
  RecoveryCounters counters;
  exec::TransferMCursor first(&conn, sql, schema, {}, cache, nullptr, tight,
                              &counters);
  const Status failed = first.Init();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTransientCode(failed.code())) << failed.ToString();
  EXPECT_NE(failed.message().find("TRANSFER^M"), std::string::npos)
      << failed.ToString();
  // The poisoning contract: a failed materialization stores nothing.
  EXPECT_EQ(cache->Get(sql), nullptr);

  injector->Disarm();
  exec::TransferMCursor second(&conn, sql, schema, {}, cache, nullptr,
                               RetryPolicy(), &counters);
  ASSERT_TRUE(second.Init().ok());
  RowBlock block;
  size_t n = 0;
  while (true) {
    auto more = second.NextBatch(&block);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (more.ValueOrDie() == 0) break;
    n += more.ValueOrDie();
  }
  EXPECT_EQ(n, 80u);
  auto stored = cache->Get(sql);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->size(), 80u);
}

TEST(RecoveryTest, TransferDRetriesDropAndRecreate) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(13, 200, 6, 60));
  Middleware mw(&db, StableConfig());
  ForceTransferDShape(&mw.cost_model().factors());
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  auto baseline = mw.Query(kTransferDQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "CREATE TABLE TANGO_TMP";
  injector->Arm(plan);
  auto faulted = mw.Query(kTransferDQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(injector->faults_fired(), 1u);
  EXPECT_GE(mw.recovery_counters().td_retries.load(), 1u);
  EXPECT_EQ(RowSet(faulted.ValueOrDie()), RowSet(baseline.ValueOrDie()));
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, OutageOutlastingBudgetDegradesToDbmsOnly) {
  // A transient outage that consumes exactly the TRANSFER^M budget and
  // then clears: the chosen plan fails, the middleware re-plans DBMS-only
  // and delivers the same rows, recording the downgrade.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(17, 250, 7, 70));
  Middleware::Config config = StableConfig();
  Middleware mw(&db, config);
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  auto baseline = mw.Query(kAggrQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_FALSE(baseline.ValueOrDie().degraded);

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "SELECT";
  plan.times = config.retry.max_attempts;  // budget gone, then outage ends
  injector->Arm(plan);
  auto degraded = mw.Query(kAggrQuery);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.ValueOrDie().degraded);
  EXPECT_EQ(mw.recovery_counters().downgrades.load(), 1u);
  EXPECT_EQ(mw.recovery_counters().tm_retries.load(),
            static_cast<uint64_t>(config.retry.max_attempts - 1));
  EXPECT_EQ(RowSet(degraded.ValueOrDie()), RowSet(baseline.ValueOrDie()));
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, TransferDFailureDegradesToMiddlewareOnly) {
  // The temp-table CREATE fails permanently: TRANSFER^D is unusable, so
  // the fallback must avoid the DBMS side entirely (middleware-only) —
  // and succeed even though the injector is still armed.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(19, 200, 6, 60));
  Middleware mw(&db, StableConfig());
  ForceTransferDShape(&mw.cost_model().factors());
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  auto baseline = mw.Query(kTransferDQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "CREATE TABLE TANGO_TMP";
  plan.times = 1000;
  injector->Arm(plan);
  auto degraded = mw.Query(kTransferDQuery);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.ValueOrDie().degraded);
  EXPECT_EQ(mw.recovery_counters().downgrades.load(), 1u);
  EXPECT_GE(mw.recovery_counters().td_retries.load(), 1u);
  EXPECT_EQ(RowSet(degraded.ValueOrDie()), RowSet(baseline.ValueOrDie()));
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

// A ResultSink that records what reaches it and can refuse blocks, as a
// client that hangs up does.
class RecordingSink : public Middleware::ResultSink {
 public:
  explicit RecordingSink(bool fail_blocks = false) : fail_blocks_(fail_blocks) {}

  void OnSchema(const Schema&) override { ++schemas; }

  Status OnBlock(RowBlock* block) override {
    ++blocks;
    if (fail_blocks_) return Status::IOError("client gone");
    MoveRowsInto(block, &exec.rows);
    return Status::OK();
  }

  int schemas = 0;
  int blocks = 0;
  Middleware::Execution exec;  // only `rows`, for RowSet

 private:
  bool fail_blocks_;
};

TEST(RecoveryTest, FailingSinkStopsTheDrainAndTheJanitorCleansUp) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(31, 300, 8, 80));
  Middleware mw(&db, StableConfig());
  ForceTransferDShape(&mw.cost_model().factors());
  auto prepared = mw.Prepare(kTransferDQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_NE(prepared.ValueOrDie().plan->ToString().find("TRANSFER^D"),
            std::string::npos);

  RecordingSink sink(/*fail_blocks=*/true);
  auto r = mw.Execute(prepared.ValueOrDie(), &sink);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
  EXPECT_EQ(sink.blocks, 1);  // the drain stopped at the refused block
  EXPECT_EQ(mw.recovery_counters().downgrades.load(), 0u);
  EXPECT_GE(mw.recovery_counters().temp_tables_dropped.load(), 1u);
  EXPECT_FALSE(CatalogHasTempTables(&db));
  EXPECT_EQ(mw.metrics().gauge("query.active").load(), 0);
}

TEST(RecoveryTest, StreamDegradesOnlyBeforeItsFirstBlock) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(37, 400, 9, 90));
  Middleware::Config config = StableConfig();
  config.wire.row_prefetch = 16;  // the root T^M hands over 16-row blocks
  Middleware mw(&db, config);
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);
  const char* query = "TEMPORAL SELECT G, V, T1, T2 FROM R WHERE V < 40";
  auto prepared = mw.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  RecordingSink baseline;
  ASSERT_TRUE(mw.Execute(prepared.ValueOrDie(), &baseline).ok());
  ASSERT_GT(baseline.blocks, 3);

  // An outage exhausting the T^M budget before any row: the fallback plan
  // runs and the sink receives its full result.
  dbms::FaultPlan before;
  before.kind = dbms::FaultKind::kStatementFail;
  before.sql_substring = "SELECT";
  before.times = config.retry.max_attempts;
  injector->Arm(before);
  RecordingSink degraded;
  auto d = mw.Execute(prepared.ValueOrDie(), &degraded);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d.ValueOrDie().degraded);
  EXPECT_TRUE(d.ValueOrDie().rows.empty());  // streamed, not collected
  EXPECT_EQ(degraded.schemas, 2);  // the failed attempt's, then the fallback's
  EXPECT_EQ(RowSet(degraded.exec), RowSet(baseline.exec));
  EXPECT_EQ(mw.recovery_counters().downgrades.load(), 1u);

  // The same exhaustion after two blocks reached the sink: the failure
  // stands, no fallback runs.
  dbms::FaultPlan after;
  after.kind = dbms::FaultKind::kCursorKill;
  after.batch_index = 2;  // every re-issue dies on its third batch
  after.times = 1000;
  injector->Arm(after);
  RecordingSink partial;
  auto f = mw.Execute(prepared.ValueOrDie(), &partial);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kUnavailable)
      << f.status().ToString();
  EXPECT_EQ(partial.schemas, 1);
  EXPECT_EQ(partial.blocks, 2);
  EXPECT_EQ(mw.recovery_counters().downgrades.load(), 1u);
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, CancelBeforeExecutionAborts) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(21, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  auto control = std::make_shared<QueryControl>();
  control->Cancel();
  auto r = mw.Query(kAggrQuery, control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status().ToString();
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, MidQueryCancelUnwindsPacedPlan) {
  // A paced query cancelled from another thread mid-flight must unwind
  // promptly — the transfer polls the control between wire batches — and
  // leave no temp tables behind.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(25, 500, 8, 100));
  Middleware::Config config;
  config.adapt = false;
  config.wire.simulate_delay = true;
  config.wire.bytes_per_second = 2e4;  // slow link: plenty of time to cancel
  Middleware mw(&db, config);

  auto control = std::make_shared<QueryControl>();
  std::thread canceller([control] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    control->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto r = mw.Query(kAggrQuery, control);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status().ToString();
  // Far below what the full transfer would have taken on this link; mostly
  // a guard against a transfer that stops polling the control.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, DeadlineExpiresDuringLatencySpike) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(27, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kLatencySpike;
  plan.latency_seconds = 0.5;
  plan.times = 1000;
  injector->Arm(plan);

  auto control = std::make_shared<QueryControl>();
  control->SetDeadline(0.05);
  const auto start = std::chrono::steady_clock::now();
  auto r = mw.Query(kAggrQuery, control);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  // The spike sleeps in small slices polling the control, so the query
  // dies at the deadline, not after the full stall — and kTimeout is not
  // retryable, so no backoff loop piles on top.
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << r.status().ToString();
  EXPECT_LT(elapsed, 2.0);
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, JanitorCountsLeaksAndStartupSweepReclaims) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(29, 200, 6, 60));
  {
    Middleware mw(&db, StableConfig());
    ForceTransferDShape(&mw.cost_model().factors());
    auto injector = std::make_shared<dbms::FaultInjector>();
    mw.connection().set_fault_injector(injector);

    dbms::FaultPlan plan;
    plan.kind = dbms::FaultKind::kStatementFail;
    plan.sql_substring = "DROP TABLE TANGO_TMP";
    plan.times = 1000;
    injector->Arm(plan);

    // The query itself succeeds; only its cleanup is being sabotaged.
    auto r = mw.Query(kTransferDQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().cleanup_status.ok());
    EXPECT_GE(mw.recovery_counters().drop_retries.load(), 1u);
    EXPECT_GE(mw.recovery_counters().temp_table_drop_failures.load(), 1u);
    EXPECT_GE(mw.recovery_counters().temp_tables_leaked.load(), 1u);
    EXPECT_TRUE(CatalogHasTempTables(&db));
  }
  // A fresh middleware (fault gone) reclaims the orphans at startup.
  Middleware fresh(&db, StableConfig());
  EXPECT_GE(fresh.recovery_counters().orphans_swept.load(), 1u);
  EXPECT_FALSE(CatalogHasTempTables(&db));
}

TEST(RecoveryTest, StartupSweepReclaimsCheckpointedWalSegments) {
  // Durable garbage variant of the orphan sweep: WAL segments fully covered
  // by a checkpoint snapshot are dead weight a crashed run can leave
  // behind; the janitor's startup sweep asks the engine to truncate them.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tango_rec_walsweep_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    dbms::EngineOptions opts;
    opts.wal_dir = dir.string();
    opts.wal_segment_bytes = 1 << 10;  // force many small segments
    dbms::Engine db(opts);
    ASSERT_TRUE(db.Open().ok());
    Load(&db, "R", MakeRelation(29, 200, 6, 60));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (1, " +
                             std::to_string(i) + ", 0, 10)")
                      .ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());

    size_t segments_before = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".seg") ++segments_before;
    }
    ASSERT_GT(segments_before, 1u);

    Middleware mw(&db, StableConfig());
    EXPECT_GE(mw.recovery_counters().wal_segments_reclaimed.load(), 1u);

    size_t segments_after = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".seg") ++segments_after;
    }
    EXPECT_LT(segments_after, segments_before);

    // The surviving log still recovers the full table.
    Middleware again(&db, StableConfig());
    EXPECT_EQ(again.recovery_counters().wal_segments_reclaimed.load(), 0u);
  }
  {
    dbms::EngineOptions opts;
    opts.wal_dir = dir.string();
    opts.wal_segment_bytes = 1 << 10;
    dbms::Engine db(opts);
    ASSERT_TRUE(db.Open().ok());
    auto r = db.Execute("SELECT * FROM R");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().rows.size(), 250u);
  }
  fs::remove_all(dir);
}

TEST(RecoveryTest, RetryStateDisciplines) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky");
  EXPECT_TRUE(state.ShouldRetry(transient));
  // Internal errors are never retried: the bug won't go away.
  EXPECT_FALSE(state.ShouldRetry(Status::Internal("bug")));
  // kTimeout is transient but not retryable (the deadline governs).
  EXPECT_FALSE(state.ShouldRetry(Status::Timeout("deadline")));

  ASSERT_TRUE(state.Backoff(nullptr).ok());
  EXPECT_TRUE(state.ShouldRetry(transient));
  ASSERT_TRUE(state.Backoff(nullptr).ok());
  EXPECT_FALSE(state.ShouldRetry(transient)) << "budget of 3 attempts";

  // Backoff fails fast on a dead control instead of sleeping.
  auto cancelled = std::make_shared<QueryControl>();
  cancelled->Cancel();
  RetryState s2(policy);
  EXPECT_EQ(s2.Backoff(cancelled).code(), StatusCode::kAborted);

  auto expiring = std::make_shared<QueryControl>();
  expiring->SetDeadline(1e-9);
  RetryState s3(policy);
  EXPECT_EQ(s3.Backoff(expiring).code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace tango
