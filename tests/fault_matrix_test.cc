// The fault matrix (robustness contract of the middleware<->DBMS boundary):
// for representative queries, every statement index x every fault kind must
// yield either the correct result after retries or a clean transient error —
// never kInternal, never a crash, never a leaked temp table that the sweep
// cannot reclaim. Runs under ASan/TSan via scripts/check.sh.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
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

// Adaptation off: feedback would drift the plan shape mid-matrix and
// change the statement numbering between runs.
Middleware::Config MatrixConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  return config;
}

// Query's statements without its degradation: Prepare, then the Execute
// overload that runs the plan alone, so every cell's outcome is crisp
// succeed-or-transient. (Degraded fallbacks are exercised in
// recovery_test.cc.)
Result<Middleware::Execution> RunUndegraded(Middleware* mw,
                                            const std::string& sql) {
  TANGO_ASSIGN_OR_RETURN(Middleware::Prepared prepared, mw->Prepare(sql));
  return mw->Execute(prepared.plan);
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

// Runs `sql` under every (fault kind, statement index) cell, twice: once
// with times=1 (must recover to the baseline rows) and once with times
// beyond any retry budget (must fail with a transient code or still
// succeed when the faulted statement has no cursor to kill / the spike
// meets no deadline).
void RunMatrix(dbms::Engine* db, const std::string& sql,
               void (*tweak)(cost::CostFactors*)) {
  auto injector = std::make_shared<dbms::FaultInjector>();
  Middleware mw(db, MatrixConfig());
  if (tweak != nullptr) tweak(&mw.cost_model().factors());
  mw.connection().set_fault_injector(injector);

  // Baseline: a disarmed injector still numbers the statements, giving the
  // matrix its width N and the expected rows.
  injector->Arm(dbms::FaultPlan{});
  auto baseline = RunUndegraded(&mw, sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::multiset<std::string> expected = RowSet(baseline.ValueOrDie());
  const uint64_t n_statements = injector->statements_seen();
  ASSERT_GT(n_statements, 0u);
  ASSERT_FALSE(CatalogHasTempTables(db));
  EXPECT_GT(mw.connection().counters().bytes_to_client, 0u);
  EXPECT_GT(mw.connection().counters().statements, 0u);

  const dbms::FaultKind kinds[] = {
      dbms::FaultKind::kStatementFail, dbms::FaultKind::kCursorKill,
      dbms::FaultKind::kWireTruncate, dbms::FaultKind::kWireCorrupt,
      dbms::FaultKind::kLatencySpike};

  for (dbms::FaultKind kind : kinds) {
    for (uint64_t idx = 0; idx < n_statements; ++idx) {
      for (const int times : {1, 1000}) {
        dbms::FaultPlan plan;
        plan.kind = kind;
        plan.statement_index = idx;
        plan.times = times;
        plan.latency_seconds = 1e-3;  // keep spike cells fast
        plan.seed = 0xfa017 + idx * 31 + static_cast<uint64_t>(kind);
        injector->Arm(plan);

        auto r = RunUndegraded(&mw, sql);
        const std::string cell = std::string(dbms::FaultKindName(kind)) +
                                 " @stmt " + std::to_string(idx) +
                                 " x" + std::to_string(times);

        if (times == 1) {
          // One firing is always within the retry budget: the query must
          // come back with exactly the baseline rows. (Cursor faults armed
          // on a statement with no result cursor simply never fire.)
          ASSERT_TRUE(r.ok()) << cell << ": " << r.status().ToString();
          EXPECT_EQ(RowSet(r.ValueOrDie()), expected) << cell;
        } else if (r.ok()) {
          // Beyond-budget cells may still succeed when the fault found
          // nothing to bite (no cursor at this index, spike without a
          // deadline) — but then the rows must be right.
          EXPECT_EQ(RowSet(r.ValueOrDie()), expected) << cell;
        } else {
          // The failure contract: a clean transient code, never an
          // internal error or a garbled-data crash.
          EXPECT_TRUE(IsTransientCode(r.status().code()))
              << cell << ": " << r.status().ToString();
        }

        injector->Disarm();
        // Cleanup guarantee: the janitor drops every temp table unless the
        // fault was hitting the drops themselves; those leaks are counted
        // and the orphan sweep reclaims them.
        if (CatalogHasTempTables(db)) {
          EXPECT_EQ(kind, dbms::FaultKind::kStatementFail) << cell;
          EXPECT_GT(mw.recovery_counters().temp_tables_leaked.load(), 0u)
              << cell;
          ASSERT_TRUE(mw.SweepOrphanTempTables().ok()) << cell;
        }
        ASSERT_FALSE(CatalogHasTempTables(db)) << cell;
      }
    }
  }

  // The wire counters survived the whole matrix (attempted statements are
  // paced and counted too, so the totals only ever grow).
  EXPECT_GT(mw.connection().counters().statements, n_statements);
  EXPECT_GT(mw.connection().counters().bytes_to_client, 0u);
}

TEST(FaultMatrixTest, Query1TemporalAggregation) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(7, 150, 6, 60));
  RunMatrix(&db,
            "TEMPORAL SELECT G, T1, T2, COUNT(G) AS CNT FROM R "
            "GROUP BY G OVER TIME ORDER BY G, T1",
            nullptr);
}

TEST(FaultMatrixTest, Query2TemporalJoin) {
  dbms::Engine db;
  Load(&db, "RA", MakeRelation(11, 120, 5, 50));
  Load(&db, "RB", MakeRelation(11 ^ 0xbeef, 100, 5, 50));
  RunMatrix(&db,
            "TEMPORAL SELECT X.G, X.V, Y.V FROM RA X, RB Y "
            "WHERE X.G = Y.G ORDER BY G",
            nullptr);
}

TEST(FaultMatrixTest, Query3AggregationJoinWithTransferD) {
  // Cost factors force the aggregate into the middleware and the join into
  // the DBMS, so the plan must ship the aggregate down through TRANSFER^D —
  // putting the temp-table CREATE / BULKLOAD / DROP statements into the
  // matrix alongside the SELECTs.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(23, 150, 6, 60));
  RunMatrix(&db,
            "TEMPORAL SELECT C.G, V, CNT FROM "
            "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R "
            "GROUP BY G OVER TIME) C, R S WHERE C.G = S.G ORDER BY G",
            [](cost::CostFactors* f) {
              f->tjm = f->mjm = 1e9;      // no middleware join
              f->taggd1 = f->taggd2 = 1e9;  // no DBMS aggregation
            });
}

TEST(FaultMatrixTest, Query4CoalescedAggregation) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(31, 150, 6, 60));
  RunMatrix(&db,
            "TEMPORAL SELECT COALESCE G, CNT FROM "
            "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R "
            "GROUP BY G OVER TIME) C ORDER BY G, T1",
            nullptr);
}

}  // namespace
}  // namespace tango
