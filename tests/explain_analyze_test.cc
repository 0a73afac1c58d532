// Golden-snapshot tests for EXPLAIN ANALYZE: the four fault-matrix queries
// rendered with volatile time fields masked, so the snapshots pin the exact
// tree shape, sites, estimated/actual row columns, and Q-errors — plus
// invariants of the per-operator records and a Q-error bound on the UIS
// workload after ANALYZE.

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tango/middleware.h"
#include "workload/uis.h"

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

// Adaptation off keeps the chosen plan (and therefore the snapshot) stable
// across runs; the simulated wire delay only adds noise to the masked time
// columns but costs real wall time.
Middleware::Config StableConfig() {
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  return config;
}

// Masks the volatile measured-time fields (and the calibration-dependent
// cost estimate), leaving tree shape, sites, row counts, and Q-errors
// exact:  "cost=1234us self=0.2ms" -> "cost=# self=#".
std::string Normalize(const std::string& rendered) {
  static const std::regex volatile_fields(
      R"((cost|self|incl|elapsed|batches)=[^\s]+)");
  return std::regex_replace(rendered, volatile_fields, "$1=#");
}

std::string RunExplainAnalyze(Middleware* mw, const std::string& sql) {
  auto prepared = mw->Prepare(sql);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (!prepared.ok()) return "";
  auto rendered = mw->ExplainAnalyze(prepared.ValueOrDie());
  EXPECT_TRUE(rendered.ok()) << rendered.status().ToString();
  if (!rendered.ok()) return "";
  return Normalize(rendered.ValueOrDie());
}

const char* const kQuery1 =
    "TEMPORAL SELECT G, T1, T2, COUNT(G) AS CNT FROM R "
    "GROUP BY G OVER TIME ORDER BY G, T1";
const char* const kQuery2 =
    "TEMPORAL SELECT X.G, X.V, Y.V FROM RA X, RB Y "
    "WHERE X.G = Y.G ORDER BY G";
const char* const kQuery3 =
    "TEMPORAL SELECT C.G, V, CNT FROM "
    "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R "
    "GROUP BY G OVER TIME) C, R S WHERE C.G = S.G ORDER BY G";
const char* const kQuery4 =
    "TEMPORAL SELECT COALESCE G, CNT FROM "
    "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R "
    "GROUP BY G OVER TIME) C ORDER BY G, T1";

TEST(ExplainAnalyzeSnapshotTest, Query1TemporalAggregation) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(7, 150, 6, 60));
  Middleware mw(&db, StableConfig());
  const std::string actual = RunExplainAnalyze(&mw, kQuery1);
  const std::string golden =
      "EXPLAIN ANALYZE rows=199 elapsed=#\n"
      "plan: fresh, executions=1, reoptimized=0\n"
      "TAGGR^M [M] rows est=176 act=199 q=1.13 batches=# cost=# self=# incl=#\n"
      "  TRANSFER^M [M] rows est=150 act=150 q=1.00 batches=# cost=# self=# incl=#\n";
  EXPECT_EQ(golden, actual) << "actual:\n" << actual;
}

TEST(ExplainAnalyzeSnapshotTest, Query2TemporalJoin) {
  dbms::Engine db;
  Load(&db, "RA", MakeRelation(11, 120, 5, 50));
  Load(&db, "RB", MakeRelation(11 ^ 0xbeef, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  const std::string actual = RunExplainAnalyze(&mw, kQuery2);
  const std::string golden =
      "EXPLAIN ANALYZE rows=557 elapsed=#\n"
      "plan: fresh, executions=1, reoptimized=0\n"
      "TJOIN^M [M] rows est=440 act=557 q=1.27 batches=# cost=# self=# incl=#\n"
      "  TRANSFER^M [M] rows est=120 act=120 q=1.00 batches=# cost=# self=# incl=#\n"
      "  TRANSFER^M [M] rows est=100 act=100 q=1.00 batches=# cost=# self=# incl=#\n";
  EXPECT_EQ(golden, actual) << "actual:\n" << actual;
}

TEST(ExplainAnalyzeSnapshotTest, Query3AggregationJoinWithTransferD) {
  // The fault-matrix cost tweak: no middleware join, no DBMS aggregation —
  // the aggregate must ship down through TRANSFER^D, whose actual-rows and
  // Q-error columns must render as "-".
  dbms::Engine db;
  Load(&db, "R", MakeRelation(23, 150, 6, 60));
  Middleware mw(&db, StableConfig());
  cost::CostFactors* f = &mw.cost_model().factors();
  f->tjm = f->mjm = 1e9;
  f->taggd1 = f->taggd2 = 1e9;
  const std::string actual = RunExplainAnalyze(&mw, kQuery3);
  const std::string golden =
      "EXPLAIN ANALYZE rows=646 elapsed=#\n"
      "plan: fresh, executions=1, reoptimized=0\n"
      "TRANSFER^M [M] rows est=521 act=646 q=1.24 batches=# cost=# self=# incl=#\n"
      "  TRANSFER^D [D] rows est=176 act=- q=- batches=# cost=# self=# incl=#\n"
      "    TAGGR^M [M] rows est=176 act=195 q=1.11 batches=# cost=# self=# incl=#\n"
      "      TRANSFER^M [M] rows est=150 act=150 q=1.00 batches=# cost=# self=# incl=#\n";
  EXPECT_EQ(golden, actual) << "actual:\n" << actual;
  EXPECT_NE(actual.find("TRANSFER^D"), std::string::npos);
  EXPECT_NE(actual.find("act=- q=-"), std::string::npos);
}

TEST(ExplainAnalyzeSnapshotTest, Query4CoalescedAggregation) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(31, 150, 6, 60));
  Middleware mw(&db, StableConfig());
  const std::string actual = RunExplainAnalyze(&mw, kQuery4);
  const std::string golden =
      "EXPLAIN ANALYZE rows=177 elapsed=#\n"
      "plan: fresh, executions=1, reoptimized=0\n"
      "SORT^M [M] rows est=123 act=177 q=1.43 batches=# cost=# self=# incl=#\n"
      "  COALESCE^M [M] rows est=123 act=177 q=1.43 batches=# cost=# self=# incl=#\n"
      "    SORT^M [M] rows est=176 act=205 q=1.16 batches=# cost=# self=# incl=#\n"
      "      PROJECT^M [M] rows est=176 act=205 q=1.16 batches=# cost=# self=# incl=#\n"
      "        TAGGR^M [M] rows est=176 act=205 q=1.16 batches=# cost=# self=# incl=#\n"
      "          TRANSFER^M [M] rows est=150 act=150 q=1.00 batches=# cost=# self=# "
      "incl=#\n";
  EXPECT_EQ(golden, actual) << "actual:\n" << actual;
}

// ---------------------------------------------------------------------------
// Record-level invariants (independent of the rendered text).

TEST(AnalyzeRecordTest, InvariantsHoldForQuery2) {
  dbms::Engine db;
  Load(&db, "RA", MakeRelation(11, 120, 5, 50));
  Load(&db, "RB", MakeRelation(11 ^ 0xbeef, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  auto prepared = mw.Prepare(kQuery2);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto r = mw.Analyze(prepared.ValueOrDie());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Middleware::Execution& run = r.ValueOrDie();
  const exec::TimingSink& records = run.timings;

  ASSERT_FALSE(records.empty());
  EXPECT_FALSE(run.rows.empty());

  const exec::AlgorithmTiming& root = records.back();
  // The root operator delivers the query's result rows, and its inclusive
  // time is part of (hence bounded by) the query's elapsed time.
  EXPECT_EQ(root.rows, run.rows.size());
  EXPECT_LE(root.inclusive_seconds, run.elapsed_seconds);

  std::vector<bool> is_child(records.size(), false);
  for (size_t id = 0; id < records.size(); ++id) {
    const exec::AlgorithmTiming& op = records[id];
    ASSERT_NE(op.plan, nullptr) << op.label;
    EXPECT_EQ(op.label, optimizer::AlgorithmName(op.plan->algorithm));
    EXPECT_EQ(op.sql.empty(),
              op.plan->algorithm != optimizer::Algorithm::kTransferM)
        << op.label;
    const double self = exec::SelfSeconds(records, id);
    EXPECT_GE(self, 0.0) << op.label;
    EXPECT_LE(self, op.inclusive_seconds + 1e-9) << op.label;
    EXPECT_GE(adapt::QError(op.plan->est_cardinality,
                            static_cast<double>(op.rows)),
              1.0)
        << op.label;
    for (size_t c : op.child_ids) {
      // Compiled bottom-up: a child's record precedes its parent's.
      ASSERT_LT(c, id) << op.label;
      is_child[c] = true;
      // A child's inclusive interval is contained in the parent's work.
      EXPECT_LE(records[c].inclusive_seconds, op.inclusive_seconds + 1e-9)
          << op.label << " -> " << records[c].label;
    }
  }
  // Exactly one root, the last record: it is no record's child, and every
  // other record is some operator's child.
  EXPECT_FALSE(is_child.back());
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_TRUE(is_child[i]) << records[i].label;
  }
}

TEST(AnalyzeRecordTest, RecordsOutliveThePreparedPlan) {
  dbms::Engine db;
  Load(&db, "RA", MakeRelation(11, 120, 5, 50));
  Load(&db, "RB", MakeRelation(11 ^ 0xbeef, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  // The first Prepare puts the plan in the cache; the second rebinds a copy
  // that only the temporary Prepared owns, so that copy is freed when the
  // Analyze statement ends unless the records keep it alive.
  ASSERT_TRUE(mw.Prepare(kQuery2).ok());
  const uint64_t hits = mw.metrics().counter("plancache.hit").load();
  auto r = mw.Analyze(mw.Prepare(kQuery2).ValueOrDie());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(mw.metrics().counter("plancache.hit").load(), hits + 1);
  for (const exec::AlgorithmTiming& t : r.ValueOrDie().timings) {
    ASSERT_NE(t.plan, nullptr) << t.label;
    EXPECT_EQ(t.label, optimizer::AlgorithmName(t.plan->algorithm));
    EXPECT_GT(t.plan->est_cardinality, 0) << t.label;
    EXPECT_GT(t.plan->cost, 0) << t.label;
  }
}

TEST(AnalyzeRecordTest, SqlStatementsAreTheTransferMRecordsSql) {
  // Query 3's TRANSFER^D shape: the root TRANSFER^M reads the temporary
  // table a nested TRANSFER^M's aggregate was shipped into.
  dbms::Engine db;
  Load(&db, "R", MakeRelation(23, 150, 6, 60));
  Middleware mw(&db, StableConfig());
  cost::CostFactors* f = &mw.cost_model().factors();
  f->tjm = f->mjm = 1e9;
  f->taggd1 = f->taggd2 = 1e9;
  auto prepared = mw.Prepare(kQuery3);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto r = mw.Execute(prepared.ValueOrDie());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::vector<std::string> transfer_m_sql;
  size_t transfer_ds = 0;
  for (const exec::AlgorithmTiming& t : r.ValueOrDie().timings) {
    if (t.label == "TRANSFER^M") transfer_m_sql.push_back(t.sql);
    if (t.label == "TRANSFER^D") ++transfer_ds;
  }
  EXPECT_EQ(transfer_ds, 1u);
  ASSERT_EQ(transfer_m_sql.size(), 2u);
  EXPECT_EQ(r.ValueOrDie().sql_statements, transfer_m_sql);

  // EXPLAIN lists the same statements in the same order; it compiles the
  // plan afresh, so only the temporary table's per-execution name differs.
  auto explained = mw.Explain(prepared.ValueOrDie());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& text = explained.ValueOrDie();
  const std::string header = "SQL sent to the DBMS:\n";
  const size_t at = text.find(header);
  ASSERT_NE(at, std::string::npos);
  std::string listed;
  for (const std::string& sql : transfer_m_sql) listed += "  " + sql + "\n";
  const std::regex temp_name(R"(TANGO_TMP_\w+)");
  EXPECT_EQ(std::regex_replace(text.substr(at + header.size()), temp_name,
                               "TANGO_TMP"),
            std::regex_replace(listed, temp_name, "TANGO_TMP"));
}

// ---------------------------------------------------------------------------
// Q-error bound on the UIS workload: with collected statistics (ANALYZE has
// run), the optimizer's cardinality estimates for the paper's Query 1 stay
// within a fixed factor of the measured row counts at every operator.

TEST(AnalyzeRecordTest, UisQuery1QErrorBoundAfterAnalyze) {
  dbms::Engine db;
  workload::UisOptions opts;
  opts.employee_rows = 500;
  opts.position_rows = 4000;
  ASSERT_TRUE(workload::LoadUis(&db, opts).ok());

  Middleware mw(&db, StableConfig());
  auto prepared = mw.Prepare(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto r = mw.Analyze(prepared.ValueOrDie());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  double worst = 1.0;
  std::string worst_op;
  for (const exec::AlgorithmTiming& op : r.ValueOrDie().timings) {
    if (op.label == "TRANSFER^D") continue;
    const double q = adapt::QError(op.plan->est_cardinality,
                                   static_cast<double>(op.rows));
    if (q > worst) {
      worst = q;
      worst_op = op.label;
    }
  }
  // Regression bound: the temporal-aggregation estimate is the loosest in
  // this plan; anything past this factor means the estimator broke.
  EXPECT_LE(worst, 16.0) << "worst Q-error at " << worst_op;
}

}  // namespace
}  // namespace tango
