// Golden-snapshot tests for EXPLAIN ANALYZE: the four fault-matrix queries
// rendered with volatile time fields masked, so the snapshots pin the exact
// tree shape, sites, estimated/actual row columns, and Q-errors — plus
// report-level invariants and a Q-error bound on the UIS workload after
// ANALYZE.

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
      "    PROJECT^M [M] rows est=176 act=205 q=1.16 batches=# cost=# self=# incl=#\n"
      "      SORT^M [M] rows est=176 act=205 q=1.16 batches=# cost=# self=# incl=#\n"
      "        TAGGR^M [M] rows est=176 act=205 q=1.16 batches=# cost=# self=# incl=#\n"
      "          TRANSFER^M [M] rows est=150 act=150 q=1.00 batches=# cost=# self=# "
      "incl=#\n";
  EXPECT_EQ(golden, actual) << "actual:\n" << actual;
}

// ---------------------------------------------------------------------------
// Report-level invariants (independent of the rendered text).

TEST(AnalyzeReportTest, InvariantsHoldForQuery2) {
  dbms::Engine db;
  Load(&db, "RA", MakeRelation(11, 120, 5, 50));
  Load(&db, "RB", MakeRelation(11 ^ 0xbeef, 100, 5, 50));
  Middleware mw(&db, StableConfig());
  auto prepared = mw.Prepare(kQuery2);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto r = mw.Analyze(prepared.ValueOrDie());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::AnalyzeReport& report = r.ValueOrDie();

  ASSERT_FALSE(report.ops.empty());
  ASSERT_LT(report.root, report.ops.size());
  EXPECT_GT(report.result_rows, 0u);

  const obs::OpObservation& root = report.ops[report.root];
  // The root operator delivers the query's result rows, and its inclusive
  // time is part of (hence bounded by) the query's elapsed time.
  EXPECT_EQ(root.act_rows, report.result_rows);
  EXPECT_LE(root.inclusive_seconds, report.elapsed_seconds);

  std::vector<bool> is_child(report.ops.size(), false);
  for (const obs::OpObservation& op : report.ops) {
    EXPECT_EQ(op.site == 'M' || op.site == 'D', true) << op.label;
    EXPECT_GE(op.self_seconds, 0.0) << op.label;
    EXPECT_LE(op.self_seconds, op.inclusive_seconds + 1e-9) << op.label;
    EXPECT_GE(obs::QError(op.est_rows, static_cast<double>(op.act_rows)), 1.0)
        << op.label;
    for (size_t c : op.children) {
      ASSERT_LT(c, report.ops.size());
      is_child[c] = true;
      // A child's inclusive interval is contained in the parent's work.
      EXPECT_LE(report.ops[c].inclusive_seconds,
                op.inclusive_seconds + 1e-9)
          << op.label << " -> " << report.ops[c].label;
    }
  }
  // Exactly one root: every other observation is some operator's child.
  EXPECT_FALSE(is_child[report.root]);
  for (size_t i = 0; i < report.ops.size(); ++i) {
    if (i != report.root) {
      EXPECT_TRUE(is_child[i]) << report.ops[i].label;
    }
  }
}

TEST(AnalyzeReportTest, QErrorDefinition) {
  EXPECT_DOUBLE_EQ(obs::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(obs::QError(5, 20), 4.0);
  EXPECT_DOUBLE_EQ(obs::QError(20, 5), 4.0);
  // Both sides floored at one row: empty results stay finite.
  EXPECT_DOUBLE_EQ(obs::QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::QError(0, 8), 8.0);
  EXPECT_DOUBLE_EQ(obs::QError(8, 0), 8.0);
}

// ---------------------------------------------------------------------------
// Q-error bound on the UIS workload: with collected statistics (ANALYZE has
// run), the optimizer's cardinality estimates for the paper's Query 1 stay
// within a fixed factor of the measured row counts at every operator.

TEST(AnalyzeReportTest, UisQuery1QErrorBoundAfterAnalyze) {
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
  const obs::AnalyzeReport& report = r.ValueOrDie();

  double worst = 1.0;
  std::string worst_op;
  for (const obs::OpObservation& op : report.ops) {
    if (op.label.find("TRANSFER^D") != std::string::npos) continue;
    const double q =
        obs::QError(op.est_rows, static_cast<double>(op.act_rows));
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
