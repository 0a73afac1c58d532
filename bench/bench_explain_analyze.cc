// EXPLAIN ANALYZE demonstration: Query 1 (Figure 8's temporal aggregation)
// on the POSITION variant nearest the Plan-1/Plan-2 crossover region
// (~27k tuples), executed through Middleware::ExplainAnalyze so the printed
// tree shows, per operator, estimated vs actual rows, Q-error, and the
// estimated cost next to the measured self/inclusive times.

#include "bench_util.h"

namespace tango {
namespace bench {
namespace {

int Main() {
  std::printf("=== EXPLAIN ANALYZE: Query 1 at the Figure-8 crossover ===\n");
  std::printf("scale=%.2f\n\n", Scale());

  dbms::Engine db;
  workload::UisOptions opts;
  const size_t n = Scaled(27000);
  const std::string table = "POSITION_27000";
  if (!workload::LoadPositionVariant(&db, table, n, opts).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }

  Middleware mw(&db);
  auto prepared = mw.Prepare(
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM " + table +
      " GROUP BY PosID OVER TIME ORDER BY PosID");
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }

  auto rendered = mw.ExplainAnalyze(prepared.ValueOrDie());
  if (!rendered.ok()) {
    std::fprintf(stderr, "explain analyze failed: %s\n",
                 rendered.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", rendered.ValueOrDie().c_str());

  // The data form drives the shape checks: estimates within a sane factor
  // of the actuals, and the measured tree accounts for the elapsed time.
  auto analyzed = mw.Analyze(prepared.ValueOrDie());
  if (!analyzed.ok()) {
    std::fprintf(stderr, "analyze failed: %s\n",
                 analyzed.status().ToString().c_str());
    return 1;
  }
  const Middleware::Execution& r = analyzed.ValueOrDie();
  double worst_q = 1.0;
  for (const exec::AlgorithmTiming& op : r.timings) {
    if (op.label == "TRANSFER^D") continue;
    worst_q = std::max(worst_q, adapt::QError(op.plan->est_cardinality,
                                              static_cast<double>(op.rows)));
  }

  ShapeChecks checks;
  checks.Check(!r.rows.empty(), "query produced rows");
  checks.Check(worst_q <= 16.0, "worst per-operator Q-error <= 16 (got " +
                                    std::to_string(worst_q) + ")");
  checks.Check(
      r.timings.back().inclusive_seconds <= r.elapsed_seconds,
      "root inclusive time within the query's elapsed time");
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tango

int main() { return tango::bench::Main(); }
