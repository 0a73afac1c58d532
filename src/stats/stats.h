#ifndef TANGO_STATS_STATS_H_
#define TANGO_STATS_STATS_H_

#include <vector>

#include "algebra/algebra.h"
#include "common/schema.h"
#include "dbms/catalog.h"
#include "expr/expr.h"
#include "stats/histogram.h"

namespace tango {
namespace stats {

/// Per-attribute statistics as the middleware sees them (derived from the
/// DBMS catalog for base relations, propagated through operators for
/// intermediate relations).
struct ColumnInfo {
  bool numeric = false;
  double min = 0;
  double max = 0;
  double num_distinct = 1;
  double avg_width = 9;     // encoded bytes incl. tag
  Histogram histogram;      // may be empty
};

/// Statistics of one (possibly intermediate) relation.
struct RelStats {
  double cardinality = 0;
  double avg_tuple_bytes = 0;
  std::vector<ColumnInfo> columns;  // parallel to the schema
  /// The table's modification epoch at collection time (base relations
  /// only; 0 for intermediates). The middleware compares it against the
  /// live epoch to decide whether these statistics are stale — see
  /// Middleware::RefreshStatisticsIfStale.
  uint64_t source_epoch = 0;

  /// The paper's size(r): total bytes = cardinality x average tuple size.
  double size() const { return cardinality * avg_tuple_bytes; }
};

/// Converts DBMS catalog statistics (ANALYZE output, fetched over the
/// connection by the Statistics Collector) into middleware statistics.
RelStats FromTableStats(const dbms::TableStats& table_stats,
                        const Schema& schema);

// ---- §3.3: temporal selectivity estimation ----

/// Paper's StartBefore(A, r): estimated number of tuples whose T1 < A.
/// Uses the T1 histogram when available, otherwise min/max interpolation.
double StartBefore(double a, const RelStats& rel, size_t t1_col);

/// Paper's EndBefore(A, r): estimated number of tuples whose T2 < A.
double EndBefore(double a, const RelStats& rel, size_t t2_col);

/// Estimated cardinality of σ_{Overlaps(A,B)}(r) — the semantic estimate
/// StartBefore(B) - EndBefore(A + 1) that exploits T1 <= T2.
double EstimateOverlapsCardinality(double a, double b, const RelStats& rel,
                                   size_t t1_col, size_t t2_col);

/// Estimated cardinality of the timeslice σ_{T1 <= A AND T2 > A}(r):
/// StartBefore(A + 1) - EndBefore(A + 1).
double EstimateTimesliceCardinality(double a, const RelStats& rel,
                                    size_t t1_col, size_t t2_col);

/// Standard (non-temporal) selectivity of a single `col op literal`
/// comparison; histogram interpolation when available.
double ComparisonSelectivity(const RelStats& rel, size_t column, BinaryOp op,
                             double literal);

/// Selectivity of an arbitrary predicate over `schema`/`rel`.
///
/// With `semantic_temporal` set (the default), conjunct pairs of the shape
/// (T1 < B, T2 > A) are recognized as Overlaps(A, B) and estimated with
/// StartBefore/EndBefore; otherwise every conjunct is estimated
/// independently — the paper's straightforward method that §3.3 shows is a
/// factor of ~40 off. Both modes are exposed so the experiment can compare
/// them.
double EstimateSelectivity(const ExprPtr& predicate, const Schema& schema,
                           const RelStats& rel, bool semantic_temporal = true);

// ---- §3.4: temporal aggregation cardinality ----

/// Result-cardinality bounds and the paper's 60%-of-max point estimate.
struct TAggrCardinality {
  double min = 1;
  double max = 0;
  double estimate = 1;
};

TAggrCardinality EstimateTAggrCardinality(const RelStats& child,
                                          const std::vector<size_t>& group_cols,
                                          size_t t1_col, size_t t2_col);

// ---- derived statistics for every algebra operator ----

/// Derives the output statistics of `op` from its children's statistics.
/// This is what lets the optimizer cost plans bottom-up.
Result<RelStats> Derive(const algebra::Op& op,
                        const std::vector<const RelStats*>& children,
                        bool semantic_temporal = true);

}  // namespace stats
}  // namespace tango

#endif  // TANGO_STATS_STATS_H_
