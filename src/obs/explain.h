#ifndef TANGO_OBS_EXPLAIN_H_
#define TANGO_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tango {
namespace obs {

/// \brief Per-operator estimate-vs-actual record of one executed plan.
///
/// One observation per executed cursor (middleware algorithms and the two
/// transfers; the DBMS fragment below a TRANSFER^M executes inside the DBMS
/// and is summarized by the transfer's SQL). Indexed by the timing-sink id,
/// so the tree structure in `children` matches the instrumented cursor
/// tree.
struct OpObservation {
  std::string label;  // algorithm name, e.g. "TAGGR^M"
  char site = 'M';    // 'M' middleware, 'D' DBMS
  size_t timing_id = 0;
  std::vector<size_t> children;  // timing ids of wrapped children

  /// Optimizer-side estimates for this plan node.
  double est_rows = 0;
  double est_bytes = 0;
  double est_cost_us = 0;  // inclusive (subtree) cost estimate

  /// Measured by the instrumented execution.
  uint64_t act_rows = 0;
  /// Non-empty RowBlocks the operator produced.
  uint64_t act_batches = 0;
  double inclusive_seconds = 0;
  double self_seconds = 0;  // inclusive minus children (clamped at >= 0)

  /// The SELECT a TRANSFER^M issued (empty for other operators).
  std::string sql;
};

/// \brief EXPLAIN ANALYZE payload: the observation tree plus query totals.
struct AnalyzeReport {
  std::vector<OpObservation> ops;  // indexed by timing id
  size_t root = 0;                 // timing id of the plan root
  double elapsed_seconds = 0;
  uint64_t result_rows = 0;
};

/// Cardinality-estimation error: max(est, act) / min(est, act), with both
/// sides floored at one row so empty results and zero estimates stay
/// finite. Always >= 1; 1 is a perfect estimate.
double QError(double estimated, double actual);

/// Human-readable per-operator tree:
///   TAGGR^M [M] rows est=6 act=34 q=5.67 cost=1234us self=0.2ms incl=1.1ms
/// Children are indented under their parents, root first. TRANSFER^D
/// produces no tuples (it loads them into the DBMS), so its actual-rows and
/// Q-error columns render as "-".
std::string RenderAnalyzeTree(const AnalyzeReport& report);

}  // namespace obs
}  // namespace tango

#endif  // TANGO_OBS_EXPLAIN_H_
