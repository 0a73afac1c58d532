#ifndef TANGO_ADAPT_FEEDBACK_H_
#define TANGO_ADAPT_FEEDBACK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace tango {
namespace adapt {

/// One plan node's estimate-vs-actual cardinality from an instrumented
/// execution. `node_key` is the memo group key (optimizer::PhysPlan::
/// feedback_key) — stable across re-optimizations and literal variants of
/// the same fingerprint, which is exactly what lets an observation recorded
/// under one plan shape steer the next optimization of the query.
struct Observation {
  uint64_t node_key = 0;
  double est_rows = 0;
  uint64_t act_rows = 0;
};

/// Cardinality-estimation error: max(est, act) / min(est, act), with both
/// sides floored at one row so empty results and zero estimates stay
/// finite. Always >= 1; 1 is a perfect estimate.
double QError(double estimated, double actual);

/// \brief Per-fingerprint store of observed cardinalities (the feedback half
/// of the adaptive loop; the plan cache holds the plans).
///
/// Thread-safe: pool workers finishing concurrent queries may record while
/// a re-optimization reads overrides.
class FeedbackStore {
 public:
  /// Records one execution's observations (last write wins per node) and
  /// returns the worst Q-error among them (1.0 when empty).
  double Record(uint64_t fingerprint,
                const std::vector<Observation>& observations);

  /// Observed cardinalities for a fingerprint, keyed by memo group key —
  /// injected over the §3.3 estimates on re-optimization. Empty when the
  /// fingerprint has never executed.
  std::map<uint64_t, double> OverridesFor(uint64_t fingerprint) const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::map<uint64_t, double>> observed_;
};

}  // namespace adapt
}  // namespace tango

#endif  // TANGO_ADAPT_FEEDBACK_H_
