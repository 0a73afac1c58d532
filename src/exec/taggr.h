#ifndef TANGO_EXEC_TAGGR_H_
#define TANGO_EXEC_TAGGR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "expr/expr.h"

namespace tango {
namespace exec {

/// One aggregate computed by TAGGR^M: function, argument column in the child
/// schema (ignored for COUNT(*) where `star` is set).
struct TAggrSpec {
  AggFunc func = AggFunc::kCount;
  size_t arg = 0;
  bool star = false;
};

/// \brief TAGGR^M: the middleware temporal aggregation algorithm (§3.4).
///
/// The argument must arrive sorted on (group columns..., T1) — produced by
/// an external SORT^M or SORT^D, exactly as the paper requires. Internally,
/// a second copy of each group is sorted on T2, and the two copies are
/// traversed like a sort-merge join: a plane sweep over period endpoints
/// that maintains running aggregate state and emits one tuple per constant
/// period during which the group is non-empty.
///
/// COUNT/SUM/AVG use incrementally updatable counters; MIN/MAX keep a
/// multiset because tuple expiry is not invertible for them.
///
/// Output: group values, T1, T2, aggregate values — ordered on
/// (group columns..., T1), which is why "additional sorting is not needed"
/// after it (the paper's observation on Query 1).
class TemporalAggregationCursor : public Cursor {
 public:
  TemporalAggregationCursor(CursorPtr child, std::vector<size_t> group_cols,
                            size_t t1, size_t t2, std::vector<TAggrSpec> aggs,
                            Schema out_schema);

  Status Init() override;
  /// Moves already-swept constant-interval tuples out in bulk, sweeping
  /// further groups as needed to fill the block.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

 private:
  // Running aggregate state for one spec within the sweep.
  struct AggState {
    int64_t count = 0;
    double sum = 0;
    bool sum_is_int = true;
    std::multiset<Value> values;  // only for MIN/MAX
  };

  /// Reads the next group (consecutive rows with equal group columns) into
  /// `group_rows_`; false when the input is exhausted.
  Result<bool> LoadNextGroup();

  /// Runs the sweep over the loaded group, filling `output_`.
  void SweepGroup();

  void Add(const Tuple& row);
  void Remove(const Tuple& row);
  Value CurrentValue(size_t agg_index) const;

  CursorPtr child_;
  BatchedReader reader_;
  std::vector<size_t> group_cols_;
  size_t t1_, t2_;
  std::vector<TAggrSpec> aggs_;
  Schema schema_;

  std::vector<Tuple> group_rows_;
  Tuple pending_;
  bool pending_valid_ = false;
  bool input_done_ = false;

  std::vector<AggState> states_;
  std::vector<Tuple> output_;
  size_t out_pos_ = 0;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_TAGGR_H_
