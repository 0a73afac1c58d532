#ifndef TANGO_EXEC_TAGGR_H_
#define TANGO_EXEC_TAGGR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/cursor.h"
#include "exec/periods.h"
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
/// The child's blocks are read in place. A group is buffered by column: its
/// key values once, its periods as int64 (`PeriodColumns`, with a Value
/// path for endpoints that are not ints) and each aggregate's arguments;
/// the T2 copy is a vector of row indices. The sweep writes each constant
/// period straight into the consumer's columns and stops exactly at the
/// block's capacity; the next call resumes it where it stopped.
///
/// COUNT/SUM/AVG use incrementally updatable counters (SUM exact over ints,
/// `RunningSum`); MIN/MAX keep a multiset because tuple expiry is not
/// invertible for them.
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
  /// Sweeps groups into the block until it is full or the input ends.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

 private:
  // Running aggregate state for one spec within the sweep.
  struct AggState {
    int64_t count = 0;
    RunningSum sum;
    std::multiset<Value> values;  // only for MIN/MAX
  };

  /// Buffers the next group (consecutive rows with equal group columns,
  /// periods non-empty); false when the input is exhausted.
  Result<bool> LoadNextGroup();
  bool SameGroup(size_t row) const;
  /// Sorts the T2 copy and resets the sweep to the group's first event.
  void StartSweep();
  /// Runs the sweep over the buffered group's periods `t1`/`t2` (the group
  /// keeps one kind); true when the group is done, false when `block`
  /// filled first.
  template <typename T>
  bool Sweep(const std::vector<T>& t1, const std::vector<T>& t2, T* prev,
             RowBlock* block);
  /// Adds (or, with `add` false, removes) group row `row` to the state.
  void Apply(size_t row, bool add);
  /// Appends the constant period [t1, t2) of the group to `block`.
  template <typename T>
  void Emit(const T& t1, const T& t2, RowBlock* block) const;
  Value CurrentValue(size_t agg_index) const;

  CursorPtr child_;
  std::vector<size_t> group_cols_;
  size_t t1_, t2_;
  std::vector<TAggrSpec> aggs_;
  Schema schema_;

  // The child's current block, read in place from row `pos_`.
  RowBlock in_block_;
  size_t pos_ = 0;
  bool input_done_ = false;

  // The buffered group, in T1 order.
  Tuple group_key_;
  PeriodColumns periods_;
  std::vector<std::vector<Value>> args_;  // per aggregate; none for COUNT(*)
  std::vector<uint32_t> by_t2_;           // the T2 copy, as row indices

  // The sweep over the buffered group, resumable at any event.
  bool sweeping_ = false;
  size_t next_start_ = 0;  // next start event (rows in T1 order)
  size_t next_end_ = 0;    // next end event (by_t2_)
  int64_t active_ = 0;     // rows whose period covers the sweep line
  bool have_prev_ = false;
  int64_t prev_int_ = 0;
  Value prev_value_;
  std::vector<AggState> states_;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_TAGGR_H_
