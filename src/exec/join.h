#ifndef TANGO_EXEC_JOIN_H_
#define TANGO_EXEC_JOIN_H_

#include <memory>
#include <vector>

#include "common/cursor.h"
#include "exec/periods.h"
#include "expr/expr.h"

namespace tango {
namespace exec {

/// \brief A join's residual predicate, tested on a candidate pair before
/// the pair is concatenated (DESIGN.md §16).
///
/// The residual is bound to the join's output schema: left columns, then
/// right. `Match` copies only the columns the residual reads into a scratch
/// row reused across candidates and evaluates it there; only a pair that
/// passes is concatenated into the caller's tuple. A rejected candidate
/// builds no row and, once the scratch strings have grown to fit, allocates
/// nothing. The merge join and every DBMS join test their candidates
/// through this one helper.
class JoinResidual {
 public:
  /// A null `residual` passes every pair.
  JoinResidual(ExprPtr residual, size_t left_arity, size_t right_arity);

  /// True, with `*out` = left ++ right, when the pair passes the residual;
  /// false, with `*out` untouched, when it does not.
  bool Match(const Tuple& left, const Tuple& right, Tuple* out);

  /// True when the pair passes the residual; `left(c)` and `right(c)` return
  /// the pair's value of its left column c and of its right column c, and
  /// are called only for the columns the residual reads. The merge join's
  /// block kernel tests its candidates through this, where they lie.
  template <typename LeftAt, typename RightAt>
  bool Passes(const LeftAt& left, const RightAt& right) {
    if (residual_ == nullptr) return true;
    // Copy-assignment keeps a scratch string's buffer, so a rejected pair
    // allocates nothing once the scratch strings have grown to fit.
    for (const size_t c : left_columns_) scratch_[c] = left(c);
    for (const size_t c : right_columns_) scratch_[left_arity_ + c] = right(c);
    return EvalPredicate(*residual_, scratch_);
  }

 private:
  ExprPtr residual_;
  size_t left_arity_;
  std::vector<size_t> left_columns_;   // residual columns < left_arity_
  std::vector<size_t> right_columns_;  // the rest, as right-side positions
  Tuple scratch_;
};

/// \brief MERGEJOIN^M: sort-merge equijoin, for the middleware, the DBMS
/// planner's forced merge join and the calibrator's probes; with
/// `TemporalJoinCursor`, the one block merge kernel.
///
/// Inputs must arrive sorted on their key columns and are read in place, a
/// child block at a time. The right key group is buffered by column (its
/// rows' values moved out of the right child's blocks); each left row whose
/// key equals the group's pairs with the group's rows in order, and every
/// pair that joins is written straight into the consumer's columns.
/// Emission stops at the block's capacity, mid-group if need be, and the
/// next call resumes it there. NULL keys never join. An optional residual
/// (bound to the output schema) is tested on each pair through
/// `JoinResidual`. Output: left columns then right. Output order: the left
/// keys (the algorithm is order preserving on them).
class MergeJoinCursor : public Cursor {
 public:
  MergeJoinCursor(CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
                  std::vector<size_t> right_keys, ExprPtr residual = nullptr);

  /// Initializes both children and reads the first block of each.
  Status Init() override;
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

 protected:
  /// The right key group: its rows' buffered columns (`right_columns`, in
  /// that order) and, for TJOIN^M, their periods.
  struct RightGroup {
    Tuple key;  // the group's key values
    std::vector<std::vector<Value>> columns;
    PeriodColumns periods;
    size_t rows = 0;
  };

  /// The kernel as TJOIN^M configures it: buffers the right `right_columns`
  /// and, as the group's periods, [right_t1, right_t2); `out_arity` columns
  /// per output row, whose schema is `schema`.
  MergeJoinCursor(CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
                  std::vector<size_t> right_keys,
                  std::vector<size_t> right_columns, size_t right_t1,
                  size_t right_t2, size_t out_arity, Schema schema);

  /// Pairs row `row` of `left` with the group's rows from `*next` on,
  /// appending each pair that joins to `out`, until the group ends or `out`
  /// is full; leaves `*next` at the first group row not yet paired.
  virtual void EmitPairs(const RowBlock& left, size_t row,
                         const RightGroup& group, size_t* next, RowBlock* out);

 private:
  /// Makes `left_pos_` a row of `left_block_`, reading blocks as needed;
  /// false when the left input is exhausted. Likewise for the right input.
  Result<bool> LeftRow();
  Result<bool> RightRow();
  /// Buffers the next right key group; false when the right input is
  /// exhausted.
  Result<bool> FillRightGroup();
  /// Left row `row`'s key against the group's: <0, 0 or >0.
  int CompareKeys(size_t row) const;

  static constexpr size_t kNoPeriod = static_cast<size_t>(-1);

  CursorPtr left_, right_;
  std::vector<size_t> left_keys_, right_keys_;
  std::vector<size_t> right_columns_;
  size_t right_t1_ = kNoPeriod, right_t2_ = kNoPeriod;
  size_t out_arity_;
  Schema schema_;
  JoinResidual residual_;

  RowBlock left_block_, right_block_;
  size_t left_pos_ = 0, right_pos_ = 0;
  bool left_done_ = false, right_done_ = false;
  RightGroup group_;
  bool have_group_ = false;
  bool matching_ = false;  // left row `left_pos_` pairs with the group
  size_t next_pair_ = 0;   // the group row it pairs with next
  bool done_ = false;
};

/// \brief TJOIN^M: middleware temporal join (sort-merge), the merge
/// kernel configured to buffer the right output columns and periods.
///
/// Equijoin with the additional requirement that the two periods overlap;
/// the output carries the intersection GREATEST(T1), LEAST(T2). A pair of
/// int periods is tested and intersected on int64; any other kind goes
/// through `Value::Compare`, and a NULL endpoint never joins. Output schema
/// follows the algebra: left columns without its period, right columns
/// without the join attrs and its period, then T1, T2.
class TemporalJoinCursor : public MergeJoinCursor {
 public:
  /// The index vectors address the respective child schemas; `schema` is the
  /// algebra-derived output schema.
  TemporalJoinCursor(CursorPtr left, CursorPtr right,
                     std::vector<size_t> left_keys, std::vector<size_t> right_keys,
                     size_t left_t1, size_t left_t2, size_t right_t1,
                     size_t right_t2, std::vector<size_t> left_out,
                     std::vector<size_t> right_out, Schema schema);

 private:
  void EmitPairs(const RowBlock& left, size_t row, const RightGroup& group,
                 size_t* next, RowBlock* out) override;
  /// Appends left row `row` ++ group row `r` ++ [t1, t2) to `out`.
  template <typename T>
  void Append(const RowBlock& left, size_t row, const RightGroup& group,
              size_t r, const T& t1, const T& t2, RowBlock* out) const;

  size_t left_t1_, left_t2_;
  std::vector<size_t> left_out_;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_JOIN_H_
