#ifndef TANGO_EXEC_JOIN_H_
#define TANGO_EXEC_JOIN_H_

#include <memory>
#include <vector>

#include "common/cursor.h"
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

 private:
  ExprPtr residual_;
  size_t left_arity_;
  std::vector<size_t> left_columns_;   // residual columns < left_arity_
  std::vector<size_t> right_columns_;  // the rest, as right-side positions
  Tuple scratch_;
};

/// \brief MERGEJOIN^M: sort-merge equijoin, for the middleware and for the
/// DBMS planner's forced merge join.
///
/// Inputs must arrive sorted on their key columns; duplicate key groups are
/// buffered on the right side and replayed. NULL keys never join. An
/// optional residual (bound to the output schema) is tested on each pair
/// through `JoinResidual`. Output: left columns then right. Output order:
/// the left keys (the algorithm is order preserving on them).
class MergeJoinCursor : public RowCursor {
 public:
  MergeJoinCursor(CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
                  std::vector<size_t> right_keys, ExprPtr residual = nullptr);

  Status Init() override;
  const Schema& schema() const override { return schema_; }

 protected:
  /// Hook for subclasses (the temporal join): accepts/reworks a candidate
  /// pair. Returns true and fills `out` when the pair joins.
  virtual bool EmitPair(const Tuple& left, const Tuple& right, Tuple* out);

 private:
  Result<bool> NextRow(Tuple* tuple) override;
  int CompareKeys(const Tuple& l, const Tuple& r) const;
  Result<bool> FillRightGroup();

  CursorPtr left_, right_;
  /// Both inputs are drained in whole blocks; the merge logic reads rows
  /// out of the buffered blocks.
  BatchedReader left_reader_, right_reader_;
  std::vector<size_t> left_keys_, right_keys_;
  Schema schema_;
  JoinResidual residual_;

  Tuple left_row_;
  bool left_valid_ = false;
  Tuple right_pending_;
  bool right_pending_valid_ = false;
  std::vector<Tuple> right_group_;
  size_t group_pos_ = 0;
  bool group_matches_left_ = false;
};

/// \brief TJOIN^M: middleware temporal join (sort-merge).
///
/// Equijoin with the additional requirement that the two periods overlap;
/// the output carries the intersection GREATEST(T1), LEAST(T2). Output
/// schema follows the algebra: left columns without its period, right
/// columns without the join attrs and its period, then T1, T2.
class TemporalJoinCursor : public MergeJoinCursor {
 public:
  /// The index vectors address the respective child schemas; `schema` is the
  /// algebra-derived output schema.
  TemporalJoinCursor(CursorPtr left, CursorPtr right,
                     std::vector<size_t> left_keys, std::vector<size_t> right_keys,
                     size_t left_t1, size_t left_t2, size_t right_t1,
                     size_t right_t2, std::vector<size_t> left_out,
                     std::vector<size_t> right_out, Schema schema);

  const Schema& schema() const override { return schema_; }

 private:
  bool EmitPair(const Tuple& left, const Tuple& right, Tuple* out) override;

  size_t left_t1_, left_t2_, right_t1_, right_t2_;
  std::vector<size_t> left_out_, right_out_;
  Schema schema_;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_JOIN_H_
