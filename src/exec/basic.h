#ifndef TANGO_EXEC_BASIC_H_
#define TANGO_EXEC_BASIC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "expr/expr.h"

namespace tango {
namespace exec {

/// \brief FILTER^M: middleware selection (§3.3). Needed when a selection
/// sits between two middleware-resident operators, where a round trip to the
/// DBMS just to select would be wasteful.
class FilterCursor : public Cursor {
 public:
  /// `predicate` must be bound against the child schema.
  FilterCursor(CursorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Init() override { return child_->Init(); }
  /// Pulls whole blocks from the child and appends the qualifying rows, so
  /// a selective filter costs one virtual call per input block instead of
  /// one per inspected row.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  CursorPtr child_;
  ExprPtr predicate_;
  RowBlock in_block_{RowBlock::kDefaultCapacity};
};

/// \brief PROJECT^M: middleware projection with computed expressions; it
/// also evaluates every DBMS SELECT list.
///
/// One child block in, one projected block out. An item that is a bound
/// column takes the child's column vector whole (a swap, so neither side
/// reallocates); an item naming a column already taken copies that output
/// column. A computed item is evaluated row by row, from a scratch row
/// reused across rows that holds only the columns the computed items read,
/// straight into its output column — before any column is taken.
class ProjectCursor : public Cursor {
 public:
  /// `exprs` must be bound against the child schema; `out_schema` parallel.
  ProjectCursor(CursorPtr child, std::vector<ExprPtr> exprs, Schema out_schema);

  Status Init() override { return child_->Init(); }
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

 private:
  static constexpr size_t kComputed = static_cast<size_t>(-1);

  CursorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  /// Per item: the child column it names, or kComputed.
  std::vector<size_t> source_;
  /// Per column item: the first item naming the same child column (itself
  /// when it is the first), whose output column a repeat copies.
  std::vector<size_t> first_;
  /// The computed items, the child columns they read, and their scratch row.
  std::vector<size_t> computed_;
  std::vector<size_t> scratch_columns_;
  Tuple scratch_;
  RowBlock in_block_{RowBlock::kDefaultCapacity};
};

/// \brief DUPELIM^M: removes adjacent duplicates; input must be sorted on
/// all columns (the optimizer guarantees it). Reads its child in whole
/// blocks through a BatchedReader.
class DupElimCursor : public RowCursor {
 public:
  explicit DupElimCursor(CursorPtr child)
      : child_(std::move(child)), reader_(child_.get()) {}

  Status Init() override {
    have_prev_ = false;
    return reader_.Init();
  }
  const Schema& schema() const override { return child_->schema(); }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  CursorPtr child_;
  BatchedReader reader_;
  Tuple prev_;
  bool have_prev_ = false;
};

/// \brief DIFF^M: multiset difference (left minus right); both inputs must
/// be sorted on all columns. Each right tuple cancels at most one left
/// duplicate, per multiset semantics.
class DifferenceCursor : public RowCursor {
 public:
  DifferenceCursor(CursorPtr left, CursorPtr right)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_reader_(left_.get()),
        right_reader_(right_.get()) {}

  Status Init() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  CursorPtr left_, right_;
  BatchedReader left_reader_, right_reader_;
  Tuple right_row_;
  bool right_valid_ = false;
};

/// \brief COALESCE^M: merges value-equivalent tuples whose periods overlap
/// or meet. Input must be sorted on (all non-period columns..., T1).
class CoalesceCursor : public RowCursor {
 public:
  /// `t1`/`t2` are the period column positions in the child schema.
  CoalesceCursor(CursorPtr child, size_t t1, size_t t2)
      : child_(std::move(child)), reader_(child_.get()), t1_(t1), t2_(t2) {}

  Status Init() override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  CursorPtr child_;
  BatchedReader reader_;
  size_t t1_, t2_;
  Tuple current_;
  bool have_current_ = false;
  bool done_ = false;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_BASIC_H_
