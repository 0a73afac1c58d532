#include "exec/basic.h"

#include <algorithm>

namespace tango {
namespace exec {

namespace {

/// Whole-tuple three-way comparison (all columns, schema order).
int CompareTuples(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

/// Equality that distinguishes NULL from non-NULL but treats NULL == NULL
/// (duplicate elimination semantics, not predicate semantics).
bool TuplesEqual(const Tuple& a, const Tuple& b) {
  return a.size() == b.size() && CompareTuples(a, b) == 0;
}

}  // namespace

Result<size_t> FilterCursor::NextBatch(RowBlock* block) {
  block->Clear();
  in_block_.set_capacity(block->capacity());
  Tuple t;
  // Keep pulling child blocks until at least one row qualifies (or the
  // child is exhausted); survivors of one input block never exceed the
  // output capacity because the input block is sized to match.
  while (block->empty()) {
    TANGO_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(&in_block_));
    if (n == 0) return 0;
    for (size_t i = 0; i < n; ++i) {
      in_block_.MoveRowTo(i, &t);
      if (EvalPredicate(*predicate_, t)) block->AppendRow(std::move(t));
    }
  }
  return block->rows();
}

ProjectCursor::ProjectCursor(CursorPtr child, std::vector<ExprPtr> exprs,
                             Schema out_schema)
    : child_(std::move(child)),
      exprs_(std::move(exprs)),
      schema_(std::move(out_schema)),
      source_(exprs_.size(), kComputed),
      first_(exprs_.size()),
      scratch_(child_->schema().num_columns()) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    const Expr& e = *exprs_[i];
    if (e.kind == Expr::Kind::kColumn && e.index >= 0) {
      source_[i] = static_cast<size_t>(e.index);
      first_[i] = static_cast<size_t>(
          std::find(source_.begin(), source_.begin() + i, source_[i]) -
          source_.begin());
      continue;
    }
    computed_.push_back(i);
    for (const size_t c : BoundColumnIndexes(e)) scratch_columns_.push_back(c);
  }
  std::sort(scratch_columns_.begin(), scratch_columns_.end());
  scratch_columns_.erase(
      std::unique(scratch_columns_.begin(), scratch_columns_.end()),
      scratch_columns_.end());
}

Result<size_t> ProjectCursor::NextBatch(RowBlock* block) {
  block->Reset(exprs_.size());
  in_block_.set_capacity(block->capacity());
  TANGO_ASSIGN_OR_RETURN(const size_t n, child_->NextBatch(&in_block_));
  if (n == 0) return 0;
  // Computed items first, while every child column is still in place.
  if (!computed_.empty()) {
    for (size_t r = 0; r < n; ++r) {
      // Copy-assignment keeps a scratch string's buffer.
      for (const size_t c : scratch_columns_) scratch_[c] = in_block_.At(r, c);
      for (const size_t i : computed_) {
        block->column(i).push_back(Eval(*exprs_[i], scratch_));
      }
    }
  }
  // Then the columns: the first item naming a child column takes it whole,
  // a repeat copies the output column that took it.
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (source_[i] == kComputed) continue;
    if (first_[i] == i) {
      block->column(i).swap(in_block_.column(source_[i]));
    } else {
      block->column(i) = block->column(first_[i]);
    }
  }
  block->set_rows(n);
  return n;
}

Result<bool> DupElimCursor::NextRow(Tuple* tuple) {
  Tuple t;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(bool more, reader_.Next(&t));
    if (!more) return false;
    if (have_prev_ && TuplesEqual(t, prev_)) continue;
    prev_ = t;
    have_prev_ = true;
    *tuple = std::move(t);
    return true;
  }
}

Status DifferenceCursor::Init() {
  TANGO_RETURN_IF_ERROR(left_reader_.Init());
  TANGO_RETURN_IF_ERROR(right_reader_.Init());
  TANGO_ASSIGN_OR_RETURN(right_valid_, right_reader_.Next(&right_row_));
  return Status::OK();
}

Result<bool> DifferenceCursor::NextRow(Tuple* tuple) {
  Tuple t;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(bool more, left_reader_.Next(&t));
    if (!more) return false;
    // Advance the right side past smaller tuples.
    while (right_valid_ && CompareTuples(right_row_, t) < 0) {
      TANGO_ASSIGN_OR_RETURN(right_valid_, right_reader_.Next(&right_row_));
    }
    if (right_valid_ && CompareTuples(right_row_, t) == 0) {
      // One right occurrence cancels one left occurrence.
      TANGO_ASSIGN_OR_RETURN(right_valid_, right_reader_.Next(&right_row_));
      continue;
    }
    *tuple = std::move(t);
    return true;
  }
}

Status CoalesceCursor::Init() {
  have_current_ = false;
  done_ = false;
  return reader_.Init();
}

Result<bool> CoalesceCursor::NextRow(Tuple* tuple) {
  if (done_) return false;
  Tuple t;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(bool more, reader_.Next(&t));
    if (!more) {
      done_ = true;
      if (have_current_) {
        have_current_ = false;
        *tuple = std::move(current_);
        return true;
      }
      return false;
    }
    if (!have_current_) {
      current_ = std::move(t);
      have_current_ = true;
      continue;
    }
    // Value-equivalent (all columns except the period) and periods meet or
    // overlap? Input order guarantees current_.T1 <= t.T1.
    bool value_equal = true;
    for (size_t i = 0; i < t.size(); ++i) {
      if (i == t1_ || i == t2_) continue;
      if (t[i].Compare(current_[i]) != 0) {
        value_equal = false;
        break;
      }
    }
    if (value_equal && t[t1_] <= current_[t2_]) {
      if (t[t2_] > current_[t2_]) current_[t2_] = t[t2_];
      continue;
    }
    Tuple out = std::move(current_);
    current_ = std::move(t);
    *tuple = std::move(out);
    return true;
  }
}

}  // namespace exec
}  // namespace tango
