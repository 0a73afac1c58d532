#include "exec/basic.h"

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

Result<size_t> ProjectCursor::NextBatch(RowBlock* block) {
  block->Clear();
  in_block_.set_capacity(block->capacity());
  TANGO_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(&in_block_));
  if (n == 0) return 0;
  Tuple in, out;
  for (size_t i = 0; i < n; ++i) {
    in_block_.MoveRowTo(i, &in);
    out.clear();
    out.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) out.push_back(Eval(*e, in));
    block->AppendRow(std::move(out));
  }
  return block->rows();
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
