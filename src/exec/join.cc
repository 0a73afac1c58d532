#include "exec/join.h"

#include <numeric>

namespace tango {
namespace exec {

JoinResidual::JoinResidual(ExprPtr residual, size_t left_arity,
                           size_t right_arity)
    : residual_(std::move(residual)),
      left_arity_(left_arity),
      scratch_(left_arity + right_arity) {
  if (residual_ == nullptr) return;
  for (const size_t c : BoundColumnIndexes(*residual_)) {
    if (c < left_arity_) {
      left_columns_.push_back(c);
    } else {
      right_columns_.push_back(c - left_arity_);
    }
  }
}

bool JoinResidual::Match(const Tuple& left, const Tuple& right, Tuple* out) {
  if (!Passes([&left](size_t c) -> const Value& { return left[c]; },
              [&right](size_t c) -> const Value& { return right[c]; })) {
    return false;
  }
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
  return true;
}

namespace {

std::vector<size_t> AllColumns(const Schema& schema) {
  std::vector<size_t> columns(schema.num_columns());
  std::iota(columns.begin(), columns.end(), 0);
  return columns;
}

}  // namespace

MergeJoinCursor::MergeJoinCursor(CursorPtr left, CursorPtr right,
                                 std::vector<size_t> left_keys,
                                 std::vector<size_t> right_keys,
                                 ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      right_columns_(AllColumns(right_->schema())),
      out_arity_(left_->schema().num_columns() +
                 right_->schema().num_columns()),
      schema_(Schema::Concat(left_->schema(), right_->schema())),
      residual_(std::move(residual), left_->schema().num_columns(),
                right_->schema().num_columns()) {
  group_.key.resize(right_keys_.size());
  group_.columns.resize(right_columns_.size());
}

MergeJoinCursor::MergeJoinCursor(CursorPtr left, CursorPtr right,
                                 std::vector<size_t> left_keys,
                                 std::vector<size_t> right_keys,
                                 std::vector<size_t> right_columns,
                                 size_t right_t1, size_t right_t2,
                                 size_t out_arity, Schema schema)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      right_columns_(std::move(right_columns)),
      right_t1_(right_t1),
      right_t2_(right_t2),
      out_arity_(out_arity),
      schema_(std::move(schema)),
      residual_(nullptr, 0, 0) {
  group_.key.resize(right_keys_.size());
  group_.columns.resize(right_columns_.size());
}

Status MergeJoinCursor::Init() {
  TANGO_RETURN_IF_ERROR(left_->Init());
  TANGO_RETURN_IF_ERROR(right_->Init());
  left_block_.Clear();
  right_block_.Clear();
  left_pos_ = 0;
  right_pos_ = 0;
  left_done_ = false;
  right_done_ = false;
  have_group_ = false;
  matching_ = false;
  next_pair_ = 0;
  done_ = false;
  // Read the first block of each input now, left then right, so that an
  // input failing on its first block fails Init.
  TANGO_RETURN_IF_ERROR(LeftRow().status());
  return RightRow().status();
}

Result<bool> MergeJoinCursor::LeftRow() {
  while (left_pos_ >= left_block_.rows()) {
    if (left_done_) return false;
    TANGO_ASSIGN_OR_RETURN(const size_t n, left_->NextBatch(&left_block_));
    left_pos_ = 0;
    if (n == 0) left_done_ = true;
  }
  return true;
}

Result<bool> MergeJoinCursor::RightRow() {
  while (right_pos_ >= right_block_.rows()) {
    if (right_done_) return false;
    TANGO_ASSIGN_OR_RETURN(const size_t n, right_->NextBatch(&right_block_));
    right_pos_ = 0;
    if (n == 0) right_done_ = true;
  }
  return true;
}

int MergeJoinCursor::CompareKeys(size_t row) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    const int c = left_block_.At(row, left_keys_[i]).Compare(group_.key[i]);
    if (c != 0) return c;
  }
  return 0;
}

Result<bool> MergeJoinCursor::FillRightGroup() {
  for (std::vector<Value>& column : group_.columns) column.clear();
  group_.periods.Clear();
  group_.rows = 0;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(const bool more, RightRow());
    if (!more) break;
    const size_t r = right_pos_;
    if (group_.rows == 0) {
      for (size_t i = 0; i < right_keys_.size(); ++i) {
        group_.key[i] = right_block_.At(r, right_keys_[i]);
      }
    } else {
      bool same = true;
      for (size_t i = 0; i < right_keys_.size(); ++i) {
        if (right_block_.At(r, right_keys_[i]).Compare(group_.key[i]) != 0) {
          same = false;
          break;
        }
      }
      if (!same) break;  // the row stays in place: it opens the next group
    }
    if (right_t1_ != kNoPeriod) {
      group_.periods.Append(right_block_.At(r, right_t1_),
                            right_block_.At(r, right_t2_));
    }
    // The row is read once: its buffered values move out of the block.
    for (size_t i = 0; i < right_columns_.size(); ++i) {
      group_.columns[i].push_back(std::move(right_block_.At(r, right_columns_[i])));
    }
    ++group_.rows;
    ++right_pos_;
  }
  return group_.rows > 0;
}

Result<size_t> MergeJoinCursor::NextBatch(RowBlock* block) {
  block->Reset(out_arity_);
  while (!done_ && !block->full()) {
    if (matching_) {
      EmitPairs(left_block_, left_pos_, group_, &next_pair_, block);
      if (next_pair_ < group_.rows) break;  // the block is full
      matching_ = false;
      ++left_pos_;  // the next left row replays the group if its key is equal
    }
    TANGO_ASSIGN_OR_RETURN(const bool have_left, LeftRow());
    if (!have_left) {
      done_ = true;
      break;
    }
    // Advance the right groups until their key is >= the left key.
    while (!have_group_ || CompareKeys(left_pos_) > 0) {
      TANGO_ASSIGN_OR_RETURN(have_group_, FillRightGroup());
      if (!have_group_) break;
    }
    if (!have_group_) {
      done_ = true;  // right exhausted: no more matches possible
      break;
    }
    if (CompareKeys(left_pos_) < 0) {
      ++left_pos_;
      continue;
    }
    // Keys match; NULL keys never join.
    bool has_null = false;
    for (const size_t k : left_keys_) {
      if (left_block_.At(left_pos_, k).is_null()) {
        has_null = true;
        break;
      }
    }
    if (has_null) {
      ++left_pos_;
      continue;
    }
    matching_ = true;
    next_pair_ = 0;
  }
  return block->rows();
}

void MergeJoinCursor::EmitPairs(const RowBlock& left, size_t row,
                                const RightGroup& group, size_t* next,
                                RowBlock* out) {
  const size_t left_arity = left.columns();
  size_t r = *next;
  for (; r < group.rows && !out->full(); ++r) {
    if (!residual_.Passes(
            [&](size_t c) -> const Value& { return left.At(row, c); },
            [&](size_t c) -> const Value& { return group.columns[c][r]; })) {
      continue;
    }
    for (size_t c = 0; c < left_arity; ++c) {
      out->column(c).push_back(left.At(row, c));
    }
    for (size_t c = 0; c < group.columns.size(); ++c) {
      out->column(left_arity + c).push_back(group.columns[c][r]);
    }
    out->set_rows(out->rows() + 1);
  }
  *next = r;
}

TemporalJoinCursor::TemporalJoinCursor(
    CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
    std::vector<size_t> right_keys, size_t left_t1, size_t left_t2,
    size_t right_t1, size_t right_t2, std::vector<size_t> left_out,
    std::vector<size_t> right_out, Schema schema)
    : MergeJoinCursor(std::move(left), std::move(right), std::move(left_keys),
                      std::move(right_keys), right_out, right_t1, right_t2,
                      left_out.size() + right_out.size() + 2,
                      std::move(schema)),
      left_t1_(left_t1),
      left_t2_(left_t2),
      left_out_(std::move(left_out)) {}

template <typename T>
void TemporalJoinCursor::Append(const RowBlock& left, size_t row,
                                const RightGroup& group, size_t r, const T& t1,
                                const T& t2, RowBlock* out) const {
  size_t c = 0;
  for (const size_t i : left_out_) out->column(c++).push_back(left.At(row, i));
  for (const std::vector<Value>& column : group.columns) {
    out->column(c++).push_back(column[r]);
  }
  out->column(c++).emplace_back(t1);
  out->column(c).emplace_back(t2);
  out->set_rows(out->rows() + 1);
}

void TemporalJoinCursor::EmitPairs(const RowBlock& left, size_t row,
                                   const RightGroup& group, size_t* next,
                                   RowBlock* out) {
  // Overlap test on the closed-open periods: L.T1 < R.T2 AND L.T2 > R.T1;
  // the pair carries GREATEST(T1), LEAST(T2), the right's on a tie.
  const Value& lt1 = left.At(row, left_t1_);
  const Value& lt2 = left.At(row, left_t2_);
  size_t r = *next;
  if (lt1.is_null() || lt2.is_null()) {
    r = group.rows;  // a NULL endpoint never joins
  } else if (group.periods.ints && lt1.is_int() && lt2.is_int()) {
    const int64_t l1 = lt1.AsInt();
    const int64_t l2 = lt2.AsInt();
    const std::vector<int64_t>& r1 = group.periods.t1;
    const std::vector<int64_t>& r2 = group.periods.t2;
    for (; r < group.rows && !out->full(); ++r) {
      if (!(l1 < r2[r] && l2 > r1[r])) continue;
      Append(left, row, group, r, l1 > r1[r] ? l1 : r1[r],
             l2 < r2[r] ? l2 : r2[r], out);
    }
  } else {
    for (; r < group.rows && !out->full(); ++r) {
      const Value rt1 = group.periods.Start(r);
      const Value rt2 = group.periods.End(r);
      if (rt1.is_null() || rt2.is_null()) continue;
      if (!(lt1 < rt2 && lt2 > rt1)) continue;
      Append(left, row, group, r, lt1 > rt1 ? lt1 : rt1,
             lt2 < rt2 ? lt2 : rt2, out);
    }
  }
  *next = r;
}

}  // namespace exec
}  // namespace tango
