#include "exec/join.h"

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
  if (residual_ != nullptr) {
    // Copy-assignment keeps a scratch string's buffer, so a rejected pair
    // allocates nothing once the scratch strings have grown to fit.
    for (const size_t c : left_columns_) scratch_[c] = left[c];
    for (const size_t c : right_columns_) scratch_[left_arity_ + c] = right[c];
    if (!EvalPredicate(*residual_, scratch_)) return false;
  }
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
  return true;
}

MergeJoinCursor::MergeJoinCursor(CursorPtr left, CursorPtr right,
                                 std::vector<size_t> left_keys,
                                 std::vector<size_t> right_keys,
                                 ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_reader_(left_.get()),
      right_reader_(right_.get()),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(Schema::Concat(left_->schema(), right_->schema())),
      residual_(std::move(residual), left_->schema().num_columns(),
                right_->schema().num_columns()) {}

bool MergeJoinCursor::EmitPair(const Tuple& left, const Tuple& right,
                               Tuple* out) {
  return residual_.Match(left, right, out);
}

int MergeJoinCursor::CompareKeys(const Tuple& l, const Tuple& r) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    const int c = l[left_keys_[i]].Compare(r[right_keys_[i]]);
    if (c != 0) return c;
  }
  return 0;
}

Status MergeJoinCursor::Init() {
  TANGO_RETURN_IF_ERROR(left_reader_.Init());
  TANGO_RETURN_IF_ERROR(right_reader_.Init());
  right_group_.clear();
  group_pos_ = 0;
  group_matches_left_ = false;
  TANGO_ASSIGN_OR_RETURN(left_valid_, left_reader_.Next(&left_row_));
  TANGO_ASSIGN_OR_RETURN(right_pending_valid_,
                         right_reader_.Next(&right_pending_));
  return Status::OK();
}

Result<bool> MergeJoinCursor::FillRightGroup() {
  right_group_.clear();
  if (!right_pending_valid_) return false;
  right_group_.push_back(right_pending_);
  while (true) {
    Tuple t;
    TANGO_ASSIGN_OR_RETURN(bool more, right_reader_.Next(&t));
    if (!more) {
      right_pending_valid_ = false;
      break;
    }
    bool same = true;
    for (size_t i = 0; i < right_keys_.size(); ++i) {
      if (t[right_keys_[i]].Compare(right_group_.front()[right_keys_[i]]) != 0) {
        same = false;
        break;
      }
    }
    if (same) {
      right_group_.push_back(std::move(t));
    } else {
      right_pending_ = std::move(t);
      right_pending_valid_ = true;
      break;
    }
  }
  return true;
}

Result<bool> MergeJoinCursor::NextRow(Tuple* tuple) {
  while (true) {
    if (group_matches_left_ && group_pos_ < right_group_.size()) {
      const Tuple& r = right_group_[group_pos_++];
      if (EmitPair(left_row_, r, tuple)) return true;
      continue;
    }
    if (group_matches_left_) {
      TANGO_ASSIGN_OR_RETURN(left_valid_, left_reader_.Next(&left_row_));
      group_pos_ = 0;
      if (!left_valid_) {
        // Drop the match flag so a post-exhaustion call cannot replay the
        // group against the stale left row: RowCursor asks again after the
        // first false and must keep seeing false.
        group_matches_left_ = false;
        return false;
      }
      if (!right_group_.empty() &&
          CompareKeys(left_row_, right_group_.front()) == 0) {
        continue;  // next left row shares the key: replay the group
      }
      group_matches_left_ = false;
    }
    if (!left_valid_) return false;
    // Advance the right group until its key is >= the left key.
    while (right_group_.empty() ||
           CompareKeys(left_row_, right_group_.front()) > 0) {
      TANGO_ASSIGN_OR_RETURN(bool filled, FillRightGroup());
      if (!filled) return false;  // right exhausted, no more matches possible
    }
    const int c = CompareKeys(left_row_, right_group_.front());
    if (c < 0) {
      TANGO_ASSIGN_OR_RETURN(left_valid_, left_reader_.Next(&left_row_));
      if (!left_valid_) return false;
      continue;
    }
    // Keys match; NULL keys never join.
    bool has_null = false;
    for (size_t k : left_keys_) {
      if (left_row_[k].is_null()) {
        has_null = true;
        break;
      }
    }
    if (has_null) {
      TANGO_ASSIGN_OR_RETURN(left_valid_, left_reader_.Next(&left_row_));
      if (!left_valid_) return false;
      continue;
    }
    group_matches_left_ = true;
    group_pos_ = 0;
  }
}

TemporalJoinCursor::TemporalJoinCursor(
    CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
    std::vector<size_t> right_keys, size_t left_t1, size_t left_t2,
    size_t right_t1, size_t right_t2, std::vector<size_t> left_out,
    std::vector<size_t> right_out, Schema schema)
    : MergeJoinCursor(std::move(left), std::move(right), std::move(left_keys),
                      std::move(right_keys)),
      left_t1_(left_t1),
      left_t2_(left_t2),
      right_t1_(right_t1),
      right_t2_(right_t2),
      left_out_(std::move(left_out)),
      right_out_(std::move(right_out)),
      schema_(std::move(schema)) {}

bool TemporalJoinCursor::EmitPair(const Tuple& left, const Tuple& right,
                                  Tuple* out) {
  // Overlap test on the closed-open periods: L.T1 < R.T2 AND L.T2 > R.T1.
  const Value& lt1 = left[left_t1_];
  const Value& lt2 = left[left_t2_];
  const Value& rt1 = right[right_t1_];
  const Value& rt2 = right[right_t2_];
  if (lt1.is_null() || lt2.is_null() || rt1.is_null() || rt2.is_null()) {
    return false;
  }
  if (!(lt1 < rt2 && lt2 > rt1)) return false;
  out->clear();
  out->reserve(left_out_.size() + right_out_.size() + 2);
  for (size_t i : left_out_) out->push_back(left[i]);
  for (size_t i : right_out_) out->push_back(right[i]);
  out->push_back(lt1 > rt1 ? lt1 : rt1);  // GREATEST(T1)
  out->push_back(lt2 < rt2 ? lt2 : rt2);  // LEAST(T2)
  return true;
}

}  // namespace exec
}  // namespace tango
