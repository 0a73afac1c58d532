#include "exec/taggr.h"

#include <algorithm>
#include <numeric>

namespace tango {
namespace exec {

namespace {

// Endpoint comparisons for the two kinds a group's periods are kept in.
bool Before(int64_t a, int64_t b) { return a < b; }
bool Before(const Value& a, const Value& b) { return a < b; }
bool Same(int64_t a, int64_t b) { return a == b; }
bool Same(const Value& a, const Value& b) { return a.Compare(b) == 0; }

}  // namespace

TemporalAggregationCursor::TemporalAggregationCursor(
    CursorPtr child, std::vector<size_t> group_cols, size_t t1, size_t t2,
    std::vector<TAggrSpec> aggs, Schema out_schema)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      t1_(t1),
      t2_(t2),
      aggs_(std::move(aggs)),
      schema_(std::move(out_schema)),
      group_key_(group_cols_.size()),
      args_(aggs_.size()) {}

Status TemporalAggregationCursor::Init() {
  TANGO_RETURN_IF_ERROR(child_->Init());
  in_block_.Clear();
  pos_ = 0;
  input_done_ = false;
  sweeping_ = false;
  return Status::OK();
}

bool TemporalAggregationCursor::SameGroup(size_t row) const {
  for (size_t k = 0; k < group_cols_.size(); ++k) {
    if (in_block_.At(row, group_cols_[k]).Compare(group_key_[k]) != 0) {
      return false;
    }
  }
  return true;
}

Result<bool> TemporalAggregationCursor::LoadNextGroup() {
  periods_.Clear();
  for (std::vector<Value>& a : args_) a.clear();
  bool have_key = false;
  while (true) {
    if (pos_ >= in_block_.rows()) {
      if (input_done_) return have_key;
      TANGO_ASSIGN_OR_RETURN(const size_t n, child_->NextBatch(&in_block_));
      pos_ = 0;
      if (n == 0) {
        input_done_ = true;
        return have_key;
      }
    }
    const Value& t1 = in_block_.At(pos_, t1_);
    const Value& t2 = in_block_.At(pos_, t2_);
    // Tuples with NULL bounds or empty periods [t, t) contribute nothing
    // and would confuse the sweep; drop them here.
    if (t1.is_null() || t2.is_null() || !(t1 < t2)) {
      ++pos_;
      continue;
    }
    if (!have_key) {
      for (size_t k = 0; k < group_cols_.size(); ++k) {
        group_key_[k] = in_block_.At(pos_, group_cols_[k]);
      }
      have_key = true;
    } else if (!SameGroup(pos_)) {
      return true;  // the row stays in place: it opens the next group
    }
    periods_.Append(t1, t2);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (!aggs_[a].star) args_[a].push_back(in_block_.At(pos_, aggs_[a].arg));
    }
    ++pos_;
  }
}

void TemporalAggregationCursor::StartSweep() {
  // The group arrives sorted on T1 (the external sort); the second copy —
  // here a vector of row indices — is sorted on T2 (the internal sort the
  // paper's cost formula charges for). Stable, so rows ending together
  // expire in input order.
  by_t2_.resize(periods_.size());
  std::iota(by_t2_.begin(), by_t2_.end(), 0);
  if (periods_.ints) {
    const std::vector<int64_t>& t2 = periods_.t2;
    std::stable_sort(by_t2_.begin(), by_t2_.end(),
                     [&t2](uint32_t a, uint32_t b) { return t2[a] < t2[b]; });
  } else {
    const std::vector<Value>& t2 = periods_.v2;
    std::stable_sort(by_t2_.begin(), by_t2_.end(),
                     [&t2](uint32_t a, uint32_t b) { return t2[a] < t2[b]; });
  }
  states_.assign(aggs_.size(), AggState{});
  next_start_ = 0;
  next_end_ = 0;
  active_ = 0;
  have_prev_ = false;
  sweeping_ = true;
}

void TemporalAggregationCursor::Apply(size_t row, bool add) {
  const int64_t step = add ? 1 : -1;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const TAggrSpec& a = aggs_[i];
    AggState& st = states_[i];
    if (a.star) {
      st.count += step;
      continue;
    }
    const Value& v = args_[i][row];
    if (v.is_null()) continue;  // aggregates skip NULLs
    switch (a.func) {
      case AggFunc::kCount:
        st.count += step;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        st.count += step;
        if (add) {
          st.sum.Add(v);
        } else {
          st.sum.Remove(v);
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (add) {
          st.values.insert(v);
        } else {
          const auto it = st.values.find(v);
          if (it != st.values.end()) st.values.erase(it);
        }
        break;
    }
  }
}

Value TemporalAggregationCursor::CurrentValue(size_t agg_index) const {
  const TAggrSpec& a = aggs_[agg_index];
  const AggState& st = states_[agg_index];
  switch (a.func) {
    case AggFunc::kCount:
      return Value(st.count);
    case AggFunc::kSum:
      return st.count == 0 ? Value::Null() : st.sum.Get();
    case AggFunc::kAvg:
      if (st.count == 0) return Value::Null();
      return Value(st.sum.AsDouble() / static_cast<double>(st.count));
    case AggFunc::kMin:
      return st.values.empty() ? Value::Null() : *st.values.begin();
    case AggFunc::kMax:
      return st.values.empty() ? Value::Null() : *st.values.rbegin();
  }
  return Value::Null();
}

template <typename T>
void TemporalAggregationCursor::Emit(const T& t1, const T& t2,
                                     RowBlock* block) const {
  size_t c = 0;
  for (const Value& k : group_key_) block->column(c++).push_back(k);
  block->column(c++).emplace_back(t1);
  block->column(c++).emplace_back(t2);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].func == AggFunc::kCount) {
      block->column(c++).emplace_back(states_[a].count);
    } else {
      block->column(c++).push_back(CurrentValue(a));
    }
  }
  block->set_rows(block->rows() + 1);
}

template <typename T>
bool TemporalAggregationCursor::Sweep(const std::vector<T>& t1,
                                      const std::vector<T>& t2, T* prev,
                                      RowBlock* block) {
  const size_t n = t1.size();
  while (next_end_ < n) {
    // Next event time: the smaller of the next start and the next end.
    const T* t = &t2[by_t2_[next_end_]];
    if (next_start_ < n && Before(t1[next_start_], *t)) t = &t1[next_start_];

    if (active_ > 0 && have_prev_ && Before(*prev, *t)) {
      // The constant period [prev, t); a full block resumes here.
      if (block->full()) return false;
      Emit(*prev, *t, block);
    }
    while (next_start_ < n && Same(t1[next_start_], *t)) {
      Apply(next_start_++, /*add=*/true);
      ++active_;
    }
    while (next_end_ < n && Same(t2[by_t2_[next_end_]], *t)) {
      Apply(by_t2_[next_end_++], /*add=*/false);
      --active_;
    }
    *prev = *t;
    have_prev_ = true;
  }
  return true;
}

Result<size_t> TemporalAggregationCursor::NextBatch(RowBlock* block) {
  block->Reset(group_cols_.size() + 2 + aggs_.size());
  while (!block->full()) {
    if (!sweeping_) {
      TANGO_ASSIGN_OR_RETURN(const bool have_group, LoadNextGroup());
      if (!have_group) break;
      StartSweep();
    }
    const bool group_done =
        periods_.ints
            ? Sweep(periods_.t1, periods_.t2, &prev_int_, block)
            : Sweep(periods_.v1, periods_.v2, &prev_value_, block);
    if (!group_done) break;
    sweeping_ = false;
  }
  return block->rows();
}

}  // namespace exec
}  // namespace tango
