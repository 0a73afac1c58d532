#include "exec/taggr.h"

#include <algorithm>

namespace tango {
namespace exec {

TemporalAggregationCursor::TemporalAggregationCursor(
    CursorPtr child, std::vector<size_t> group_cols, size_t t1, size_t t2,
    std::vector<TAggrSpec> aggs, Schema out_schema)
    : child_(std::move(child)),
      reader_(child_.get()),
      group_cols_(std::move(group_cols)),
      t1_(t1),
      t2_(t2),
      aggs_(std::move(aggs)),
      schema_(std::move(out_schema)) {}

Status TemporalAggregationCursor::Init() {
  TANGO_RETURN_IF_ERROR(reader_.Init());
  group_rows_.clear();
  pending_valid_ = false;
  input_done_ = false;
  output_.clear();
  out_pos_ = 0;
  return Status::OK();
}

Result<bool> TemporalAggregationCursor::LoadNextGroup() {
  group_rows_.clear();
  while (true) {
    Tuple row;
    bool more;
    if (pending_valid_) {
      row = std::move(pending_);
      pending_valid_ = false;
      more = true;
    } else if (input_done_) {
      more = false;
    } else {
      TANGO_ASSIGN_OR_RETURN(more, reader_.Next(&row));
      if (!more) input_done_ = true;
    }
    if (!more) return !group_rows_.empty();
    // Tuples with NULL bounds or empty periods [t, t) contribute nothing
    // and would confuse the sweep; drop them here.
    if (row[t1_].is_null() || row[t2_].is_null() || !(row[t1_] < row[t2_])) {
      continue;
    }
    if (group_rows_.empty()) {
      group_rows_.push_back(std::move(row));
      continue;
    }
    bool same = true;
    for (size_t c : group_cols_) {
      if (row[c].Compare(group_rows_.front()[c]) != 0) {
        same = false;
        break;
      }
    }
    if (same) {
      group_rows_.push_back(std::move(row));
    } else {
      pending_ = std::move(row);
      pending_valid_ = true;
      return true;
    }
  }
}

void TemporalAggregationCursor::Add(const Tuple& row) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const TAggrSpec& a = aggs_[i];
    AggState& st = states_[i];
    if (!a.star) {
      const Value& v = row[a.arg];
      if (v.is_null()) continue;  // aggregates skip NULLs
      switch (a.func) {
        case AggFunc::kCount:
          st.count += 1;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          st.count += 1;
          st.sum += v.AsDouble();
          if (!v.is_int()) st.sum_is_int = false;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          st.values.insert(v);
          break;
      }
    } else {
      st.count += 1;
    }
  }
}

void TemporalAggregationCursor::Remove(const Tuple& row) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const TAggrSpec& a = aggs_[i];
    AggState& st = states_[i];
    if (!a.star) {
      const Value& v = row[a.arg];
      if (v.is_null()) continue;
      switch (a.func) {
        case AggFunc::kCount:
          st.count -= 1;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          st.count -= 1;
          st.sum -= v.AsDouble();
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const auto it = st.values.find(v);
          if (it != st.values.end()) st.values.erase(it);
          break;
        }
      }
    } else {
      st.count -= 1;
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
      if (st.count == 0) return Value::Null();
      if (st.sum_is_int) return Value(static_cast<int64_t>(st.sum));
      return Value(st.sum);
    case AggFunc::kAvg:
      if (st.count == 0) return Value::Null();
      return Value(st.sum / static_cast<double>(st.count));
    case AggFunc::kMin:
      return st.values.empty() ? Value::Null() : *st.values.begin();
    case AggFunc::kMax:
      return st.values.empty() ? Value::Null() : *st.values.rbegin();
  }
  return Value::Null();
}

void TemporalAggregationCursor::SweepGroup() {
  // The group arrives sorted on T1 (the external sort); the second copy —
  // here a vector of row indices — is sorted on T2 (the internal sort the
  // paper's cost formula charges for).
  const size_t n = group_rows_.size();
  std::vector<size_t> by_t2(n);
  for (size_t i = 0; i < n; ++i) by_t2[i] = i;
  std::stable_sort(by_t2.begin(), by_t2.end(), [this](size_t a, size_t b) {
    return group_rows_[a][t2_] < group_rows_[b][t2_];
  });

  states_.assign(aggs_.size(), AggState{});
  // Count of tuples currently active (for "emit only non-empty periods").
  int64_t active = 0;

  size_t i = 0;  // next start event (rows sorted on T1)
  size_t j = 0;  // next end event (by_t2)
  bool have_prev = false;
  Value prev_t;

  while (j < n) {
    // Next event time: the smaller of the next start and the next end.
    Value t = group_rows_[by_t2[j]][t2_];
    if (i < n && group_rows_[i][t1_] < t) t = group_rows_[i][t1_];

    if (active > 0 && have_prev && prev_t < t) {
      // Emit the constant period [prev_t, t).
      Tuple out;
      out.reserve(group_cols_.size() + 2 + aggs_.size());
      for (size_t c : group_cols_) out.push_back(group_rows_.front()[c]);
      out.push_back(prev_t);
      out.push_back(t);
      for (size_t a = 0; a < aggs_.size(); ++a) out.push_back(CurrentValue(a));
      output_.push_back(std::move(out));
    }

    while (i < n && group_rows_[i][t1_].Compare(t) == 0) {
      Add(group_rows_[i]);
      ++active;
      ++i;
    }
    while (j < n && group_rows_[by_t2[j]][t2_].Compare(t) == 0) {
      Remove(group_rows_[by_t2[j]]);
      --active;
      ++j;
    }
    prev_t = t;
    have_prev = true;
  }
}

Result<size_t> TemporalAggregationCursor::NextBatch(RowBlock* block) {
  block->Clear();
  while (!block->full()) {
    if (out_pos_ >= output_.size()) {
      output_.clear();
      out_pos_ = 0;
      TANGO_ASSIGN_OR_RETURN(bool have_group, LoadNextGroup());
      if (!have_group) break;
      SweepGroup();
    }
    while (out_pos_ < output_.size() && !block->full()) {
      block->AppendRow(std::move(output_[out_pos_++]));
    }
  }
  return block->rows();
}

}  // namespace exec
}  // namespace tango
