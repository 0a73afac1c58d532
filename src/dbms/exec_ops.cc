#include "dbms/exec_ops.h"

namespace tango {
namespace dbms {

// -------------------------------------------------------- StoredRowReader

std::vector<size_t> AllColumns(const Schema& schema) {
  std::vector<size_t> columns(schema.num_columns());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  return columns;
}

StoredRowReader::StoredRowReader(const Table* table,
                                 std::vector<ExprPtr> conjuncts,
                                 std::vector<size_t> columns)
    : table_(table),
      conjuncts_(std::move(conjuncts)),
      columns_(std::move(columns)),
      read_by_predicate_(table->schema().num_columns(), 0),
      scratch_(table->schema().num_columns()) {
  for (const ExprPtr& conjunct : conjuncts_) {
    std::vector<size_t>& fresh = new_columns_.emplace_back();
    for (const size_t c : BoundColumnIndexes(*conjunct)) {
      if (read_by_predicate_[c] == 0) fresh.push_back(c);
      read_by_predicate_[c] = 1;
    }
  }
}

Schema StoredRowReader::OutputSchema(const std::string& alias) const {
  const Schema& full = table_->schema();
  const std::string qualifier = ToUpper(alias);
  Schema out;
  for (const size_t c : columns_) {
    Column col = full.column(c);
    if (!alias.empty()) col.table = qualifier;
    out.AddColumn(std::move(col));
  }
  return out;
}

Result<bool> StoredRowReader::Load(const uint8_t* bytes, uint32_t len) {
  TANGO_RETURN_IF_ERROR(view_.Reset(bytes, len));
  if (view_.arity() != scratch_.size()) {
    return Status::IOError("stored row arity does not match " +
                           table_->name());
  }
  // Stop at the first conjunct that is not TRUE (see the class comment for
  // why that returns exactly the rows WHERE keeps).
  for (size_t k = 0; k < conjuncts_.size(); ++k) {
    for (const size_t c : new_columns_[k]) {
      TANGO_RETURN_IF_ERROR(view_.GetInto(c, &scratch_[c]));
    }
    if (!EvalPredicate(*conjuncts_[k], scratch_)) return false;
  }
  return true;
}

Status StoredRowReader::Emit(size_t i, Value* out) {
  const size_t col = columns_[i];
  if (read_by_predicate_[col] != 0) {
    // A copy, not a move: the scratch value keeps its string buffer, so
    // rejected rows stay free of heap allocation.
    *out = scratch_[col];
    return Status::OK();
  }
  return view_.GetInto(col, out);
}

Status StoredRowReader::EmitRow(Tuple* tuple) {
  tuple->resize(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    TANGO_RETURN_IF_ERROR(Emit(i, &(*tuple)[i]));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- TableScan

TableScanOp::TableScanOp(const Table* table, const std::string& alias,
                         std::vector<ExprPtr> conjuncts,
                         std::vector<size_t> columns)
    : table_(table),
      reader_(table, std::move(conjuncts), std::move(columns)),
      schema_(reader_.OutputSchema(alias)) {}

Status TableScanOp::Init() {
  it_.emplace(table_->file().Scan());
  return Status::OK();
}

Result<bool> TableScanOp::Advance(storage::Rid* rid) {
  const uint8_t* bytes;
  uint32_t len;
  while (it_->NextEncoded(&bytes, &len, rid)) {
    TANGO_ASSIGN_OR_RETURN(const bool qualifies, reader_.Load(bytes, len));
    if (qualifies) return true;
  }
  return false;
}

Result<bool> TableScanOp::NextWithRid(Tuple* tuple, storage::Rid* rid) {
  TANGO_ASSIGN_OR_RETURN(const bool found, Advance(rid));
  if (!found) return false;
  TANGO_RETURN_IF_ERROR(reader_.EmitRow(tuple));
  return true;
}

Result<size_t> TableScanOp::NextBatch(RowBlock* block) {
  const size_t arity = reader_.arity();
  if (block->columns() == arity) {
    block->Clear();
  } else {
    block->Reset(arity);
  }
  size_t rows = 0;
  while (rows < block->capacity()) {
    TANGO_ASSIGN_OR_RETURN(const bool found, Advance(nullptr));
    if (!found) break;
    for (size_t i = 0; i < arity; ++i) {
      std::vector<Value>& column = block->column(i);
      TANGO_RETURN_IF_ERROR(reader_.Emit(i, &column.emplace_back()));
    }
    ++rows;
  }
  block->set_rows(rows);
  return rows;
}

// ---------------------------------------------------------------- IndexScan

IndexScanOp::IndexScanOp(const Table* table, size_t column,
                         const std::string& alias, std::optional<Value> lo,
                         bool lo_inclusive, std::optional<Value> hi,
                         bool hi_inclusive, std::vector<ExprPtr> conjuncts,
                         std::vector<size_t> columns)
    : table_(table),
      column_(column),
      reader_(table, std::move(conjuncts), std::move(columns)),
      schema_(reader_.OutputSchema(alias)),
      lo_(std::move(lo)),
      hi_(std::move(hi)),
      lo_inclusive_(lo_inclusive),
      hi_inclusive_(hi_inclusive) {}

Status IndexScanOp::Init() {
  const storage::BPlusTree* index = table_->GetIndex(column_);
  if (index == nullptr) return Status::Internal("index scan without index");
  if (lo_.has_value()) {
    it_ = lo_inclusive_ ? index->SeekGE(*lo_) : index->SeekGT(*lo_);
  } else {
    it_ = index->Begin();
  }
  return Status::OK();
}

Result<bool> IndexScanOp::NextRow(Tuple* tuple) {
  Value key;
  storage::Rid rid;
  while (it_->Next(&key, &rid)) {
    if (hi_.has_value()) {
      const int c = key.Compare(*hi_);
      if (c > 0 || (c == 0 && !hi_inclusive_)) return false;
    }
    const uint8_t* bytes;
    uint32_t len;
    TANGO_RETURN_IF_ERROR(table_->file().GetEncoded(rid, &bytes, &len));
    TANGO_ASSIGN_OR_RETURN(const bool qualifies, reader_.Load(bytes, len));
    if (!qualifies) continue;
    TANGO_RETURN_IF_ERROR(reader_.EmitRow(tuple));
    return true;
  }
  return false;
}

// ----------------------------------------------------------------- UnionAll

Status UnionAllOp::Init() {
  current_ = 0;
  for (auto& c : children_) TANGO_RETURN_IF_ERROR(c->Init());
  return Status::OK();
}

Result<size_t> UnionAllOp::NextBatch(RowBlock* block) {
  block->Clear();
  while (current_ < children_.size()) {
    TANGO_ASSIGN_OR_RETURN(const size_t n,
                           children_[current_]->NextBatch(block));
    if (n > 0) return n;
    ++current_;
  }
  return 0;
}

// ----------------------------------------------------------------- HashJoin

HashJoinOp::HashJoinOp(CursorPtr left, CursorPtr right,
                       std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_reader_(left_.get()),
      right_reader_(right_.get()),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(Schema::Concat(left_->schema(), right_->schema())),
      residual_(std::move(residual), left_->schema().num_columns(),
                right_->schema().num_columns()) {}

Status HashJoinOp::Init() {
  TANGO_RETURN_IF_ERROR(left_reader_.Init());
  TANGO_RETURN_IF_ERROR(right_reader_.Init());
  hash_table_.clear();
  match_bucket_ = nullptr;
  match_pos_ = 0;
  // Build on the left input.
  Tuple t;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(bool more, left_reader_.Next(&t));
    if (!more) break;
    std::vector<Value> key;
    key.reserve(left_keys_.size());
    bool has_null = false;
    for (size_t k : left_keys_) {
      if (t[k].is_null()) has_null = true;
      key.push_back(t[k]);
    }
    if (has_null) continue;  // NULL keys never join
    hash_table_[std::move(key)].push_back(std::move(t));
  }
  return Status::OK();
}

Result<bool> HashJoinOp::NextRow(Tuple* tuple) {
  while (true) {
    if (match_bucket_ != nullptr && match_pos_ < match_bucket_->size()) {
      if (residual_.Match((*match_bucket_)[match_pos_++], probe_row_, tuple)) {
        return true;
      }
      continue;
    }
    TANGO_ASSIGN_OR_RETURN(const bool more, right_reader_.Next(&probe_row_));
    if (!more) return false;
    probe_key_.resize(right_keys_.size());
    bool has_null = false;
    for (size_t i = 0; i < right_keys_.size(); ++i) {
      const Value& v = probe_row_[right_keys_[i]];
      if (v.is_null()) has_null = true;
      probe_key_[i] = v;
    }
    match_bucket_ = nullptr;
    match_pos_ = 0;
    if (has_null) continue;
    const auto it = hash_table_.find(probe_key_);
    if (it != hash_table_.end()) match_bucket_ = &it->second;
  }
}

// ----------------------------------------------------------- NestedLoopJoin

NestedLoopJoinOp::NestedLoopJoinOp(CursorPtr left, CursorPtr right,
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_reader_(left_.get()),
      schema_(Schema::Concat(left_->schema(), right_->schema())),
      predicate_(std::move(predicate), left_->schema().num_columns(),
                 right_->schema().num_columns()) {}

Status NestedLoopJoinOp::Init() {
  TANGO_RETURN_IF_ERROR(left_reader_.Init());
  TANGO_ASSIGN_OR_RETURN(inner_, MaterializeAll(right_.get()));
  outer_valid_ = false;
  inner_pos_ = 0;
  TANGO_ASSIGN_OR_RETURN(outer_valid_, left_reader_.Next(&outer_row_));
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::NextRow(Tuple* tuple) {
  while (outer_valid_) {
    while (inner_pos_ < inner_.size()) {
      if (predicate_.Match(outer_row_, inner_[inner_pos_++], tuple)) {
        return true;
      }
    }
    inner_pos_ = 0;
    TANGO_ASSIGN_OR_RETURN(outer_valid_, left_reader_.Next(&outer_row_));
  }
  return false;
}

// ------------------------------------------------------ IndexNestedLoopJoin

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    CursorPtr outer, const Table* inner, const std::string& inner_alias,
    size_t outer_key, size_t inner_column, std::vector<size_t> inner_columns,
    ExprPtr residual)
    : outer_(std::move(outer)),
      outer_reader_(outer_.get()),
      inner_(inner),
      outer_key_(outer_key),
      inner_column_(inner_column),
      inner_reader_(inner, {}, std::move(inner_columns)),
      schema_(Schema::Concat(outer_->schema(),
                             inner_reader_.OutputSchema(inner_alias))),
      residual_(std::move(residual), outer_->schema().num_columns(),
                inner_reader_.arity()) {}

Status IndexNestedLoopJoinOp::Init() {
  if (inner_->GetIndex(inner_column_) == nullptr) {
    return Status::Internal("index nested-loop join without index");
  }
  TANGO_RETURN_IF_ERROR(outer_reader_.Init());
  probing_ = false;
  return Status::OK();
}

Result<bool> IndexNestedLoopJoinOp::NextRow(Tuple* tuple) {
  storage::Rid rid;
  while (true) {
    // Walk the index entries equal to the outer key, one candidate each.
    if (probing_ && matches_.Next(&index_key_, &rid) &&
        index_key_ == outer_row_[outer_key_]) {
      const uint8_t* bytes;
      uint32_t len;
      TANGO_RETURN_IF_ERROR(inner_->file().GetEncoded(rid, &bytes, &len));
      TANGO_RETURN_IF_ERROR(inner_reader_.Load(bytes, len).status());
      TANGO_RETURN_IF_ERROR(inner_reader_.EmitRow(&inner_row_));
      if (residual_.Match(outer_row_, inner_row_, tuple)) return true;
      continue;
    }
    probing_ = false;
    TANGO_ASSIGN_OR_RETURN(const bool more, outer_reader_.Next(&outer_row_));
    if (!more) return false;
    const Value& key = outer_row_[outer_key_];
    if (key.is_null()) continue;
    matches_ = inner_->GetIndex(inner_column_)->SeekGE(key);
    probing_ = true;
  }
}

// ----------------------------------------------------------------- GroupAgg

GroupAggOp::GroupAggOp(CursorPtr child, std::vector<size_t> group_cols,
                       std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      reader_(child_.get()),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  // Output schema: group columns (with their child names/types), then one
  // column per aggregate.
  for (size_t c : group_cols_) schema_.AddColumn(child_->schema().column(c));
  for (const AggSpec& a : aggs_) {
    Column col;
    col.name = ToUpper(a.name);
    if (a.func == AggFunc::kCount) {
      col.type = DataType::kInt;
    } else if (a.func == AggFunc::kAvg) {
      col.type = DataType::kDouble;
    } else if (a.arg != nullptr) {
      auto t = InferType(a.arg, child_->schema());
      col.type = t.ok() ? t.ValueOrDie() : DataType::kDouble;
    } else {
      col.type = DataType::kDouble;
    }
    schema_.AddColumn(col);
  }
}

Status GroupAggOp::Init() {
  TANGO_RETURN_IF_ERROR(reader_.Init());
  group_open_ = false;
  pending_valid_ = false;
  input_done_ = false;
  emitted_global_ = false;
  states_.assign(aggs_.size(), AggState{});
  return Status::OK();
}

void GroupAggOp::Accumulate(const Tuple& row) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = states_[i];
    const AggSpec& a = aggs_[i];
    Value v;
    if (a.arg != nullptr) {
      v = Eval(*a.arg, row);
      if (v.is_null()) continue;  // SQL aggregates skip NULLs
    }
    st.any = true;
    st.count += 1;
    if (a.arg != nullptr && v.is_numeric()) {
      st.sum += v.AsDouble();
      if (!v.is_int()) st.sum_is_int = false;
      if (st.count == 1 || v < st.min) st.min = v;
      if (st.count == 1 || v > st.max) st.max = v;
    } else if (a.arg != nullptr) {
      if (st.count == 1 || v < st.min) st.min = v;
      if (st.count == 1 || v > st.max) st.max = v;
    }
  }
}

Tuple GroupAggOp::EmitGroup() {
  Tuple out;
  out.reserve(group_cols_.size() + aggs_.size());
  for (size_t c : group_cols_) out.push_back(group_key_row_[c]);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggState& st = states_[i];
    switch (aggs_[i].func) {
      case AggFunc::kCount:
        out.push_back(Value(st.count));
        break;
      case AggFunc::kSum:
        if (!st.any) {
          out.push_back(Value::Null());
        } else if (st.sum_is_int) {
          out.push_back(Value(static_cast<int64_t>(st.sum)));
        } else {
          out.push_back(Value(st.sum));
        }
        break;
      case AggFunc::kAvg:
        out.push_back(st.any ? Value(st.sum / static_cast<double>(st.count))
                             : Value::Null());
        break;
      case AggFunc::kMin:
        out.push_back(st.any ? st.min : Value::Null());
        break;
      case AggFunc::kMax:
        out.push_back(st.any ? st.max : Value::Null());
        break;
    }
  }
  states_.assign(aggs_.size(), AggState{});
  return out;
}

Result<bool> GroupAggOp::NextRow(Tuple* tuple) {
  if (input_done_) {
    // Global aggregation over an empty input still yields one row.
    if (group_cols_.empty() && !emitted_global_ && !group_open_) {
      emitted_global_ = true;
      group_key_row_.clear();
      *tuple = EmitGroup();
      return true;
    }
    if (group_open_) {
      group_open_ = false;
      *tuple = EmitGroup();
      emitted_global_ = true;
      return true;
    }
    return false;
  }
  while (true) {
    Tuple row;
    bool more;
    if (pending_valid_) {
      row = std::move(pending_);
      pending_valid_ = false;
      more = true;
    } else {
      TANGO_ASSIGN_OR_RETURN(more, reader_.Next(&row));
    }
    if (!more) {
      input_done_ = true;
      if (group_open_) {
        group_open_ = false;
        emitted_global_ = true;
        *tuple = EmitGroup();
        return true;
      }
      if (group_cols_.empty() && !emitted_global_) {
        emitted_global_ = true;
        group_key_row_.clear();
        *tuple = EmitGroup();
        return true;
      }
      return false;
    }
    if (!group_open_) {
      group_open_ = true;
      group_key_row_ = row;
      Accumulate(row);
      continue;
    }
    // Same group?
    bool same = true;
    for (size_t c : group_cols_) {
      if (row[c].Compare(group_key_row_[c]) != 0) {
        same = false;
        break;
      }
    }
    if (same) {
      Accumulate(row);
      continue;
    }
    // New group: emit the finished one, stash the row.
    pending_ = std::move(row);
    pending_valid_ = true;
    Tuple out = EmitGroup();
    group_key_row_.clear();
    group_open_ = false;
    *tuple = std::move(out);
    // Open the new group on the next call.
    if (pending_valid_) {
      group_open_ = true;
      group_key_row_ = pending_;
      Accumulate(pending_);
      pending_valid_ = false;
    }
    return true;
  }
}

}  // namespace dbms
}  // namespace tango
