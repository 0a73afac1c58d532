#include "dbms/exec_ops.h"

#include <algorithm>
#include <utility>

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

namespace {

/// The hash of a row's `keys`, reading key column c as `value(c)`; false
/// when one of them is NULL, since NULL keys never join.
template <typename ValueAt>
bool HashKeys(const std::vector<size_t>& keys, const ValueAt& value,
              uint64_t* hash) {
  size_t h = 0;
  for (const size_t k : keys) {
    const Value& v = value(k);
    if (v.is_null()) return false;
    h = h * 1315423911u + v.Hash();
  }
  *hash = h;
  return true;
}

}  // namespace

HashJoinOp::HashJoinOp(CursorPtr left, CursorPtr right,
                       std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_reader_(right_.get()),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(Schema::Concat(left_->schema(), right_->schema())),
      residual_(std::move(residual), left_->schema().num_columns(),
                right_->schema().num_columns()) {}

size_t HashJoinOp::SlotOf(uint64_t hash) const {
  // Fibonacci hashing: the top bits of the product index the directory.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >>
                             directory_shift_);
}

Status HashJoinOp::Init() {
  TANGO_RETURN_IF_ERROR(left_->Init());
  TANGO_RETURN_IF_ERROR(right_reader_.Init());
  match_pos_ = 0;
  match_end_ = 0;

  // Keep the build side's blocks as they come and hash each row's keys
  // where it lies. A row's position is its block << 32 | its row.
  std::vector<RowBlock> blocks(1);
  std::vector<std::pair<uint64_t, uint64_t>> order;  // (hash, position)
  while (true) {
    RowBlock& block = blocks.back();
    TANGO_ASSIGN_OR_RETURN(const size_t n, left_->NextBatch(&block));
    if (n == 0) break;
    for (size_t r = 0; r < n; ++r) {
      uint64_t hash = 0;
      const auto value = [&](size_t c) -> const Value& { return block.At(r, c); };
      if (HashKeys(left_keys_, value, &hash)) {
        order.emplace_back(hash, uint64_t{blocks.size() - 1} << 32 | r);
      }
    }
    // The next block gets this one's shape and room for as many rows, so
    // the child's fill does not regrow its columns.
    RowBlock& next = blocks.emplace_back(blocks.back().capacity());
    next.Reset(blocks[blocks.size() - 2].columns());
    for (size_t c = 0; c < next.columns(); ++c) next.column(c).reserve(n);
  }

  // Order the rows by (hash, input position); each moves once, to its place.
  std::sort(order.begin(), order.end());
  build_.resize(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const uint64_t pos = order[i].second;
    blocks[pos >> 32].MoveRowTo(pos & 0xFFFFFFFF, &build_[i]);
  }

  // One directory slot per distinct hash, at most half of them used.
  size_t runs = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || order[i].first != order[i - 1].first) ++runs;
  }
  size_t size = 2;
  directory_shift_ = 63;
  while (size < 2 * runs) {
    size *= 2;
    --directory_shift_;
  }
  directory_.assign(size, Slot{});
  for (size_t begin = 0; begin < order.size();) {
    const uint64_t hash = order[begin].first;
    size_t end = begin + 1;
    while (end < order.size() && order[end].first == hash) ++end;
    size_t s = SlotOf(hash);
    while (directory_[s].end != 0) s = (s + 1) & (size - 1);
    directory_[s] = {hash, static_cast<uint32_t>(begin),
                     static_cast<uint32_t>(end)};
    begin = end;
  }
  return Status::OK();
}

Result<bool> HashJoinOp::NextRow(Tuple* tuple) {
  while (true) {
    while (match_pos_ < match_end_) {
      const Tuple& candidate = build_[match_pos_++];
      bool keys_equal = true;
      for (size_t i = 0; i < left_keys_.size() && keys_equal; ++i) {
        keys_equal =
            candidate[left_keys_[i]].Compare(probe_row_[right_keys_[i]]) == 0;
      }
      if (keys_equal && residual_.Match(candidate, probe_row_, tuple)) {
        return true;
      }
    }
    TANGO_ASSIGN_OR_RETURN(const bool more, right_reader_.Next(&probe_row_));
    if (!more) return false;
    match_pos_ = 0;
    match_end_ = 0;
    uint64_t hash = 0;
    const auto value = [this](size_t c) -> const Value& {
      return probe_row_[c];
    };
    if (!HashKeys(right_keys_, value, &hash)) continue;
    const size_t mask = directory_.size() - 1;
    for (size_t s = SlotOf(hash); directory_[s].end != 0; s = (s + 1) & mask) {
      if (directory_[s].hash == hash) {
        match_pos_ = directory_[s].begin;
        match_end_ = directory_[s].end;
        break;
      }
    }
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
