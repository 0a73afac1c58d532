#include "exec/transfer.h"

namespace tango {
namespace exec {

namespace {

/// Rows between control polls while draining middleware-side cursors.
constexpr size_t kControlPollStride = 1024;

/// Labels a transient failure with the operator that exhausted its budget
/// on it, so the middleware's degradation logic can tell a failed T^M from
/// a failed T^D. Non-transient failures pass through untouched.
Status TagTransient(const Status& s, const char* op, const std::string& what) {
  if (s.ok() || !s.IsTransient()) return s;
  return Status(s.code(), std::string(op) + " " + what + ": " + s.message());
}

}  // namespace

TransferMCursor::TransferMCursor(dbms::Connection* conn, std::string sql,
                                 Schema schema,
                                 std::vector<CursorPtr> dependencies,
                                 std::shared_ptr<TransferCache> cache,
                                 QueryControlPtr control, RetryPolicy retry,
                                 RecoveryCounters* counters)
    : conn_(conn),
      sql_(std::move(sql)),
      schema_(std::move(schema)),
      dependencies_(std::move(dependencies)),
      cache_(std::move(cache)),
      control_(std::move(control)),
      policy_(retry),
      counters_(counters) {}

Status TransferMCursor::TryOpen(size_t skip) {
  remote_.reset();
  TANGO_ASSIGN_OR_RETURN(remote_, conn_->ExecuteQuery(sql_, control_));
  TANGO_RETURN_IF_ERROR(remote_->Init());
  if (remote_->schema().num_columns() != schema_.num_columns()) {
    return Status::Internal("TRANSFER^M schema arity mismatch: SQL \"" + sql_ +
                            "\" returned " +
                            std::to_string(remote_->schema().num_columns()) +
                            " columns, plan expected " +
                            std::to_string(schema_.num_columns()));
  }
  // Reposition past rows already delivered downstream: the engine is
  // deterministic, so the re-issued SELECT reproduces the same block
  // sequence, and the skip offset lands on a block boundary (DESIGN.md §11,
  // "Restart alignment"). Whole blocks are skipped.
  RowBlock block;
  size_t skipped = 0;
  while (skipped < skip) {
    TANGO_ASSIGN_OR_RETURN(const size_t n, remote_->NextBatch(&block));
    if (n == 0) {
      return Status::Internal(
          "TRANSFER^M retry could not reposition: re-issued \"" + sql_ +
          "\" returned fewer rows than already delivered");
    }
    skipped += n;
  }
  if (skipped != skip) {
    return Status::Internal(
        "TRANSFER^M retry could not reposition: a block of re-issued \"" +
        sql_ + "\" straddles row " + std::to_string(skip) +
        ", the end of what was already delivered");
  }
  if (counters_ != nullptr && skip > 0) counters_->rows_skipped.Increment(skip);
  return Status::OK();
}

Status TransferMCursor::Restore(size_t skip) {
  while (true) {
    Status s = TryOpen(skip);
    if (s.ok()) return s;
    if (!retry_->ShouldRetry(s)) return TagTransient(s, "TRANSFER^M", sql_);
    if (counters_ != nullptr) ++counters_->tm_retries;
    {
      obs::ScopedSpan backoff(obs_.trace, "retry.backoff", "retry", obs_.span);
      TANGO_RETURN_IF_ERROR(retry_->Backoff(control_));
    }
  }
}

Status TransferMCursor::Init() {
  // Execute dependencies first (TRANSFER^D loads happen in their Init).
  for (const CursorPtr& dep : dependencies_) {
    TANGO_RETURN_IF_ERROR(dep->Init());
    RowBlock block(kControlPollStride);
    while (true) {
      TANGO_ASSIGN_OR_RETURN(const size_t n, dep->NextBatch(&block));
      if (n == 0) break;
      TANGO_RETURN_IF_ERROR(CheckControl(control_));
    }
  }
  cached_rows_ = nullptr;
  cached_pos_ = 0;
  delivered_ = 0;
  // One retry budget for the cursor's whole open + drain.
  retry_ = std::make_unique<RetryState>(policy_);
  // §7 refinement: identical statements within one plan transfer once.
  if (cache_ != nullptr) {
    cached_rows_ = cache_->Get(sql_);
    if (cached_rows_ != nullptr) {
      if (obs_.cache_hits != nullptr) ++*obs_.cache_hits;
      return Status::OK();
    }
  }
  TANGO_RETURN_IF_ERROR(Restore(0));
  if (cache_ != nullptr && cache_->IsShared(sql_)) {
    // Shared but not yet cached: this occurrence pays the transfer.
    if (obs_.cache_misses != nullptr) ++*obs_.cache_misses;
    // Materialize once; this and every later occurrence serve locally. The
    // cache is only written after a complete drain — a transfer dying
    // mid-materialization (even past its retry budget) leaves no partial
    // result behind for the other occurrences.
    std::vector<Tuple> rows;
    RowBlock block;
    while (true) {
      TANGO_ASSIGN_OR_RETURN(const size_t n, Fetch(&block));
      if (n == 0) break;
      MoveRowsInto(&block, &rows);
    }
    remote_.reset();
    cache_->Put(sql_, std::move(rows));
    cached_rows_ = cache_->Get(sql_);
  }
  return Status::OK();
}

Result<size_t> TransferMCursor::NextBatch(RowBlock* block) {
  if (cached_rows_ == nullptr) return Fetch(block);
  block->Clear();
  while (cached_pos_ < cached_rows_->size() && !block->full()) {
    block->AppendRow((*cached_rows_)[cached_pos_++]);
  }
  return block->rows();
}

Result<size_t> TransferMCursor::Fetch(RowBlock* block) {
  while (true) {
    Result<size_t> r = remote_->NextBatch(block);
    if (r.ok()) {
      const size_t n = r.ValueOrDie();
      delivered_ += n;
      if (obs_.rows_to_middleware != nullptr && n > 0) {
        obs_.rows_to_middleware->Increment(n);
      }
      return n;
    }
    if (!retry_->ShouldRetry(r.status())) {
      return TagTransient(r.status(), "TRANSFER^M", sql_);
    }
    if (counters_ != nullptr) ++counters_->tm_retries;
    {
      obs::ScopedSpan backoff(obs_.trace, "retry.backoff", "retry", obs_.span);
      TANGO_RETURN_IF_ERROR(retry_->Backoff(control_));
    }
    // The failed fetch delivered nothing (errors surface before any row
    // leaves the wire buffer), so `delivered_` is exact — and, because
    // fetches fail only between blocks, block-aligned.
    TANGO_RETURN_IF_ERROR(Restore(delivered_));
  }
}

TransferDCursor::TransferDCursor(dbms::Connection* conn,
                                 std::string table_name,
                                 std::vector<std::string> columns,
                                 CursorPtr child, QueryControlPtr control,
                                 RetryPolicy retry, RecoveryCounters* counters)
    : conn_(conn),
      table_name_(std::move(table_name)),
      columns_(std::move(columns)),
      child_(std::move(child)),
      control_(std::move(control)),
      policy_(retry),
      counters_(counters) {}

Status TransferDCursor::AttemptLoad(bool drop_first, const std::string& ddl,
                                    const std::vector<Tuple>& rows) {
  if (drop_first) {
    // Remove whatever the failed attempt left behind (half-created table,
    // partial load). A missing table is fine — the drop is idempotent.
    Status drop = conn_->Execute("DROP TABLE " + table_name_, control_).status();
    if (!drop.ok() && drop.code() != StatusCode::kNotFound) return drop;
  }
  TANGO_RETURN_IF_ERROR(conn_->Execute(ddl, control_).status());
  return conn_->BulkLoad(table_name_, rows, control_);
}

Status TransferDCursor::Init() {
  const Schema& in = child_->schema();
  if (columns_.size() != in.num_columns()) {
    return Status::Internal("TRANSFER^D column name count mismatch");
  }
  std::string ddl = "CREATE TABLE " + table_name_ + " (";
  for (size_t i = 0; i < in.num_columns(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += columns_[i];
    ddl += " ";
    ddl += DataTypeName(in.column(i).type);
  }
  ddl += ")";

  // Drain the argument first: buffering the rows before any DBMS statement
  // means a transient failure only ever interrupts the CREATE/load pair,
  // which a retry can redo from the buffer without re-running the
  // middleware subtree.
  TANGO_RETURN_IF_ERROR(child_->Init());
  std::vector<Tuple> rows;
  RowBlock block(kControlPollStride);
  while (true) {
    TANGO_ASSIGN_OR_RETURN(const size_t n, child_->NextBatch(&block));
    if (n == 0) break;
    MoveRowsInto(&block, &rows);
    TANGO_RETURN_IF_ERROR(CheckControl(control_));
  }
  rows_loaded_ = rows.size();

  RetryState retry(policy_);
  Status s = AttemptLoad(/*drop_first=*/false, ddl, rows);
  while (!s.ok()) {
    if (!retry.ShouldRetry(s)) return TagTransient(s, "TRANSFER^D", table_name_);
    if (counters_ != nullptr) ++counters_->td_retries;
    {
      obs::ScopedSpan backoff(obs_.trace, "retry.backoff", "retry", obs_.span);
      TANGO_RETURN_IF_ERROR(retry.Backoff(control_));
    }
    s = AttemptLoad(/*drop_first=*/true, ddl, rows);
  }
  if (obs_.rows_to_dbms != nullptr) obs_.rows_to_dbms->Increment(rows_loaded_);
  return Status::OK();
}

}  // namespace exec
}  // namespace tango
