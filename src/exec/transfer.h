#ifndef TANGO_EXEC_TRANSFER_H_
#define TANGO_EXEC_TRANSFER_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/cursor.h"
#include "common/retry.h"
#include "dbms/connection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tango {
namespace exec {

/// \brief Optional observability hooks for the transfer cursors.
///
/// All pointers may be null (that hook is skipped). `span` is the
/// operator span the cursor's retry backoffs nest under — NOT the span the
/// rows are attributed to; row counts go to the process-wide counters.
struct TransferObservability {
  obs::Counter* rows_to_middleware = nullptr;  // T^M rows delivered
  obs::Counter* rows_to_dbms = nullptr;        // T^D rows bulk-loaded
  obs::Counter* cache_hits = nullptr;          // shared-statement cache hits
  obs::Counter* cache_misses = nullptr;        // shared statements transferred
  obs::TraceRecorder* trace = nullptr;
  obs::SpanId span = obs::kNoSpan;
};

/// \brief Shared result store for identical TRANSFER^M statements within
/// one query execution.
///
/// The paper's §7 refinement: "if a query is to access the same DBMS
/// relation twice (even if the projected attributes are different), it
/// would be beneficial to issue only one T^M operation." The plan compiler
/// marks SQL statements that occur more than once in a plan; the first
/// TRANSFER^M to execute such a statement materializes the rows here, and
/// later occurrences are served locally without a second round trip. The
/// result is kept as the blocks it was fetched in, and each occurrence hands
/// out column ranges of them, up to its consumer's capacity.
/// Only complete result sets are ever stored: a transfer that fails
/// mid-materialization (even after exhausting retries) must not poison the
/// cache with a partial result for the other occurrences.
/// Get/Put lock, so the store stays consistent even if transfers sharing
/// it run on different threads; the executor itself drives every cursor of
/// a plan from the one thread that runs the query.
class TransferCache {
 public:
  /// Marks `sql` as occurring multiple times in the plan (worth caching).
  /// Called during compilation (single-threaded), before any execution.
  void MarkShared(const std::string& sql) { shared_.insert(sql); }
  bool IsShared(const std::string& sql) const {
    return shared_.count(sql) != 0;
  }

  /// A shared statement's complete result, in its fetched blocks.
  struct Blocks {
    std::vector<RowBlock> blocks;
    /// Rows over all blocks.
    size_t size() const {
      size_t n = 0;
      for (const RowBlock& b : blocks) n += b.rows();
      return n;
    }
  };

  std::shared_ptr<const Blocks> Get(const std::string& sql) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = results_.find(sql);
    return it == results_.end() ? nullptr : it->second;
  }
  void Put(const std::string& sql, std::vector<RowBlock> blocks) {
    std::lock_guard<std::mutex> lock(mu_);
    results_[sql] = std::make_shared<const Blocks>(Blocks{std::move(blocks)});
  }

 private:
  std::set<std::string> shared_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Blocks>> results_;
};

/// \brief TRANSFER^M: issues an SQL SELECT to the DBMS and streams the
/// result tuples into the middleware (§3.2).
///
/// `dependencies` are cursors that must be fully executed before the SELECT
/// is issued — the dashed "algorithm sequence" arrows of Figure 5: a
/// TRANSFER^D that loads a temporary the SELECT reads from.
///
/// Transient wire/DBMS failures (kUnavailable/kAborted) are retried under
/// `retry`: the SELECT is idempotent and the engine deterministic, so the
/// statement is simply re-issued and rows already delivered downstream are
/// skipped before streaming resumes. One retry budget covers the cursor's
/// whole lifetime (open + drain); when it is exhausted the last transient
/// failure is returned tagged "TRANSFER^M" so the middleware can pick the
/// right degraded plan.
class TransferMCursor : public Cursor {
 public:
  TransferMCursor(dbms::Connection* conn, std::string sql, Schema schema,
                  std::vector<CursorPtr> dependencies = {},
                  std::shared_ptr<TransferCache> cache = nullptr,
                  QueryControlPtr control = nullptr,
                  RetryPolicy retry = RetryPolicy(),
                  RecoveryCounters* counters = nullptr);

  Status Init() override;
  /// Hands whole decoded wire blocks downstream (or copies up to a block's
  /// capacity of column ranges out of the shared cache). Remote fetch errors only surface at block
  /// boundaries, so `delivered_` — the restart-skip offset — stays
  /// block-aligned and a re-issued SELECT repositions on the same block
  /// grid.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return schema_; }

  const std::string& sql() const { return sql_; }

  /// Installs the metric/trace hooks; call before Init.
  void set_observability(const TransferObservability& obs) { obs_ = obs; }

 private:
  /// One attempt: (re)issue the SELECT and skip the whole wire blocks that
  /// hold the `skip` already-delivered rows. Non-OK means the attempt
  /// failed (possibly transiently).
  Status TryOpen(size_t skip);
  /// Retry loop around TryOpen; consumes attempts from retry_ until open
  /// succeeds, the budget is exhausted, or the failure is not retryable.
  Status Restore(size_t skip);
  /// Fetches the next wire block from the remote cursor; a transient
  /// failure re-issues the SELECT past the `delivered_` rows and fetches
  /// again, within the retry budget.
  Result<size_t> Fetch(RowBlock* block);

  dbms::Connection* conn_;
  std::string sql_;
  Schema schema_;
  std::vector<CursorPtr> dependencies_;
  std::shared_ptr<TransferCache> cache_;
  QueryControlPtr control_;
  RetryPolicy policy_;
  RecoveryCounters* counters_;
  TransferObservability obs_;
  std::unique_ptr<RetryState> retry_;
  CursorPtr remote_;
  size_t delivered_ = 0;
  // Set when serving from (or populating) the shared cache: the next row to
  // hand out is row `cached_row_` of block `cached_block_`.
  std::shared_ptr<const TransferCache::Blocks> cached_;
  size_t cached_block_ = 0;
  size_t cached_row_ = 0;
};

/// \brief TRANSFER^D: creates a table in the DBMS and bulk-loads its
/// argument into it during Init (the paper: "it fetches all tuples of the
/// argument result set and copies them into the DBMS").
///
/// Produces no tuples itself; downstream DBMS SQL references `table_name`.
/// The table is created with an exact-size extent and no free space — the
/// write-once optimizations of §3.2 — and must be dropped when the query
/// ends (the execution engine does this).
///
/// The argument is drained (middleware side) before any DBMS statement, so
/// a transient failure only ever interrupts the CREATE/load pair; a retry
/// then drops whatever half-created table the failed attempt left behind
/// and recreates + reloads from the buffered rows — the load is made
/// idempotent by construction. Exhausted-budget failures are tagged
/// "TRANSFER^D" for the degradation logic.
class TransferDCursor : public Cursor {
 public:
  /// `columns` are the (unique) column names for the created table, parallel
  /// to the child schema.
  TransferDCursor(dbms::Connection* conn, std::string table_name,
                  std::vector<std::string> columns, CursorPtr child,
                  QueryControlPtr control = nullptr,
                  RetryPolicy retry = RetryPolicy(),
                  RecoveryCounters* counters = nullptr);

  Status Init() override;
  /// Produces no rows: the SQL of a later TRANSFER^M reads the table.
  Result<size_t> NextBatch(RowBlock* block) override {
    block->Clear();
    return 0;
  }
  const Schema& schema() const override { return child_->schema(); }

  const std::string& table_name() const { return table_name_; }
  /// Number of tuples loaded (valid after Init).
  size_t rows_loaded() const { return rows_loaded_; }

  /// Installs the metric/trace hooks; call before Init.
  void set_observability(const TransferObservability& obs) { obs_ = obs; }

 private:
  /// One attempt at the DBMS side; `drop_first` makes a retry idempotent by
  /// removing whatever the failed attempt left behind.
  Status AttemptLoad(bool drop_first, const std::string& ddl,
                     const std::vector<Tuple>& rows);

  dbms::Connection* conn_;
  std::string table_name_;
  std::vector<std::string> columns_;
  CursorPtr child_;
  QueryControlPtr control_;
  RetryPolicy policy_;
  RecoveryCounters* counters_;
  TransferObservability obs_;
  size_t rows_loaded_ = 0;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_TRANSFER_H_
