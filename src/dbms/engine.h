#ifndef TANGO_DBMS_ENGINE_H_
#define TANGO_DBMS_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "dbms/catalog.h"
#include "dbms/engine_latch.h"
#include "dbms/fault.h"
#include "dbms/lock_table.h"
#include "dbms/planner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wal.h"

namespace tango {
namespace sql {
struct InsertStmt;
struct UpdateStmt;
struct TxnStmt;
}  // namespace sql

namespace dbms {

/// Materialized result of a statement.
struct QueryResult {
  Schema schema;
  std::vector<Tuple> rows;
};

/// How the engine opens its durable state.
struct EngineOptions {
  /// Directory holding WAL segments and checkpoint snapshots. Empty keeps
  /// the engine volatile (no logging, no recovery) — the pre-durability
  /// behavior every read-only experiment uses.
  std::string wal_dir;
  size_t wal_segment_bytes = 1 << 20;
  /// Optional observability sinks ("wal.*" / "txn.*" / "recovery.replay.*").
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// What recovery did during Open (tests and the janitor read this).
struct RecoveryStats {
  uint64_t snapshot_lsn = 0;
  uint64_t records_scanned = 0;
  uint64_t redo_applied = 0;
  uint64_t redo_skipped = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_undone = 0;
  uint64_t undo_records = 0;
  uint64_t torn_bytes_discarded = 0;
};

/// \brief The conventional DBMS the middleware sits on top of.
///
/// Accepts SQL text (the only interface the middleware may use, mirroring
/// JDBC), plans and executes it against its own catalog and storage. The
/// middleware never sees inside: it talks to this engine exclusively through
/// `Connection` (see connection.h).
///
/// With a `wal_dir` configured the engine is durable: every row mutation is
/// logged before the statement is acknowledged, DDL/ANALYZE/direct-path
/// loads are forced to the log before they apply, and `Open()` replays the
/// log ARIES-style (analysis / redo / undo) over the latest checkpoint
/// snapshot. The in-memory heap is the volatile medium; the log directory is
/// the durable one. After an injected log fault the engine is `crashed()`
/// and refuses every statement — tests then construct a fresh Engine over
/// the same directory and recover.
///
/// The engine itself does not lock. Concurrent Connections share it through
/// one writer-preferring reader/writer latch (`latch()`, taken by
/// Connection): shared for the read-only entries — `OpenQuery`, a server
/// cursor's `Init` and batches, and the schema/statistics/table-list catalog
/// reads — and exclusive for everything else. Sharing is safe because:
///  - the DBMS planner, catalog lookups, the heap iterator, B+-tree reads and
///    every DBMS operator read the catalog, `config()` and table storage but
///    write no engine state (the statement count is atomic);
///  - `txns_`, `locks_`, `next_txn_` and the WAL (including the crash flag
///    `Halted()` reads) are written only under the exclusive latch, and
///    every table, index and statistics mutation is an `Execute` or
///    `BulkLoad` under it;
///  - no path takes the latch while it already holds it. With writer
///    preference a recursive read would deadlock behind a waiting writer.
/// A server cursor keeps its scan position between batches and does not
/// hold the latch there, so readers stay read-uncommitted: a batch sees
/// whatever writers committed or left in flight before it.
class Engine {
 public:
  Engine() = default;
  explicit Engine(EngineOptions options) : options_(std::move(options)) {}

  /// Opens the WAL and replays it into the catalog; must be called (once)
  /// before any statement when `wal_dir` is set. No-op for volatile engines.
  Status Open();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  SessionConfig& config() { return config_; }

  /// Histogram buckets ANALYZE builds per column. The paper's "optimizer
  /// without histograms" is the middleware's Config::use_histograms.
  static constexpr size_t kAnalyzeHistogramBuckets = 32;

  /// Allocates a session: explicit-transaction state (BEGIN .. COMMIT) is
  /// per session, so concurrent Connections do not share transactions.
  /// Session 0 always exists. Safe to call from any thread, latch or not.
  uint64_t NewSession() { return next_session_.fetch_add(1); }

  /// Parses and executes one statement; SELECTs return rows, DDL/DML return
  /// an empty result. DML outside BEGIN..COMMIT autocommits (logged, forced,
  /// durable on return).
  Result<QueryResult> Execute(const std::string& sql, uint64_t session = 0);

  /// Plans a SELECT into a server-side cursor without materializing it.
  Result<CursorPtr> OpenQuery(const std::string& sql);

  /// Direct-path load (the SQL*Loader stand-in): appends rows to a table
  /// without going through INSERT parsing. Used by Connection::BulkLoad.
  /// Logged as one self-committing kBulkLoad record, and bumps the table's
  /// statistics epoch exactly like row-at-a-time DML.
  Status BulkLoad(const std::string& table, const std::vector<Tuple>& rows);

  /// Fuzzy checkpoint: forces the log, writes a `snap-<lsn>.ckpt` catalog
  /// snapshot, then logs a kCheckpoint record naming it and the transactions
  /// still in flight. Does NOT truncate the log — segment reclamation is the
  /// janitor's job (ReclaimWalSegments), so orphaned segments after a crash
  /// are the norm, not a leak.
  Status Checkpoint();

  /// Removes WAL segments wholly covered by the latest snapshot (keeping
  /// everything any open transaction still needs) and superseded snapshot
  /// files; returns how many files were reclaimed.
  Result<size_t> ReclaimWalSegments();

  /// Number of statements executed so far (observability for tests).
  uint64_t statements_executed() const { return statements_.load(); }

  /// Attaches the failure model whose WAL kinds (crash / torn write /
  /// partial fsync) this engine's log device consults.
  void set_fault_injector(FaultInjectorPtr injector) {
    injector_ = std::move(injector);
  }

  /// True after an injected log fault halted the engine.
  bool crashed() const { return wal_ != nullptr && wal_->crashed(); }

  bool in_txn(uint64_t session) const { return txns_.count(session) != 0; }

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  storage::Wal* wal() { return wal_.get(); }

  /// The reader/writer latch concurrent Connections share the engine under
  /// (see the class comment for what each mode covers and why sharing is
  /// safe). The engine itself does not lock; Connection::AcquireEngine and
  /// AcquireEngineShared do.
  EngineLatch& latch() { return latch_; }

 private:
  /// One entry of a transaction's in-memory undo journal.
  struct UndoEntry {
    storage::Lsn lsn = storage::kNoLsn;
    storage::WalRecordType type = storage::WalRecordType::kInsert;
    std::string table;
    storage::Rid rid;
    Tuple before;  // kUpdate: the image to restore
  };
  struct Txn {
    uint64_t id = 0;
    storage::Lsn first_lsn = storage::kNoLsn;
    storage::Lsn last_lsn = storage::kNoLsn;
    std::vector<UndoEntry> journal;
  };

  Status Halted() const;
  /// Appends a transactional record, maintaining the txn's lsn chain.
  Result<storage::Lsn> LogTxn(storage::WalRecord* rec, Txn* txn);
  /// Forces a self-committing system record to disk (append + sync) BEFORE
  /// the caller applies the operation: a durable record means the operation
  /// happened, an absent one means it never did.
  Status LogSystem(storage::WalRecord* rec);
  Status CommitTxn(Txn* txn);
  Status RollbackTxn(Txn* txn);

  Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt,
                                    uint64_t session);
  Result<QueryResult> ExecuteUpdate(const sql::UpdateStmt& stmt,
                                    uint64_t session);
  Result<QueryResult> ExecuteTxn(const sql::TxnStmt& stmt, uint64_t session);

  Status InsertRow(Txn* txn, Table* table, const Tuple& row, bool logged);
  Status UpdateRow(Txn* txn, Table* table, const storage::Rid& rid,
                   const Tuple& before, const Tuple& after, bool logged);

  obs::Counter* Metric(const char* name);

  EngineOptions options_;
  Catalog catalog_;
  SessionConfig config_;
  std::atomic<uint64_t> statements_{0};

  std::unique_ptr<storage::Wal> wal_;
  FaultInjectorPtr injector_;
  LockTable locks_;
  std::map<uint64_t, Txn> txns_;  // session -> open explicit txn
  uint64_t next_txn_ = 1;
  std::atomic<uint64_t> next_session_{1};
  RecoveryStats recovery_stats_;
  EngineLatch latch_;
};

/// True for the middleware's `TANGO_TMP_`-prefixed temporaries: they skip
/// locking, logging, and snapshots (non-transactional scratch space — a
/// restart is supposed to lose them; the janitor reclaims any that leak).
bool IsTempTableName(const std::string& name);

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_ENGINE_H_
