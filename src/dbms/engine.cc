#include "dbms/engine.h"

#include <utility>

#include "dbms/recovery.h"
#include "sql/parser.h"

namespace tango {
namespace dbms {

using storage::Lsn;
using storage::WalRecord;
using storage::WalRecordType;

bool IsTempTableName(const std::string& name) {
  return ToUpper(name).rfind("TANGO_TMP_", 0) == 0;
}

obs::Counter* Engine::Metric(const char* name) {
  return options_.metrics == nullptr ? nullptr
                                     : &options_.metrics->counter(name);
}

Status Engine::Halted() const {
  if (wal_ != nullptr && wal_->crashed()) {
    return Status::Unavailable(
        "engine halted by injected log fault; reopen to recover");
  }
  return Status::OK();
}

Status Engine::Open() {
  if (options_.wal_dir.empty()) return Status::OK();
  if (wal_ != nullptr) return Status::InvalidArgument("engine already open");
  wal_ = std::make_unique<storage::Wal>(options_.wal_dir,
                                        options_.wal_segment_bytes);
  RecoveryManager recovery(&catalog_, wal_.get(), options_.metrics,
                           options_.trace);
  uint64_t max_txn = 0;
  TANGO_RETURN_IF_ERROR(recovery.Run(&recovery_stats_, &max_txn));
  next_txn_ = max_txn + 1;
  // The log device consults the failure model on every append and sync;
  // installed after recovery so replay itself is never faulted (a machine
  // that dies during recovery is just another crash — tests model it by
  // re-running the whole matrix over the longer log).
  wal_->set_fault_hook([this](bool is_sync, Lsn lsn, size_t bytes) {
    storage::WalFault fault;
    if (injector_ == nullptr) return fault;
    const FaultInjector::WalDecision d =
        injector_->OnWal(is_sync, lsn, bytes);
    switch (d.action) {
      case FaultInjector::WalDecision::Action::kCrash:
        fault.action = storage::WalFault::Action::kCrash;
        break;
      case FaultInjector::WalDecision::Action::kTorn:
        fault.action = storage::WalFault::Action::kTorn;
        break;
      case FaultInjector::WalDecision::Action::kPartialFsync:
        fault.action = storage::WalFault::Action::kPartialFsync;
        break;
      case FaultInjector::WalDecision::Action::kNone:
        break;
    }
    fault.keep_bytes = d.keep_bytes;
    return fault;
  });
  if (auto* c = Metric("wal.recoveries")) c->Increment();
  return Status::OK();
}

Result<Lsn> Engine::LogTxn(WalRecord* rec, Txn* txn) {
  TANGO_ASSIGN_OR_RETURN(const Lsn lsn, wal_->Append(rec));
  if (txn->first_lsn == storage::kNoLsn) txn->first_lsn = lsn;
  txn->last_lsn = lsn;
  if (auto* c = Metric("wal.appends")) c->Increment();
  return lsn;
}

Status Engine::LogSystem(WalRecord* rec) {
  if (wal_ == nullptr) return Status::OK();
  TANGO_RETURN_IF_ERROR(wal_->Append(rec).status());
  TANGO_RETURN_IF_ERROR(wal_->Sync());
  if (auto* c = Metric("wal.appends")) c->Increment();
  if (auto* c = Metric("wal.syncs")) c->Increment();
  return Status::OK();
}

Status Engine::CommitTxn(Txn* txn) {
  if (wal_ != nullptr && txn->first_lsn != storage::kNoLsn) {
    WalRecord commit;
    commit.type = WalRecordType::kCommit;
    commit.txn = txn->id;
    commit.prev_lsn = txn->last_lsn;
    TANGO_ASSIGN_OR_RETURN(const Lsn commit_lsn, wal_->Append(&commit));
    // The durability point: the statement is acknowledged only after the
    // commit record is on disk.
    TANGO_RETURN_IF_ERROR(wal_->Sync());
    if (auto* c = Metric("wal.syncs")) c->Increment();
    WalRecord end;
    end.type = WalRecordType::kEnd;
    end.txn = txn->id;
    end.prev_lsn = commit_lsn;
    TANGO_RETURN_IF_ERROR(wal_->Append(&end).status());
  }
  locks_.ReleaseAll(txn->id);
  if (auto* c = Metric("txn.commits")) c->Increment();
  return Status::OK();
}

Status Engine::RollbackTxn(Txn* txn) {
  for (size_t i = txn->journal.size(); i-- > 0;) {
    const UndoEntry& entry = txn->journal[i];
    TANGO_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(entry.table));
    Lsn clr_lsn = storage::kNoLsn;
    if (wal_ != nullptr && entry.lsn != storage::kNoLsn) {
      WalRecord clr;
      clr.txn = txn->id;
      clr.prev_lsn = txn->last_lsn;
      // An interrupted rollback resumes here instead of undoing twice.
      clr.undo_next = i > 0 ? txn->journal[i - 1].lsn : storage::kNoLsn;
      clr.table = entry.table;
      clr.rid = entry.rid;
      if (entry.type == WalRecordType::kInsert) {
        clr.type = WalRecordType::kClrInsert;
      } else {
        clr.type = WalRecordType::kClrUpdate;
        clr.rows = {entry.before};
      }
      TANGO_ASSIGN_OR_RETURN(clr_lsn, LogTxn(&clr, txn));
    }
    if (entry.type == WalRecordType::kInsert) {
      TANGO_ASSIGN_OR_RETURN(const Tuple image, table->file().Get(entry.rid));
      TANGO_RETURN_IF_ERROR(table->ApplyDelete(entry.rid, image, clr_lsn));
    } else {
      TANGO_ASSIGN_OR_RETURN(const Tuple cur, table->file().Get(entry.rid));
      TANGO_RETURN_IF_ERROR(
          table->ApplyUpdate(entry.rid, cur, entry.before, clr_lsn));
    }
    table->file().StampPageLsn(entry.rid.page, clr_lsn);
  }
  if (wal_ != nullptr && txn->first_lsn != storage::kNoLsn) {
    WalRecord end;
    end.type = WalRecordType::kEnd;
    end.txn = txn->id;
    end.prev_lsn = txn->last_lsn;
    // Rollback needs no force: an un-synced loser is undone at recovery
    // anyway; the CLRs only save that work when they do reach the disk.
    TANGO_RETURN_IF_ERROR(wal_->Append(&end).status());
  }
  locks_.ReleaseAll(txn->id);
  if (auto* c = Metric("txn.rollbacks")) c->Increment();
  return Status::OK();
}

Status Engine::InsertRow(Txn* txn, Table* table, const Tuple& row,
                         bool logged) {
  TANGO_ASSIGN_OR_RETURN(const storage::Rid rid, table->ApplyInsert(row, 0));
  Lsn lsn = storage::kNoLsn;
  if (logged) {
    WalRecord rec;
    rec.type = WalRecordType::kInsert;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    rec.table = table->name();
    rec.rid = rid;
    rec.rows = {row};
    TANGO_ASSIGN_OR_RETURN(lsn, LogTxn(&rec, txn));
    table->file().StampPageLsn(rid.page, lsn);
  }
  UndoEntry entry;
  entry.lsn = lsn;
  entry.type = WalRecordType::kInsert;
  entry.table = table->name();
  entry.rid = rid;
  txn->journal.push_back(std::move(entry));
  return Status::OK();
}

Status Engine::UpdateRow(Txn* txn, Table* table, const storage::Rid& rid,
                         const Tuple& before, const Tuple& after,
                         bool logged) {
  TANGO_RETURN_IF_ERROR(table->ApplyUpdate(rid, before, after, 0));
  Lsn lsn = storage::kNoLsn;
  if (logged) {
    WalRecord rec;
    rec.type = WalRecordType::kUpdate;
    rec.txn = txn->id;
    rec.prev_lsn = txn->last_lsn;
    rec.table = table->name();
    rec.rid = rid;
    rec.rows = {before, after};
    TANGO_ASSIGN_OR_RETURN(lsn, LogTxn(&rec, txn));
    table->file().StampPageLsn(rid.page, lsn);
  }
  UndoEntry entry;
  entry.lsn = lsn;
  entry.type = WalRecordType::kUpdate;
  entry.table = table->name();
  entry.rid = rid;
  entry.before = before;
  txn->journal.push_back(std::move(entry));
  return Status::OK();
}

Result<QueryResult> Engine::ExecuteInsert(const sql::InsertStmt& ins,
                                          uint64_t session) {
  TANGO_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(ins.table));
  // Evaluate every VALUES row first: validation must precede any mutation.
  std::vector<Tuple> rows;
  rows.reserve(ins.rows.size());
  for (const auto& row_exprs : ins.rows) {
    if (row_exprs.size() != table->schema().num_columns()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Tuple row;
    row.reserve(row_exprs.size());
    for (const ExprPtr& e : row_exprs) {
      // VALUES expressions are constant (no column references).
      std::vector<std::string> cols;
      CollectColumns(e, &cols);
      if (!cols.empty()) {
        return Status::InvalidArgument("non-constant INSERT value");
      }
      row.push_back(Eval(*e, {}));
    }
    rows.push_back(std::move(row));
  }
  if (IsTempTableName(table->name())) {
    for (const Tuple& row : rows) {
      TANGO_RETURN_IF_ERROR(table->ApplyInsert(row, 0).status());
    }
    return QueryResult{};
  }

  const auto it = txns_.find(session);
  const bool autocommit = it == txns_.end();
  Txn auto_txn;
  Txn* txn = autocommit ? &auto_txn : &it->second;
  if (autocommit) auto_txn.id = next_txn_++;
  Status lock = locks_.TryLockExclusive(table->name(), txn->id);
  if (!lock.ok()) {
    if (auto* c = Metric("txn.lock_conflicts")) c->Increment();
    return lock;
  }
  Status st = Status::OK();
  for (const Tuple& row : rows) {
    st = InsertRow(txn, table, row, wal_ != nullptr);
    if (!st.ok()) break;
  }
  if (autocommit) {
    if (st.ok()) {
      st = CommitTxn(&auto_txn);
    } else {
      (void)RollbackTxn(&auto_txn);  // best effort; st carries the cause
    }
  }
  if (!st.ok()) return st;
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteUpdate(const sql::UpdateStmt& upd,
                                          uint64_t session) {
  TANGO_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(upd.table));
  const Schema& schema = table->schema();
  std::vector<ExprPtr> where;
  for (const ExprPtr& conjunct : SplitConjuncts(upd.where)) {
    TANGO_ASSIGN_OR_RETURN(ExprPtr bound, Bind(conjunct, schema));
    where.push_back(std::move(bound));
  }
  std::vector<std::pair<size_t, ExprPtr>> sets;
  sets.reserve(upd.sets.size());
  for (const auto& [col, e] : upd.sets) {
    TANGO_ASSIGN_OR_RETURN(const size_t idx, schema.IndexOf(col));
    TANGO_ASSIGN_OR_RETURN(ExprPtr bound, Bind(e, schema));
    sets.emplace_back(idx, std::move(bound));
  }

  // Collect-then-mutate: the scan must not observe its own writes (SET
  // T2 = now WHERE T2 = forever would otherwise chase rewritten rows). The
  // collect pass is the SELECT full scan, WHERE evaluated on encoded rows.
  std::vector<std::pair<storage::Rid, Tuple>> targets;
  TableScanOp scan(table, "", std::move(where), AllColumns(schema));
  TANGO_RETURN_IF_ERROR(scan.Init());
  while (true) {
    Tuple t;
    storage::Rid rid;
    TANGO_ASSIGN_OR_RETURN(const bool found, scan.NextWithRid(&t, &rid));
    if (!found) break;
    targets.emplace_back(rid, std::move(t));
  }

  if (IsTempTableName(table->name())) {
    for (auto& [target_rid, before] : targets) {
      Tuple after = before;
      for (const auto& [idx, e] : sets) after[idx] = Eval(*e, before);
      TANGO_RETURN_IF_ERROR(table->ApplyUpdate(target_rid, before, after, 0));
    }
    return QueryResult{};
  }

  const auto it = txns_.find(session);
  const bool autocommit = it == txns_.end();
  Txn auto_txn;
  Txn* txn = autocommit ? &auto_txn : &it->second;
  if (autocommit) auto_txn.id = next_txn_++;
  Status lock = locks_.TryLockExclusive(table->name(), txn->id);
  if (!lock.ok()) {
    if (auto* c = Metric("txn.lock_conflicts")) c->Increment();
    return lock;
  }
  Status st = Status::OK();
  for (auto& [target_rid, before] : targets) {
    Tuple after = before;
    for (const auto& [idx, e] : sets) after[idx] = Eval(*e, before);
    st = UpdateRow(txn, table, target_rid, before, after, wal_ != nullptr);
    if (!st.ok()) break;
  }
  if (autocommit) {
    if (st.ok()) {
      st = CommitTxn(&auto_txn);
    } else {
      (void)RollbackTxn(&auto_txn);
    }
  }
  if (!st.ok()) return st;
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteTxn(const sql::TxnStmt& stmt,
                                       uint64_t session) {
  switch (stmt.kind) {
    case sql::TxnStmt::Kind::kBegin: {
      if (txns_.count(session) != 0) {
        return Status::InvalidArgument(
            "transaction already open on this session");
      }
      Txn txn;
      txn.id = next_txn_++;
      txns_[session] = std::move(txn);
      if (auto* c = Metric("txn.begins")) c->Increment();
      return QueryResult{};
    }
    case sql::TxnStmt::Kind::kCommit: {
      const auto it = txns_.find(session);
      if (it == txns_.end()) return QueryResult{};  // autocommit mode: no-op
      Txn txn = std::move(it->second);
      txns_.erase(it);
      TANGO_RETURN_IF_ERROR(CommitTxn(&txn));
      return QueryResult{};
    }
    case sql::TxnStmt::Kind::kRollback: {
      const auto it = txns_.find(session);
      if (it == txns_.end()) return QueryResult{};
      Txn txn = std::move(it->second);
      txns_.erase(it);
      TANGO_RETURN_IF_ERROR(RollbackTxn(&txn));
      return QueryResult{};
    }
    case sql::TxnStmt::Kind::kCheckpoint:
      TANGO_RETURN_IF_ERROR(Checkpoint());
      return QueryResult{};
  }
  return Status::Internal("unhandled txn statement");
}

Result<QueryResult> Engine::Execute(const std::string& sql, uint64_t session) {
  TANGO_RETURN_IF_ERROR(Halted());
  ++statements_;
  TANGO_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parser::Parse(sql));

  if (stmt.select != nullptr) {
    Planner planner(&catalog_, &config_);
    TANGO_ASSIGN_OR_RETURN(CursorPtr cursor, planner.PlanSelect(*stmt.select));
    QueryResult result;
    result.schema = cursor->schema();
    TANGO_ASSIGN_OR_RETURN(result.rows, MaterializeAll(cursor.get()));
    return result;
  }

  if (stmt.insert != nullptr) return ExecuteInsert(*stmt.insert, session);
  if (stmt.update != nullptr) return ExecuteUpdate(*stmt.update, session);
  if (stmt.txn != nullptr) return ExecuteTxn(*stmt.txn, session);

  if (stmt.create_table != nullptr) {
    const auto& ct = *stmt.create_table;
    const std::string key = ToUpper(ct.name);
    if (catalog_.HasTable(key)) return Status::AlreadyExists("table " + key);
    const bool logged = wal_ != nullptr && !IsTempTableName(key);
    if (ct.as_select != nullptr) {
      Planner planner(&catalog_, &config_);
      TANGO_ASSIGN_OR_RETURN(CursorPtr cursor,
                             planner.PlanSelect(*ct.as_select));
      // Strip qualifiers: the new table's columns are its own.
      Schema schema;
      for (const Column& c : cursor->schema().columns()) {
        schema.AddColumn({"", c.name, c.type});
      }
      // Materialize before logging anything: a failing source query must
      // leave no trace in the log or the catalog.
      TANGO_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                             MaterializeAll(cursor.get()));
      Lsn load_lsn = storage::kNoLsn;
      if (logged) {
        WalRecord create;
        create.type = WalRecordType::kCreateTable;
        create.table = key;
        create.schema_columns = schema.columns();
        TANGO_RETURN_IF_ERROR(LogSystem(&create));
        if (!rows.empty()) {
          WalRecord load;
          load.type = WalRecordType::kBulkLoad;
          load.table = key;
          load.rows = rows;
          TANGO_RETURN_IF_ERROR(LogSystem(&load));
          load_lsn = load.lsn;
        }
      }
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_.CreateTable(key, schema));
      for (const Tuple& row : rows) {
        TANGO_RETURN_IF_ERROR(table->ApplyInsert(row, load_lsn).status());
      }
      return QueryResult{};
    }
    Schema schema;
    for (const Column& c : ct.columns) {
      schema.AddColumn({"", ToUpper(c.name), c.type});
    }
    if (logged) {
      WalRecord create;
      create.type = WalRecordType::kCreateTable;
      create.table = key;
      create.schema_columns = schema.columns();
      TANGO_RETURN_IF_ERROR(LogSystem(&create));
    }
    TANGO_RETURN_IF_ERROR(catalog_.CreateTable(key, schema).status());
    return QueryResult{};
  }

  if (stmt.drop_table != nullptr) {
    const std::string key = ToUpper(stmt.drop_table->table);
    if (!catalog_.HasTable(key)) return Status::NotFound("table " + key);
    const bool logged = wal_ != nullptr && !IsTempTableName(key);
    // NO WAIT: dropping a table some open transaction mutated must fail,
    // not corrupt that transaction's undo chain.
    const uint64_t owner = next_txn_++;
    Status lock = locks_.TryLockExclusive(key, owner);
    if (!lock.ok()) {
      if (auto* c = Metric("txn.lock_conflicts")) c->Increment();
      return lock;
    }
    Status st = Status::OK();
    if (logged) {
      WalRecord drop;
      drop.type = WalRecordType::kDropTable;
      drop.table = key;
      st = LogSystem(&drop);
    }
    if (st.ok()) st = catalog_.DropTable(key);
    locks_.ReleaseAll(owner);
    if (!st.ok()) return st;
    return QueryResult{};
  }

  if (stmt.analyze != nullptr) {
    const std::string key = ToUpper(stmt.analyze->table);
    if (!key.empty() && !catalog_.HasTable(key)) {
      return Status::NotFound("table " + key);
    }
    const bool logged =
        wal_ != nullptr && (key.empty() || !IsTempTableName(key));
    if (logged) {
      WalRecord an;
      an.type = WalRecordType::kAnalyze;
      an.table = key;
      an.aux = kAnalyzeHistogramBuckets;
      TANGO_RETURN_IF_ERROR(LogSystem(&an));
    }
    if (key.empty()) {
      TANGO_RETURN_IF_ERROR(catalog_.AnalyzeAll(kAnalyzeHistogramBuckets));
    } else {
      TANGO_RETURN_IF_ERROR(catalog_.Analyze(key, kAnalyzeHistogramBuckets));
    }
    return QueryResult{};
  }

  if (stmt.create_index != nullptr) {
    const std::string key = ToUpper(stmt.create_index->table);
    TANGO_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(key));
    TANGO_ASSIGN_OR_RETURN(const size_t col,
                           table->schema().IndexOf(stmt.create_index->column));
    if (table->HasIndex(col)) {
      return Status::AlreadyExists("index exists on " +
                                   table->schema().column(col).name);
    }
    const bool logged = wal_ != nullptr && !IsTempTableName(key);
    if (logged) {
      WalRecord ci;
      ci.type = WalRecordType::kCreateIndex;
      ci.table = key;
      ci.aux = col;
      TANGO_RETURN_IF_ERROR(LogSystem(&ci));
    }
    TANGO_RETURN_IF_ERROR(table->CreateIndex(col));
    return QueryResult{};
  }

  return Status::Internal("unhandled statement");
}

Result<CursorPtr> Engine::OpenQuery(const std::string& sql) {
  TANGO_RETURN_IF_ERROR(Halted());
  ++statements_;
  TANGO_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parser::Parse(sql));
  if (stmt.select == nullptr) {
    return Status::InvalidArgument("OpenQuery requires a SELECT");
  }
  Planner planner(&catalog_, &config_);
  return planner.PlanSelect(*stmt.select);
}

Status Engine::BulkLoad(const std::string& table_name,
                        const std::vector<Tuple>& rows) {
  TANGO_RETURN_IF_ERROR(Halted());
  TANGO_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  for (const Tuple& t : rows) {
    if (t.size() != table->schema().num_columns()) {
      return Status::InvalidArgument("tuple arity mismatch for " +
                                     table->name());
    }
  }
  if (wal_ == nullptr || IsTempTableName(table->name())) {
    // Still goes through ApplyInsert: a direct-path load must bump the
    // statistics epoch exactly like row-at-a-time DML (the middleware's
    // staleness check depends on it).
    for (const Tuple& t : rows) {
      TANGO_RETURN_IF_ERROR(table->ApplyInsert(t, 0).status());
    }
    return Status::OK();
  }
  const uint64_t owner = next_txn_++;
  Status lock = locks_.TryLockExclusive(table->name(), owner);
  if (!lock.ok()) {
    if (auto* c = Metric("txn.lock_conflicts")) c->Increment();
    return lock;
  }
  WalRecord load;
  load.type = WalRecordType::kBulkLoad;
  load.table = table->name();
  load.rows = rows;
  Status st = LogSystem(&load);
  if (st.ok()) {
    for (const Tuple& t : rows) {
      st = table->ApplyInsert(t, load.lsn).status();
      if (!st.ok()) break;
    }
  }
  locks_.ReleaseAll(owner);
  return st;
}

Status Engine::Checkpoint() {
  if (wal_ == nullptr) return Status::OK();
  TANGO_RETURN_IF_ERROR(Halted());
  // Force everything buffered, so the snapshot lsn is a durable point.
  TANGO_RETURN_IF_ERROR(wal_->Sync());
  const Lsn snapshot_lsn = wal_->end_lsn() - 1;
  const std::vector<uint8_t> framed =
      RecoveryManager::SerializeSnapshot(catalog_);
  TANGO_RETURN_IF_ERROR(storage::Wal::WriteSealedFile(
      storage::Wal::SnapshotPath(options_.wal_dir, snapshot_lsn), framed));
  WalRecord ck;
  ck.type = WalRecordType::kCheckpoint;
  ck.aux = snapshot_lsn;
  for (const auto& [session, txn] : txns_) {
    (void)session;
    if (txn.first_lsn != storage::kNoLsn) {
      ck.active_txns.emplace_back(txn.id, txn.first_lsn);
    }
  }
  TANGO_RETURN_IF_ERROR(LogSystem(&ck));
  if (auto* c = Metric("wal.checkpoints")) c->Increment();
  return Status::OK();
}

Result<size_t> Engine::ReclaimWalSegments() {
  if (wal_ == nullptr) return size_t{0};
  TANGO_RETURN_IF_ERROR(Halted());
  const std::vector<Lsn> snaps =
      storage::Wal::ListSnapshots(options_.wal_dir);
  if (snaps.empty()) return size_t{0};
  const Lsn snapshot = snaps.back();
  // Everything at or below the snapshot is covered by it — except records
  // of transactions still in flight, whose undo chains must survive.
  Lsn cutoff = snapshot + 1;
  for (const auto& [session, txn] : txns_) {
    (void)session;
    if (txn.first_lsn != storage::kNoLsn && txn.first_lsn < cutoff) {
      cutoff = txn.first_lsn;
    }
  }
  return wal_->TruncateBefore(cutoff, snapshot);
}

}  // namespace dbms
}  // namespace tango
