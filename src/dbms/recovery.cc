#include "dbms/recovery.h"

#include <algorithm>
#include <map>

#include "common/wire.h"

namespace tango {
namespace dbms {

namespace {

using storage::Lsn;
using storage::WalRecord;
using storage::WalRecordType;

void PutColumnStats(WireWriter* w, const ColumnStats& cs) {
  w->PutValue(cs.min);
  w->PutValue(cs.max);
  w->PutDouble(cs.num_distinct);
  const std::vector<stats::Histogram::BucketSpec> buckets =
      cs.histogram.DumpBuckets();
  w->PutU32(static_cast<uint32_t>(buckets.size()));
  for (const auto& b : buckets) {
    w->PutDouble(b.lo);
    w->PutDouble(b.hi);
    w->PutDouble(b.count);
  }
  w->PutU8(cs.has_index ? 1 : 0);
  w->PutU8(cs.index_clustered ? 1 : 0);
}

Result<ColumnStats> GetColumnStats(WireReader* r) {
  ColumnStats cs;
  TANGO_ASSIGN_OR_RETURN(cs.min, r->GetValue());
  TANGO_ASSIGN_OR_RETURN(cs.max, r->GetValue());
  TANGO_ASSIGN_OR_RETURN(cs.num_distinct, r->GetDouble());
  TANGO_ASSIGN_OR_RETURN(const uint32_t nbuckets, r->GetU32());
  std::vector<stats::Histogram::BucketSpec> buckets(nbuckets);
  for (uint32_t i = 0; i < nbuckets; ++i) {
    TANGO_ASSIGN_OR_RETURN(buckets[i].lo, r->GetDouble());
    TANGO_ASSIGN_OR_RETURN(buckets[i].hi, r->GetDouble());
    TANGO_ASSIGN_OR_RETURN(buckets[i].count, r->GetDouble());
  }
  cs.histogram = stats::Histogram::FromBuckets(buckets);
  TANGO_ASSIGN_OR_RETURN(const uint8_t has_index, r->GetU8());
  cs.has_index = has_index != 0;
  TANGO_ASSIGN_OR_RETURN(const uint8_t clustered, r->GetU8());
  cs.index_clustered = clustered != 0;
  return cs;
}

}  // namespace

std::vector<uint8_t> RecoveryManager::SerializeSnapshot(
    const Catalog& catalog) {
  WireWriter w;
  w.BeginFrame();
  std::vector<const Table*> tables;
  for (const std::string& name : catalog.TableNames()) {
    if (IsTempTableName(name)) continue;
    tables.push_back(catalog.GetTable(name).ValueOrDie());
  }
  w.PutU32(static_cast<uint32_t>(tables.size()));
  for (const Table* table : tables) {
    w.PutString(table->name());
    const Schema& schema = table->schema();
    w.PutU32(static_cast<uint32_t>(schema.num_columns()));
    for (const Column& c : schema.columns()) {
      w.PutString(c.name);
      w.PutU8(static_cast<uint8_t>(c.type));
    }
    table->file().SerializeTo(&w);
    const std::vector<size_t> indexed = table->IndexedColumns();
    w.PutU32(static_cast<uint32_t>(indexed.size()));
    for (const size_t col : indexed) w.PutU32(static_cast<uint32_t>(col));
    const TableStats& ts = table->stats();
    w.PutU8(ts.analyzed ? 1 : 0);
    w.PutDouble(ts.cardinality);
    w.PutDouble(ts.blocks);
    w.PutDouble(ts.avg_tuple_bytes);
    w.PutU32(static_cast<uint32_t>(ts.columns.size()));
    for (const ColumnStats& cs : ts.columns) PutColumnStats(&w, cs);
  }
  w.SealFrame();
  return w.Take();
}

Status RecoveryManager::LoadSnapshot(const std::vector<uint8_t>& payload,
                                     Catalog* catalog) {
  WireReader r(payload.data(), payload.size());
  TANGO_ASSIGN_OR_RETURN(const uint32_t ntables, r.GetU32());
  for (uint32_t t = 0; t < ntables; ++t) {
    TANGO_ASSIGN_OR_RETURN(const std::string name, r.GetString());
    TANGO_ASSIGN_OR_RETURN(const uint32_t ncols, r.GetU32());
    Schema schema;
    for (uint32_t c = 0; c < ncols; ++c) {
      Column col;
      TANGO_ASSIGN_OR_RETURN(col.name, r.GetString());
      TANGO_ASSIGN_OR_RETURN(const uint8_t type, r.GetU8());
      col.type = static_cast<DataType>(type);
      schema.AddColumn(std::move(col));
    }
    TANGO_ASSIGN_OR_RETURN(Table * table, catalog->CreateTable(name, schema));
    TANGO_RETURN_IF_ERROR(table->file().SerializeFrom(&r));
    TANGO_ASSIGN_OR_RETURN(const uint32_t nindexed, r.GetU32());
    for (uint32_t i = 0; i < nindexed; ++i) {
      TANGO_ASSIGN_OR_RETURN(const uint32_t col, r.GetU32());
      TANGO_RETURN_IF_ERROR(table->CreateIndex(col));
    }
    TableStats ts;
    TANGO_ASSIGN_OR_RETURN(const uint8_t analyzed, r.GetU8());
    ts.analyzed = analyzed != 0;
    TANGO_ASSIGN_OR_RETURN(ts.cardinality, r.GetDouble());
    TANGO_ASSIGN_OR_RETURN(ts.blocks, r.GetDouble());
    TANGO_ASSIGN_OR_RETURN(ts.avg_tuple_bytes, r.GetDouble());
    TANGO_ASSIGN_OR_RETURN(const uint32_t nstats, r.GetU32());
    ts.columns.reserve(nstats);
    for (uint32_t i = 0; i < nstats; ++i) {
      TANGO_ASSIGN_OR_RETURN(ColumnStats cs, GetColumnStats(&r));
      ts.columns.push_back(std::move(cs));
    }
    table->stats() = std::move(ts);
  }
  if (!r.AtEnd()) return Status::IOError("trailing bytes in snapshot");
  return Status::OK();
}

void RecoveryManager::ClearCatalog() {
  for (const std::string& name : catalog_->TableNames()) {
    (void)catalog_->DropTable(name);
  }
}

Status RecoveryManager::Redo(const WalRecord& rec, RecoveryStats* stats) {
  switch (rec.type) {
    case WalRecordType::kCommit:
    case WalRecordType::kEnd:
    case WalRecordType::kCheckpoint:
      return Status::OK();
    case WalRecordType::kCreateTable: {
      Schema schema;
      for (const Column& c : rec.schema_columns) {
        schema.AddColumn({"", c.name, c.type});
      }
      TANGO_RETURN_IF_ERROR(
          catalog_->CreateTable(rec.table, std::move(schema)).status());
      ++stats->redo_applied;
      return Status::OK();
    }
    case WalRecordType::kDropTable:
      TANGO_RETURN_IF_ERROR(catalog_->DropTable(rec.table));
      ++stats->redo_applied;
      return Status::OK();
    case WalRecordType::kCreateIndex: {
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
      TANGO_RETURN_IF_ERROR(table->CreateIndex(rec.aux));
      ++stats->redo_applied;
      return Status::OK();
    }
    case WalRecordType::kAnalyze:
      if (rec.table.empty()) {
        TANGO_RETURN_IF_ERROR(catalog_->AnalyzeAll(rec.aux));
      } else {
        TANGO_RETURN_IF_ERROR(catalog_->Analyze(rec.table, rec.aux));
      }
      ++stats->redo_applied;
      return Status::OK();
    case WalRecordType::kBulkLoad: {
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
      for (const Tuple& row : rec.rows) {
        TANGO_RETURN_IF_ERROR(table->ApplyInsert(row, rec.lsn).status());
      }
      ++stats->redo_applied;
      return Status::OK();
    }
    case WalRecordType::kInsert: {
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
      if (table->file().PageLsn(rec.rid.page) >= rec.lsn) {
        ++stats->redo_skipped;
        return Status::OK();
      }
      TANGO_ASSIGN_OR_RETURN(const storage::Rid rid,
                             table->ApplyInsert(rec.rows.at(0), rec.lsn));
      if (!(rid == rec.rid)) {
        return Status::Internal("redo diverged: insert landed at a different "
                                "rid than the log recorded");
      }
      ++stats->redo_applied;
      return Status::OK();
    }
    case WalRecordType::kUpdate: {
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
      if (table->file().PageLsn(rec.rid.page) >= rec.lsn) {
        ++stats->redo_skipped;
        return Status::OK();
      }
      TANGO_RETURN_IF_ERROR(table->ApplyUpdate(rec.rid, rec.rows.at(0),
                                               rec.rows.at(1), rec.lsn));
      ++stats->redo_applied;
      return Status::OK();
    }
    case WalRecordType::kClrInsert: {
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
      if (table->file().PageLsn(rec.rid.page) >= rec.lsn) {
        ++stats->redo_skipped;
        return Status::OK();
      }
      TANGO_ASSIGN_OR_RETURN(const Tuple image, table->file().Get(rec.rid));
      TANGO_RETURN_IF_ERROR(table->ApplyDelete(rec.rid, image, rec.lsn));
      ++stats->redo_applied;
      return Status::OK();
    }
    case WalRecordType::kClrUpdate: {
      TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
      if (table->file().PageLsn(rec.rid.page) >= rec.lsn) {
        ++stats->redo_skipped;
        return Status::OK();
      }
      TANGO_ASSIGN_OR_RETURN(const Tuple cur, table->file().Get(rec.rid));
      TANGO_RETURN_IF_ERROR(
          table->ApplyUpdate(rec.rid, cur, rec.rows.at(0), rec.lsn));
      ++stats->redo_applied;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled wal record type in redo");
}

Status RecoveryManager::Run(RecoveryStats* stats, uint64_t* max_txn_id) {
  obs::ScopedSpan run_span(trace_, "recovery.replay", "recovery");

  // Scan before Wal::Open trims the torn tail, so we can report how many
  // bytes the damaged frame cost.
  storage::WalScan scan;
  {
    obs::ScopedSpan span(trace_, "recovery.analysis", "recovery",
                         run_span.id());
    TANGO_ASSIGN_OR_RETURN(scan, storage::ReadWal(wal_->dir()));
  }
  TANGO_RETURN_IF_ERROR(wal_->Open());
  stats->records_scanned = scan.records.size();
  stats->torn_bytes_discarded = scan.torn_bytes;

  // Latest loadable snapshot (a corrupt or half-written one falls back to
  // the previous; no snapshot at all means replay from the log start).
  Lsn snapshot_lsn = storage::kNoLsn;
  {
    obs::ScopedSpan span(trace_, "recovery.load_snapshot", "recovery",
                         run_span.id());
    const std::vector<Lsn> snaps = storage::Wal::ListSnapshots(wal_->dir());
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
      Result<std::vector<uint8_t>> payload = storage::Wal::ReadSealedFile(
          storage::Wal::SnapshotPath(wal_->dir(), *it));
      if (!payload.ok()) continue;
      ClearCatalog();
      if (LoadSnapshot(payload.ValueOrDie(), catalog_).ok()) {
        snapshot_lsn = *it;
        break;
      }
      ClearCatalog();
    }
  }
  stats->snapshot_lsn = snapshot_lsn;

  // Analysis: transaction table + lsn -> record map.
  std::map<Lsn, const WalRecord*> by_lsn;
  struct TxnInfo {
    Lsn last = storage::kNoLsn;
    bool committed = false;
    bool ended = false;
  };
  std::map<uint64_t, TxnInfo> txns;
  uint64_t max_txn = 0;
  for (const WalRecord& rec : scan.records) {
    by_lsn[rec.lsn] = &rec;
    max_txn = std::max(max_txn, rec.txn);
    if (rec.type == WalRecordType::kCheckpoint) {
      for (const auto& [id, first] : rec.active_txns) {
        (void)first;
        max_txn = std::max(max_txn, id);
      }
    }
    if (rec.txn != 0) {
      TxnInfo& info = txns[rec.txn];
      info.last = rec.lsn;
      if (rec.type == WalRecordType::kCommit) info.committed = true;
      if (rec.type == WalRecordType::kEnd) info.ended = true;
    }
  }
  *max_txn_id = max_txn;

  // Redo: repeat history after the snapshot.
  {
    obs::ScopedSpan span(trace_, "recovery.redo", "recovery", run_span.id());
    for (const WalRecord& rec : scan.records) {
      if (rec.lsn <= snapshot_lsn) {
        ++stats->redo_skipped;
        continue;
      }
      TANGO_RETURN_IF_ERROR(Redo(rec, stats));
    }
  }

  // Undo the losers: every transaction with records but neither a durable
  // kCommit nor a kEnd.
  {
    obs::ScopedSpan span(trace_, "recovery.undo", "recovery", run_span.id());
    for (const auto& [id, info] : txns) {
      if (info.committed) {
        ++stats->txns_committed;
        continue;
      }
      if (info.ended) continue;
      Lsn cur = info.last;
      Lsn tail = info.last;  // lsn chain tail for the CLRs we append
      while (cur != storage::kNoLsn) {
        const auto it = by_lsn.find(cur);
        if (it == by_lsn.end()) {
          return Status::Internal("undo chain reaches a truncated lsn " +
                                  std::to_string(cur));
        }
        const WalRecord& rec = *it->second;
        if (rec.type == WalRecordType::kClrInsert ||
            rec.type == WalRecordType::kClrUpdate) {
          cur = rec.undo_next;  // resume an interrupted rollback
          continue;
        }
        if (rec.type != WalRecordType::kInsert &&
            rec.type != WalRecordType::kUpdate) {
          cur = rec.prev_lsn;
          continue;
        }
        TANGO_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rec.table));
        WalRecord clr;
        clr.txn = id;
        clr.prev_lsn = tail;
        clr.undo_next = rec.prev_lsn;
        clr.table = rec.table;
        clr.rid = rec.rid;
        if (rec.type == WalRecordType::kInsert) {
          clr.type = WalRecordType::kClrInsert;
        } else {
          clr.type = WalRecordType::kClrUpdate;
          clr.rows = {rec.rows.at(0)};
        }
        TANGO_ASSIGN_OR_RETURN(const Lsn clr_lsn, wal_->Append(&clr));
        tail = clr_lsn;
        if (rec.type == WalRecordType::kInsert) {
          TANGO_ASSIGN_OR_RETURN(const Tuple image, table->file().Get(rec.rid));
          TANGO_RETURN_IF_ERROR(table->ApplyDelete(rec.rid, image, clr_lsn));
        } else {
          TANGO_ASSIGN_OR_RETURN(const Tuple curimg,
                                 table->file().Get(rec.rid));
          TANGO_RETURN_IF_ERROR(
              table->ApplyUpdate(rec.rid, curimg, rec.rows.at(0), clr_lsn));
        }
        table->file().StampPageLsn(rec.rid.page, clr_lsn);
        ++stats->undo_records;
        cur = rec.prev_lsn;
      }
      WalRecord end;
      end.type = WalRecordType::kEnd;
      end.txn = id;
      end.prev_lsn = tail;
      TANGO_RETURN_IF_ERROR(wal_->Append(&end).status());
      ++stats->txns_undone;
    }
    TANGO_RETURN_IF_ERROR(wal_->Sync());
  }

  if (metrics_ != nullptr) {
    metrics_->counter("recovery.replay.records")
        .Increment(stats->records_scanned);
    metrics_->counter("recovery.replay.redo_applied")
        .Increment(stats->redo_applied);
    metrics_->counter("recovery.replay.redo_skipped")
        .Increment(stats->redo_skipped);
    metrics_->counter("recovery.replay.undo_records")
        .Increment(stats->undo_records);
    metrics_->counter("recovery.replay.txns_undone")
        .Increment(stats->txns_undone);
    metrics_->counter("recovery.replay.torn_bytes_discarded")
        .Increment(stats->torn_bytes_discarded);
  }
  return Status::OK();
}

}  // namespace dbms
}  // namespace tango
