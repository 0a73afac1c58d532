#ifndef TANGO_DBMS_RECOVERY_H_
#define TANGO_DBMS_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "dbms/catalog.h"
#include "dbms/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wal.h"

namespace tango {
namespace dbms {

/// \brief ARIES-style restart recovery over the engine's WAL directory.
///
/// `Run` replays the log into the catalog in the classic three passes:
///
///  1. **Analysis** — scan every durable record (the scan happens before the
///     torn tail is trimmed, so the discarded byte count is reported), build
///     the lsn -> record map and the transaction table (who committed, who
///     ended, who is a loser).
///  2. **Redo** — repeat history from the latest loadable snapshot: records
///     at or below the snapshot lsn are skipped (a checkpoint snapshot is
///     sharp: it reflects exactly the records before it), page-level records
///     additionally honor the page LSN so redo is idempotent. System records
///     (DDL, ANALYZE, direct-path loads) replay through the same catalog
///     entry points the live engine uses — ANALYZE replay makes recovered
///     statistics bit-identical to the never-crashed run.
///  3. **Undo** — walk each loser's record chain backwards (following
///     `undo_next` across compensation records, so an interrupted rollback
///     resumes instead of double-undoing), writing a CLR per undone record
///     and a kEnd when the loser is fully out.
class RecoveryManager {
 public:
  RecoveryManager(Catalog* catalog, storage::Wal* wal,
                  obs::MetricsRegistry* metrics, obs::TraceRecorder* trace)
      : catalog_(catalog), wal_(wal), metrics_(metrics), trace_(trace) {}

  /// Runs all passes. `max_txn_id` receives the largest transaction id seen
  /// anywhere in the log (the engine resumes numbering above it).
  Status Run(RecoveryStats* stats, uint64_t* max_txn_id);

  /// Serializes the catalog (schemas, heap pages with LSNs and dead marks,
  /// index definitions, full TableStats including histogram buckets) for a
  /// checkpoint snapshot. Temp tables (`TANGO_TMP_`) are excluded — they are
  /// non-durable by contract. Returns the snapshot sealed as one frame,
  /// ready for `Wal::WriteSealedFile`.
  static std::vector<uint8_t> SerializeSnapshot(const Catalog& catalog);

  /// Rebuilds the catalog from a snapshot payload (secondary indexes are
  /// reconstructed by scanning the restored heaps).
  static Status LoadSnapshot(const std::vector<uint8_t>& payload,
                             Catalog* catalog);

 private:
  Status Redo(const storage::WalRecord& rec, RecoveryStats* stats);
  void ClearCatalog();

  Catalog* catalog_;
  storage::Wal* wal_;
  obs::MetricsRegistry* metrics_;
  obs::TraceRecorder* trace_;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_RECOVERY_H_
