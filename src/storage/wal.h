#ifndef TANGO_STORAGE_WAL_H_
#define TANGO_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/page.h"

namespace tango {
namespace storage {

/// Log sequence number: 1 + the logical byte offset of the record's frame in
/// the (segment-spanning) log stream. 0 means "no record".
using Lsn = uint64_t;
constexpr Lsn kNoLsn = 0;

/// Record types. Two families:
///  * transactional (kInsert/kUpdate/kClr*/kCommit/kEnd): carry a txn id;
///    their effects are undone at recovery unless the txn's kCommit record
///    is durable;
///  * system (the rest, txn = 0): self-committing — the record is forced to
///    disk *before* the operation is applied, so a durable record means the
///    operation happened and an absent one means it never did. DDL, ANALYZE,
///    direct-path loads and checkpoints are system records; this keeps undo
///    to exactly the two row-level operations that have before-images.
enum class WalRecordType : uint8_t {
  kCommit = 1,
  kEnd = 2,         // txn fully resolved (post-commit / post-rollback)
  kInsert = 3,      // rows = {after}
  kUpdate = 4,      // rows = {before, after}
  kClrInsert = 5,   // compensation: the insert at `rid` was marked dead
  kClrUpdate = 6,   // compensation: rows = {restored before-image}
  kCreateTable = 7,
  kDropTable = 8,
  kCreateIndex = 9,  // aux = column index
  kAnalyze = 10,     // aux = histogram buckets (replayed for stats identity)
  kBulkLoad = 11,    // rows = the whole direct-path batch
  kCheckpoint = 12,  // aux = snapshot lsn; active_txns = fuzzy txn table
};

const char* WalRecordTypeName(WalRecordType type);

/// One log record. A fat struct: every field is encoded unconditionally
/// (empty vectors cost four bytes), which keeps the codec trivial and the
/// torn-tail scanner honest — there is exactly one frame layout.
struct WalRecord {
  WalRecordType type = WalRecordType::kEnd;
  /// Assigned by Wal::Append.
  Lsn lsn = kNoLsn;
  /// 0 for system records.
  uint64_t txn = 0;
  /// Previous record of the same txn (undo chain); kNoLsn for the first.
  Lsn prev_lsn = kNoLsn;
  /// CLRs only: next record of this txn still to undo (the undone record's
  /// prev_lsn) — recovery resumes an interrupted rollback from here instead
  /// of undoing anything twice.
  Lsn undo_next = kNoLsn;
  std::string table;
  Rid rid;
  /// Row images; meaning depends on `type` (see the enum).
  std::vector<Tuple> rows;
  /// Multi-purpose scalar: histogram buckets (kAnalyze), indexed column
  /// (kCreateIndex), snapshot lsn (kCheckpoint).
  uint64_t aux = 0;
  /// kCreateTable: the new table's columns.
  std::vector<Column> schema_columns;
  /// kCheckpoint: (txn id, first lsn) of every txn active at the checkpoint;
  /// log truncation must keep everything from min(first lsn) onward.
  std::vector<std::pair<uint64_t, Lsn>> active_txns;

  /// The record sealed as one log frame (WireWriter::SealFrame); `Decode`
  /// reads the frame's payload.
  std::vector<uint8_t> EncodeFrame() const;
  static Result<WalRecord> Decode(const uint8_t* data, size_t size);
};

/// Injected misbehavior of the log device, decided per append/sync by the
/// installed hook (the DBMS adapts its FaultInjector into this shape; the
/// storage layer stays independent of dbms/).
struct WalFault {
  enum class Action : uint8_t {
    kNone,
    /// Process dies before the bytes reach the log buffer.
    kCrash,
    /// The tail record is torn: only `keep_bytes` of its frame persist.
    kTorn,
    /// fsync lies: only `keep_bytes` of the pending buffer persist.
    kPartialFsync,
  };
  Action action = Action::kNone;
  uint64_t keep_bytes = 0;
};

/// (is_sync, lsn, bytes): lsn is the record's lsn for appends and the log
/// end for syncs; bytes is the frame / pending-buffer size.
using WalFaultHook = std::function<WalFault(bool, Lsn, size_t)>;

/// \brief Append-only write-ahead log over CRC-framed segment files.
///
/// Records are buffered in memory by Append and hit the disk on Sync — the
/// durability point (a transaction is committed exactly when the Sync after
/// its kCommit record returns). Each record crosses into a segment file as a
/// `[u32 len][u32 crc32]` WireFrame, so the recovery scanner detects a torn
/// tail (partial frame or CRC mismatch) as the clean end of the log rather
/// than decoding garbage. Segment files are named `wal-<start offset>.seg`
/// and roll over at `segment_bytes`; a frame never spans segments.
///
/// After an injected fault fires the log is `crashed()`: every operation
/// fails kUnavailable, modeling a halted server. Tests then open a fresh
/// Wal (and Engine) over the same directory and recover.
class Wal {
 public:
  Wal(std::string dir, size_t segment_bytes = 1 << 20)
      : dir_(std::move(dir)), segment_bytes_(segment_bytes) {}

  /// Creates the directory if needed and positions the append point after
  /// the last complete frame already on disk.
  Status Open();

  /// Buffers one record, assigning record.lsn. Not yet durable.
  Result<Lsn> Append(WalRecord* record);

  /// Flushes the pending buffer to the current segment and fsyncs it.
  Status Sync();

  /// Removes every segment that ends strictly before `lsn` (and any
  /// snapshot file older than `keep_snapshot`); returns how many files were
  /// reclaimed. Safe to call on a live log — the current segment survives.
  Result<size_t> TruncateBefore(Lsn lsn, Lsn keep_snapshot);

  bool crashed() const { return crashed_; }
  /// End of the log including pending bytes (the next record's lsn).
  Lsn end_lsn() const { return end_ + 1; }
  /// End of the durable prefix.
  Lsn durable_lsn() const { return durable_ + 1; }
  uint64_t appends() const { return appends_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  size_t num_segments() const { return segments_.size(); }
  const std::string& dir() const { return dir_; }

  void set_fault_hook(WalFaultHook hook) { fault_hook_ = std::move(hook); }

  // ---- snapshot (fuzzy checkpoint) files ----
  /// `snap-<lsn>.ckpt` in `dir`.
  static std::string SnapshotPath(const std::string& dir, Lsn lsn);
  /// Writes one sealed frame (WireWriter::SealFrame) as a file, atomically
  /// (tmp file + rename).
  static Status WriteSealedFile(const std::string& path,
                                const std::vector<uint8_t>& framed);
  /// Reads and verifies a CRC-framed file.
  static Result<std::vector<uint8_t>> ReadSealedFile(const std::string& path);
  /// Snapshot lsns present in `dir`, ascending.
  static std::vector<Lsn> ListSnapshots(const std::string& dir);

 private:
  struct Segment {
    uint64_t start = 0;  // logical offset of the segment's first byte
    uint64_t size = 0;   // durable bytes in the file
  };

  std::string SegmentPath(uint64_t start) const;
  /// Appends `data` to the last segment (rolling over first if it is full),
  /// fsyncs, and advances durable_.
  Status WriteDurable(const std::vector<uint8_t>& data);

  std::string dir_;
  size_t segment_bytes_;
  std::vector<Segment> segments_;
  std::vector<uint8_t> pending_;  // appended, not yet synced
  uint64_t end_ = 0;              // logical offset incl. pending
  uint64_t durable_ = 0;          // logical offset synced to disk
  bool crashed_ = false;
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  uint64_t bytes_appended_ = 0;
  WalFaultHook fault_hook_;
};

/// What a full scan of the durable log found.
struct WalScan {
  std::vector<WalRecord> records;
  /// First retained lsn (after truncation); kNoLsn+1 when the log starts at
  /// its very beginning.
  Lsn start_lsn = 1;
  /// True when the scan stopped at a damaged/short frame (torn tail).
  bool torn_tail = false;
  /// Bytes discarded at the tail.
  uint64_t torn_bytes = 0;
};

/// Reads every complete, checksummed record from the segments in `dir`.
/// A damaged frame ends the scan: with real torn writes only the tail can
/// be damaged, and everything after it is by definition not durable.
Result<WalScan> ReadWal(const std::string& dir);

}  // namespace storage
}  // namespace tango

#endif  // TANGO_STORAGE_WAL_H_
