#ifndef TANGO_STORAGE_HEAP_FILE_H_
#define TANGO_STORAGE_HEAP_FILE_H_

#include <memory>
#include <vector>

#include "common/schema.h"
#include "common/wire.h"
#include "storage/page.h"

namespace tango {
namespace storage {

/// \brief Heap file of pages; the physical representation of every DBMS
/// table (base tables and the `T^D` temporaries alike).
///
/// The read path is append/scan only; the durable write path adds in-place
/// updates (the temporal-update pattern rewrites the current version's T2),
/// tombstone deletes (transaction undo marks inserted rows dead rather than
/// compacting), and LSN stamping so recovery's redo is idempotent. Scans and
/// statistics see live rows only.
class HeapFile {
 public:
  explicit HeapFile(Schema schema, size_t page_size = kDefaultPageSize)
      : schema_(std::move(schema)), page_size_(page_size) {}

  const Schema& schema() const { return schema_; }

  /// Appends a tuple, returning its record id.
  Rid Append(const Tuple& tuple) { return AppendStamped(tuple, 0); }

  /// Appends a tuple and stamps the target page with the logging LSN
  /// (0 = unlogged).
  Rid AppendStamped(const Tuple& tuple, uint64_t lsn);

  /// Replaces the tuple at `rid` in place, stamping the page.
  Status Update(const Rid& rid, const Tuple& tuple, uint64_t lsn);

  /// Tombstones the tuple at `rid` (idempotent), stamping the page.
  Status MarkDeleted(const Rid& rid, uint64_t lsn);

  /// Reads the tuple at `rid` (dead or alive — undo reads tombstones).
  Result<Tuple> Get(const Rid& rid) const;
  /// The `PutTuple` encoding of the tuple at `rid` (dead or alive), without
  /// decoding it; valid until the file is next modified.
  Status GetEncoded(const Rid& rid, const uint8_t** data,
                    uint32_t* len) const;

  bool IsDead(const Rid& rid) const;
  uint64_t PageLsn(uint32_t page) const {
    return page < pages_.size() ? pages_[page].lsn() : 0;
  }
  /// Stamps a page after the fact — the DML path applies first (the rid is
  /// not known until then), appends the log record, and stamps the page with
  /// the record's lsn.
  void StampPageLsn(uint32_t page, uint64_t lsn) {
    if (page < pages_.size()) pages_[page].StampLsn(lsn);
  }

  /// Live tuples (dead rows are invisible to scans and statistics).
  size_t num_tuples() const { return num_tuples_; }
  size_t num_pages() const { return pages_.size(); }
  /// Total encoded bytes of live tuples — `size(r)` before averaging.
  size_t total_bytes() const { return total_bytes_; }
  double avg_tuple_bytes() const {
    return num_tuples_ == 0
               ? 0.0
               : static_cast<double>(total_bytes_) / static_cast<double>(num_tuples_);
  }

  /// \brief Sequential scan yielding live tuples (and their rids) page by
  /// page; tombstoned rows are skipped.
  class Iterator {
   public:
    explicit Iterator(const HeapFile* file) : file_(file) {}

    /// Advances to the next live slot without decoding it: `*data`/`*len`
    /// point at the slot's `PutTuple` encoding inside the page, valid until
    /// the file is next modified. False at end of file.
    bool NextEncoded(const uint8_t** data, uint32_t* len, Rid* rid = nullptr);

    /// Advances to the next live tuple, decoded; false at end of file.
    bool Next(Tuple* tuple, Rid* rid = nullptr);

   private:
    const HeapFile* file_;
    size_t page_ = 0;
    size_t slot_ = 0;
  };

  Iterator Scan() const { return Iterator(this); }

  /// Serializes pages (boundaries, LSNs, dead marks, raw tuple bytes) for a
  /// checkpoint snapshot; SerializeFrom rebuilds the identical layout.
  void SerializeTo(WireWriter* w) const;
  Status SerializeFrom(WireReader* r);

 private:
  Schema schema_;
  size_t page_size_;
  std::vector<Page> pages_;
  size_t num_tuples_ = 0;
  size_t total_bytes_ = 0;
};

}  // namespace storage
}  // namespace tango

#endif  // TANGO_STORAGE_HEAP_FILE_H_
