#ifndef TANGO_COMMON_CURSOR_H_
#define TANGO_COMMON_CURSOR_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/row_block.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace tango {

/// \brief Pipelined iterator over tuples — the paper's result-set interface
/// with init() and getNext() (Figure 2), where getNext hands over a block
/// of rows at a time.
///
/// Both the middleware execution engine (XXL-style algorithms) and the DBMS
/// physical operators implement this interface; `Init` may do real work
/// (e.g. TRANSFER^D loads its whole argument into the DBMS during init).
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Prepares the cursor; called before the first NextBatch. A later call
  /// restarts the stream from the beginning.
  virtual Status Init() = 0;

  /// Clears `block` and fills it with up to `block->capacity()` rows;
  /// returns the number appended. Zero means exhausted. A *partial*
  /// (non-zero, under-capacity) block does NOT imply exhaustion — producers
  /// such as the wire cursor surface one transfer batch per call — so
  /// consumers must keep calling until they see zero.
  virtual Result<size_t> NextBatch(RowBlock* block) = 0;

  /// Output schema; valid after construction.
  virtual const Schema& schema() const = 0;
};

using CursorPtr = std::unique_ptr<Cursor>;

/// \brief Base of the operators whose logic produces one row at a time:
/// dup-elim, difference, coalesce, and the DBMS hash, nested-loop and index
/// nested-loop joins, index scan and group aggregate. The middleware's own
/// algorithms (TAGGR^M, MERGEJOIN^M, TJOIN^M, PROJECT^M) write their blocks
/// column by column instead (DESIGN.md §11).
///
/// `NextBatch` fills the block by looping the protected `NextRow`. A block
/// that ends in exhaustion is handed over with its rows, and the consumer
/// asks again, so once `NextRow` has returned false it must keep returning
/// false until the next `Init`.
class RowCursor : public Cursor {
 public:
  Result<size_t> NextBatch(RowBlock* block) final {
    block->Clear();
    Tuple t;
    while (!block->full()) {
      TANGO_ASSIGN_OR_RETURN(bool more, NextRow(&t));
      if (!more) break;
      block->AppendRow(std::move(t));
    }
    return block->rows();
  }

 protected:
  /// Produces the next row; false when exhausted.
  virtual Result<bool> NextRow(Tuple* tuple) = 0;
};

/// \brief Row-at-a-time view over a batched child.
///
/// The `RowCursor`s above (dup-elim, difference, coalesce, the DBMS joins
/// and group aggregate) read their children through this adapter: the
/// child is drained in whole blocks (one virtual call per block), and
/// `Next` moves the rows out of the buffered block one at a time.
class BatchedReader {
 public:
  explicit BatchedReader(Cursor* child,
                         size_t batch_rows = RowBlock::kDefaultCapacity)
      : child_(child), block_(batch_rows == 0 ? 1 : batch_rows) {}

  /// Re-initializes the child and rewinds the buffer.
  Status Init() {
    pos_ = 0;
    done_ = false;
    block_.Clear();
    return child_->Init();
  }

  Result<bool> Next(Tuple* tuple) {
    while (pos_ >= block_.rows()) {
      if (done_) return false;
      TANGO_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(&block_));
      pos_ = 0;
      if (n == 0) {
        done_ = true;
        return false;
      }
    }
    block_.MoveRowTo(pos_++, tuple);
    return true;
  }

  Cursor* child() const { return child_; }

 private:
  Cursor* child_;
  RowBlock block_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// \brief Cursor over an in-memory vector of tuples.
///
/// Rows are copied out, so re-`Init` replays the stream.
class VectorCursor : public Cursor {
 public:
  VectorCursor(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  Status Init() override {
    pos_ = 0;
    return Status::OK();
  }

  Result<size_t> NextBatch(RowBlock* block) override {
    block->Clear();
    while (pos_ < rows_.size() && !block->full()) {
      block->AppendRow(rows_[pos_++]);
    }
    return block->rows();
  }

  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// Moves every row of `block` onto the end of `rows`, growing the vector
/// geometrically but never by less than the block, so a drain that appends
/// block after block avoids reallocation churn.
inline void MoveRowsInto(RowBlock* block, std::vector<Tuple>* rows) {
  const size_t n = block->rows();
  if (rows->capacity() < rows->size() + n) {
    rows->reserve(std::max(rows->size() + n, rows->capacity() * 2));
  }
  Tuple t;
  for (size_t i = 0; i < n; ++i) {
    block->MoveRowTo(i, &t);
    rows->push_back(std::move(t));
  }
}

/// Drains a cursor into a vector (calls Init first). Pulls whole blocks —
/// one virtual call per batch — so materialization points (sort runs,
/// transfers) avoid per-row virtual calls.
inline Result<std::vector<Tuple>> MaterializeAll(Cursor* cursor) {
  TANGO_RETURN_IF_ERROR(cursor->Init());
  std::vector<Tuple> rows;
  RowBlock block;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(size_t n, cursor->NextBatch(&block));
    if (n == 0) break;
    MoveRowsInto(&block, &rows);
  }
  return rows;
}

}  // namespace tango

#endif  // TANGO_COMMON_CURSOR_H_
