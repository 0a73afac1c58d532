#ifndef TANGO_COMMON_WIRE_H_
#define TANGO_COMMON_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"
#include "common/value.h"

namespace tango {

/// \brief Binary encoder for the simulated client/server wire.
///
/// Every tuple crossing the DBMS boundary (TRANSFER^M fetches, TRANSFER^D
/// bulk loads) is serialized through this codec, so transfer costs really are
/// proportional to `size(r)` as the paper's cost formulas assume.
class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutValue(const Value& v);
  /// Bytes `PutValue(v)` writes.
  static size_t ValueSize(const Value& v);
  void PutTuple(const Tuple& t);
  /// Block encoding: `[u32 rows][u32 cols]` then the values column-major.
  /// One of these per RowBlock replaces `rows` per-tuple headers, and the
  /// column-major layout keeps same-typed tag bytes adjacent.
  void PutRowBlock(const RowBlock& block);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* data, size_t n);
  std::vector<uint8_t> buf_;
};

/// CRC-32 (polynomial 0xEDB88320) over `n` bytes. The per-batch frame
/// checksum: CRC-32 detects every single-bit flip and every truncation, so
/// a corrupted batch is always recognized at the client instead of decoding
/// into garbage rows. Every byte that crosses a link is checksummed twice
/// (Seal and Check), so the kernel is slicing-by-8: eight bytes per step
/// through eight 256-entry tables (DESIGN.md §11).
uint32_t Crc32(const uint8_t* data, size_t n);

/// \brief Batch framing for the simulated wire.
///
/// Every prefetch batch crosses the link as `[u32 payload_len][u32 crc32]
/// [payload]`. `CheckFrame` validates length and checksum before any tuple
/// is decoded; a failure means the link garbled the batch (or a fault was
/// injected) and the statement should be re-issued — it is reported as a
/// transient error by the connection layer, never as decoded data.
struct WireFrame {
  static constexpr size_t kHeaderBytes = 8;

  /// Wraps `payload` in a frame (length prefix + CRC-32).
  static std::vector<uint8_t> Seal(const std::vector<uint8_t>& payload);

  /// Validates the frame that starts at `data`, of which `n` bytes are
  /// present; bytes past the frame are not examined, so a stream of frames
  /// (a socket buffer, a WAL segment) is checked where it lies. On success
  /// points `payload`/`len` into `data`; the frame spans
  /// `kHeaderBytes + *len` bytes.
  static Status Check(const uint8_t* data, size_t n, const uint8_t** payload,
                      size_t* len);

  /// Validates a buffer holding exactly one frame; on success points
  /// `payload`/`len` into `framed`.
  static Status Check(const std::vector<uint8_t>& framed,
                      const uint8_t** payload, size_t* len);
};

/// \brief Decoder matching WireWriter.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool AtEnd() const { return pos_ >= size_; }

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();
  /// Decodes the next value into `*out`. A string reuses the buffer of the
  /// string `*out` already holds, so a scratch value decoded row after row
  /// settles into steady-state memory. GetValue and GetTuple decode through
  /// this one function.
  Status GetValueInto(Value* out);
  /// Advances past the next value, checking it exactly as GetValueInto
  /// would, without materializing it.
  Status SkipValue();
  Result<Tuple> GetTuple();
  /// Decodes one block written by PutRowBlock into `block` (replacing its
  /// contents; the block's capacity is not a decode limit). Returns the row
  /// count. A forged header cannot drive a large allocation: the declared
  /// rows×cols is checked against the bytes actually remaining (every value
  /// costs at least its tag byte) before anything is reserved.
  Result<size_t> GetRowBlock(RowBlock* block);

  /// Bytes consumed so far.
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) {
    if (pos_ + n > size_) return Status::IOError("wire buffer underrun");
    return Status::OK();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief Bounds-checked per-column reader over one `PutTuple` encoding.
///
/// The storage layer keeps rows in this encoding, so a scan that only needs
/// a few columns to reject a row can read just those. `Get(col)` finds a
/// column's offset lazily, walking forward from the furthest column located
/// so far (decoding a column also locates the next one), so reading every
/// column in ascending order is one forward pass over the bytes. On a valid
/// encoding each column decodes to exactly what `WireReader::GetTuple`
/// yields; on a damaged one the reader returns an IOError and never reads
/// outside `[data, data + len)`. The view does not own the bytes; the
/// offset table is reused across `Reset` calls.
class TupleView {
 public:
  /// Points the view at one encoded tuple and reads its arity. An arity
  /// the buffer cannot hold (every value costs at least its tag byte) is an
  /// IOError.
  Status Reset(const uint8_t* data, size_t len);

  size_t arity() const { return arity_; }

  /// Decodes column `col`; a column past the arity is an IOError.
  Result<Value> Get(size_t col);
  /// Same, into `*out` (see WireReader::GetValueInto).
  Status GetInto(size_t col, Value* out);

 private:
  Status Locate(size_t col);

  const uint8_t* data_ = nullptr;
  size_t len_ = 0;
  size_t arity_ = 0;
  std::vector<size_t> starts_;  // starts_[c]: offset of column c, c < located_
  size_t located_ = 0;
};

}  // namespace tango

#endif  // TANGO_COMMON_WIRE_H_
