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

/// CRC-32 (polynomial 0xEDB88320) over `n` bytes. The per-batch frame
/// checksum: CRC-32 detects every single-bit flip and every truncation, so
/// a corrupted batch is always recognized at the client instead of decoding
/// into garbage rows. Every byte that crosses a link is checksummed twice
/// (sealed and checked), so the kernel is chosen once from the CPU: a
/// carry-less-multiply fold (PCLMULQDQ) where the CPU has it, slicing-by-8
/// elsewhere. Both give the same value on every input (DESIGN.md §11).
uint32_t Crc32(const uint8_t* data, size_t n);

/// \brief Batch framing for the simulated wire.
///
/// Every prefetch batch crosses the link as `[u32 payload_len][u32 crc32]
/// [payload]`. A frame is sealed where its payload was written
/// (`WireWriter::BeginFrame` / `SealFrame`). `Check` validates length and
/// checksum before any tuple is decoded; a failure means the link garbled
/// the batch (or a fault was injected) and the statement should be
/// re-issued — it is reported as a transient error by the connection
/// layer, never as decoded data.
struct WireFrame {
  static constexpr size_t kHeaderBytes = 8;

  /// A frame holding a copy of `payload`, sealed through a WireWriter, for
  /// a payload that was built apart from one; code that writes its own
  /// payload writes it into a frame instead.
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

namespace wire_internal {

/// The one-byte tag in front of every encoded value.
enum Tag : uint8_t { kTagNull = 0, kTagInt = 1, kTagDouble = 2, kTagString = 3 };

/// Copies `n` bytes. Up to 16 bytes (every employee name in UIS) take two
/// fixed-size moves instead of a call to `memcpy`, which at that size
/// costs more than the copy: it halved the encode time of a block of
/// names.
inline void CopyBytes(uint8_t* dst, const char* src, size_t n) {
  if (n > 16) {
    std::memcpy(dst, src, n);
  } else if (n >= 8) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + n - 8, src + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + n - 4, src + n - 4, 4);
  } else if (n > 0) {
    dst[0] = static_cast<uint8_t>(src[0]);
    dst[n / 2] = static_cast<uint8_t>(src[n / 2]);
    dst[n - 1] = static_cast<uint8_t>(src[n - 1]);
  }
}

/// A CRC-32 kernel: `Crc32`'s value for the same bytes.
using Crc32Kernel = uint32_t (*)(const uint8_t* data, size_t n);

/// The kernels behind `Crc32`, declared for the tests that hold each one
/// against the bitwise reference and check the choice between them.
/// `portable` is slicing-by-8. `fold` is the PCLMULQDQ fold, null unless
/// this is an x86-64 build on a CPU reporting PCLMUL and SSE4.1. `chosen`
/// is the kernel `Crc32` runs: `fold` whenever it is non-null.
struct Crc32Kernels {
  Crc32Kernel portable;
  Crc32Kernel fold;
  Crc32Kernel chosen;
};
const Crc32Kernels& GetCrc32Kernels();

}  // namespace wire_internal

/// \brief Binary encoder for the simulated client/server wire.
///
/// Every tuple crossing the DBMS boundary (TRANSFER^M fetches, TRANSFER^D
/// bulk loads) is serialized through this codec, so transfer costs really are
/// proportional to `size(r)` as the paper's cost formulas assume. A tuple or
/// a block is sized once (`ValueSize`), the buffer grows once, and each
/// value is written through a pointer.
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
  void PutValue(const Value& v) { PutValue(Grow(ValueSize(v)), v); }
  /// Writes `v` at `p` (`ValueSize(v)` bytes) and returns the byte after
  /// it: the one value writer.
  static uint8_t* PutValue(uint8_t* p, const Value& v);
  /// Bytes `PutValue(v)` writes.
  static size_t ValueSize(const Value& v) {
    if (v.is_string()) return 1 + 4 + v.AsString().size();
    return v.is_null() ? 1 : 1 + 8;
  }
  void PutTuple(const Tuple& t);
  /// Block encoding: `[u32 rows][u32 cols]` then the values column-major.
  /// One of these per RowBlock replaces `rows` per-tuple headers, and the
  /// column-major layout keeps same-typed tag bytes adjacent.
  void PutRowBlock(const RowBlock& block);

  /// Starts a frame: leaves `WireFrame::kHeaderBytes` of room, and what is
  /// written next is its payload, up to `SealFrame`.
  void BeginFrame() {
    frame_start_ = buf_.size();
    Grow(WireFrame::kHeaderBytes);
  }
  /// Seals the frame begun last where its payload lies: writes the
  /// payload's length and CRC-32 into the room `BeginFrame` left. The one
  /// way a frame is sealed; a buffer may hold several frames back to back.
  void SealFrame();

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  /// Appends `n` bytes of room and returns where they start.
  uint8_t* Grow(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  friend struct WireFrame;  // Seal writes a bare payload through PutRaw

  std::vector<uint8_t> buf_;
  size_t frame_start_ = 0;  // where the frame begun last starts
};

inline uint8_t* WireWriter::PutValue(uint8_t* p, const Value& v) {
  using namespace wire_internal;
  if (v.is_int()) {
    const int64_t x = v.AsInt();
    *p = kTagInt;
    std::memcpy(p + 1, &x, 8);
    return p + 9;
  }
  if (v.is_double()) {
    const double x = v.AsDouble();
    *p = kTagDouble;
    std::memcpy(p + 1, &x, 8);
    return p + 9;
  }
  if (v.is_null()) {
    *p = kTagNull;
    return p + 1;
  }
  const std::string& s = v.AsString();
  const uint32_t n = static_cast<uint32_t>(s.size());
  *p = kTagString;
  std::memcpy(p + 1, &n, 4);
  CopyBytes(p + 5, s.data(), n);
  return p + 5 + n;
}

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
  /// Decodes the next value into `*out`; with `out` null, advances past it,
  /// checking it the same way. A string reuses the buffer of the string
  /// `*out` already holds, so a scratch value decoded row after row settles
  /// into steady-state memory. The one value decoder: GetValue, GetTuple,
  /// GetRowBlock, SkipValue and TupleView all decode through it. Each field
  /// is bounds-checked once (a string's length, then its bytes).
  Status GetValueInto(Value* out);
  /// Advances past the next value without materializing it.
  Status SkipValue() { return GetValueInto(nullptr); }
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
    if (pos_ + n > size_) return Underrun();
    return Status::OK();
  }
  static Status Underrun() { return Status::IOError("wire buffer underrun"); }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

inline Status WireReader::GetValueInto(Value* out) {
  using namespace wire_internal;
  const uint8_t* p = data_ + pos_;
  const size_t left = size_ - pos_;
  if (left == 0) return Underrun();
  switch (p[0]) {
    case kTagNull:
      if (out != nullptr) *out = Value::Null();
      pos_ += 1;
      return Status::OK();
    case kTagInt:
    case kTagDouble:
      if (left < 9) return Underrun();
      if (out != nullptr) {
        if (p[0] == kTagInt) {
          int64_t x;
          std::memcpy(&x, p + 1, 8);
          *out = Value(x);
        } else {
          double x;
          std::memcpy(&x, p + 1, 8);
          *out = Value(x);
        }
      }
      pos_ += 9;
      return Status::OK();
    case kTagString: {
      if (left < 5) return Underrun();
      uint32_t n;
      std::memcpy(&n, p + 1, 4);
      if (left - 5 < n) return Underrun();
      if (out != nullptr) out->SetString(reinterpret_cast<const char*>(p + 5), n);
      pos_ += 5 + size_t{n};
      return Status::OK();
    }
    default:
      return Status::IOError("bad wire value tag");
  }
}

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
