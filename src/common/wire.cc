#include "common/wire.h"

#include <algorithm>

namespace tango {

namespace {
enum WireTag : uint8_t { kTagNull = 0, kTagInt = 1, kTagDouble = 2, kTagString = 3 };

/// Slicing-by-8 tables for CRC-32 (reflected polynomial 0xEDB88320).
/// `t[0]` is the classic bytewise table; `t[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight input bytes
/// into the register at once (Kounavis & Berry, ISCC 2005). Built at compile
/// time.
struct Crc32Tables {
  uint32_t t[8][256];
  constexpr Crc32Tables() : t() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

constexpr Crc32Tables kCrc32;

/// Little-endian 32-bit load, independent of the host's byte order.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const auto& t = kCrc32.t;
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLE32(data);
    const uint32_t hi = LoadLE32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> WireFrame::Seal(const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  // The header is written in place: GCC 12 (-O2 and up) mistakes small
  // inserts into a reserved vector for overflows (-Wstringop-overflow).
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  out.resize(kHeaderBytes);
  std::memcpy(out.data(), &len, 4);
  std::memcpy(out.data() + 4, &crc, 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status WireFrame::Check(const uint8_t* data, size_t n, const uint8_t** payload,
                        size_t* len) {
  if (n < kHeaderBytes) {
    return Status::IOError("wire frame truncated: no header");
  }
  uint32_t declared, crc;
  std::memcpy(&declared, data, 4);
  std::memcpy(&crc, data + 4, 4);
  if (n - kHeaderBytes < declared) {
    return Status::IOError("wire frame truncated: payload length mismatch");
  }
  const uint8_t* body = data + kHeaderBytes;
  if (Crc32(body, declared) != crc) {
    return Status::IOError("wire frame corrupt: checksum mismatch");
  }
  *payload = body;
  *len = declared;
  return Status::OK();
}

Status WireFrame::Check(const std::vector<uint8_t>& framed,
                        const uint8_t** payload, size_t* len) {
  // One frame, nothing after it: surplus bytes are a length mismatch too.
  uint32_t declared = 0;
  if (framed.size() >= kHeaderBytes) {
    std::memcpy(&declared, framed.data(), 4);
    if (framed.size() - kHeaderBytes != declared) {
      return Status::IOError("wire frame truncated: payload length mismatch");
    }
  }
  return Check(framed.data(), framed.size(), payload, len);
}

void WireWriter::PutRaw(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void WireWriter::PutValue(const Value& v) {
  if (v.is_null()) {
    PutU8(kTagNull);
  } else if (v.is_int()) {
    PutU8(kTagInt);
    PutI64(v.AsInt());
  } else if (v.is_double()) {
    PutU8(kTagDouble);
    PutDouble(v.AsDouble());
  } else {
    PutU8(kTagString);
    PutString(v.AsString());
  }
}

size_t WireWriter::ValueSize(const Value& v) {
  if (v.is_null()) return 1;
  if (v.is_int() || v.is_double()) return 1 + 8;
  return 1 + 4 + v.AsString().size();
}

void WireWriter::PutTuple(const Tuple& t) {
  PutU32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t) PutValue(v);
}

void WireWriter::PutRowBlock(const RowBlock& block) {
  PutU32(static_cast<uint32_t>(block.rows()));
  PutU32(static_cast<uint32_t>(block.columns()));
  for (size_t c = 0; c < block.columns(); ++c) {
    const std::vector<Value>& col = block.column(c);
    for (size_t r = 0; r < block.rows(); ++r) PutValue(col[r]);
  }
}

Result<uint8_t> WireReader::GetU8() {
  TANGO_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint32_t> WireReader::GetU32() {
  TANGO_RETURN_IF_ERROR(Need(4));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

Result<int64_t> WireReader::GetI64() {
  TANGO_RETURN_IF_ERROR(Need(8));
  int64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<double> WireReader::GetDouble() {
  TANGO_RETURN_IF_ERROR(Need(8));
  double v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<std::string> WireReader::GetString() {
  TANGO_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  TANGO_RETURN_IF_ERROR(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Value> WireReader::GetValue() {
  Value v;
  TANGO_RETURN_IF_ERROR(GetValueInto(&v));
  return v;
}

Status WireReader::GetValueInto(Value* out) {
  TANGO_ASSIGN_OR_RETURN(const uint8_t tag, GetU8());
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagInt: {
      TANGO_ASSIGN_OR_RETURN(const int64_t v, GetI64());
      *out = Value(v);
      return Status::OK();
    }
    case kTagDouble: {
      TANGO_ASSIGN_OR_RETURN(const double v, GetDouble());
      *out = Value(v);
      return Status::OK();
    }
    case kTagString: {
      TANGO_ASSIGN_OR_RETURN(const uint32_t n, GetU32());
      TANGO_RETURN_IF_ERROR(Need(n));
      out->SetString(reinterpret_cast<const char*>(data_ + pos_), n);
      pos_ += n;
      return Status::OK();
    }
    default:
      return Status::IOError("bad wire value tag");
  }
}

Status WireReader::SkipValue() {
  TANGO_ASSIGN_OR_RETURN(const uint8_t tag, GetU8());
  switch (tag) {
    case kTagNull:
      return Status::OK();
    case kTagInt:
    case kTagDouble:
      TANGO_RETURN_IF_ERROR(Need(8));
      pos_ += 8;
      return Status::OK();
    case kTagString: {
      TANGO_ASSIGN_OR_RETURN(const uint32_t n, GetU32());
      TANGO_RETURN_IF_ERROR(Need(n));
      pos_ += n;
      return Status::OK();
    }
    default:
      return Status::IOError("bad wire value tag");
  }
}

Result<Tuple> WireReader::GetTuple() {
  TANGO_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  Tuple t;
  // A corrupted arity must not drive a huge up-front allocation; the loop
  // below fails on buffer underrun long before a real tuple gets this wide.
  t.reserve(std::min<uint32_t>(n, 1024));
  for (uint32_t i = 0; i < n; ++i) {
    TANGO_RETURN_IF_ERROR(GetValueInto(&t.emplace_back()));
  }
  return t;
}

Result<size_t> WireReader::GetRowBlock(RowBlock* block) {
  TANGO_ASSIGN_OR_RETURN(uint32_t rows, GetU32());
  TANGO_ASSIGN_OR_RETURN(uint32_t cols, GetU32());
  // Every encoded value costs at least one tag byte, so a genuine header can
  // never declare more cells than bytes remaining. Rejecting here keeps a
  // forged header from driving a huge up-front allocation.
  const uint64_t cells = static_cast<uint64_t>(rows) * cols;
  if (cells > size_ - pos_) {
    return Status::IOError("wire block header implausible: too many cells");
  }
  if (rows > 0 && cols == 0) {
    return Status::IOError("wire block header implausible: rows without columns");
  }
  block->Reset(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    std::vector<Value>& col = block->column(c);
    col.reserve(rows);
    for (uint32_t r = 0; r < rows; ++r) {
      TANGO_RETURN_IF_ERROR(GetValueInto(&col.emplace_back()));
    }
  }
  block->set_rows(rows);
  return static_cast<size_t>(rows);
}

Status TupleView::Reset(const uint8_t* data, size_t len) {
  data_ = data;
  len_ = len;
  arity_ = 0;
  located_ = 0;
  WireReader reader(data, len);
  TANGO_ASSIGN_OR_RETURN(const uint32_t arity, reader.GetU32());
  if (arity > len - reader.position()) {
    return Status::IOError("wire tuple arity implausible: too many columns");
  }
  arity_ = arity;
  if (starts_.size() < arity_) starts_.resize(arity_);
  if (arity_ > 0) {
    starts_[0] = reader.position();
    located_ = 1;
  }
  return Status::OK();
}

Status TupleView::Locate(size_t col) {
  if (col >= arity_) {
    return Status::IOError("wire tuple has no column " + std::to_string(col));
  }
  while (located_ <= col) {
    const size_t start = starts_[located_ - 1];
    WireReader reader(data_ + start, len_ - start);
    TANGO_RETURN_IF_ERROR(reader.SkipValue());
    starts_[located_++] = start + reader.position();
  }
  return Status::OK();
}

Result<Value> TupleView::Get(size_t col) {
  Value v;
  TANGO_RETURN_IF_ERROR(GetInto(col, &v));
  return v;
}

Status TupleView::GetInto(size_t col, Value* out) {
  TANGO_RETURN_IF_ERROR(Locate(col));
  const size_t start = starts_[col];
  WireReader reader(data_ + start, len_ - start);
  TANGO_RETURN_IF_ERROR(reader.GetValueInto(out));
  // Decoding a column locates the next one: an ascending read of every
  // column never walks the same bytes twice.
  if (located_ == col + 1 && located_ < arity_) {
    starts_[located_++] = start + reader.position();
  }
  return Status::OK();
}

}  // namespace tango
