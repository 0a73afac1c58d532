#include "common/wire.h"

#include <algorithm>

// The carry-less-multiply fold is compiled on x86-64 only; Crc32 still
// checks the CPU before running it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TANGO_CRC32_FOLD 1
#include <immintrin.h>
#endif

namespace tango {

namespace {

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

/// Runs the CRC register `crc` over `n` bytes, slicing-by-8 (no initial or
/// final XOR: the callers apply them).
uint32_t Crc32Slice8(uint32_t crc, const uint8_t* data, size_t n) {
  const auto& t = kCrc32.t;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLE32(data);
    const uint32_t hi = LoadLE32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  return crc;
}

uint32_t Crc32Portable(const uint8_t* data, size_t n) {
  return Crc32Slice8(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

#ifdef TANGO_CRC32_FOLD
#define TANGO_PCLMUL __attribute__((target("pclmul,sse4.1")))

TANGO_PCLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.lo * k.lo ^ x.hi * k.hi ^ next: the 128 bits of `x` carried 128 bits
/// (k3k4) or 512 bits (k1k2) further along the message, onto the bytes that
/// are there.
TANGO_PCLMUL inline __m128i Fold128(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Runs the CRC register `crc` over `n` bytes (`n` >= 64, a multiple of
/// 16) with carry-less multiplies: four 128-bit lanes fold 64 bytes per
/// step, then fold into one lane, which takes the remaining 16-byte blocks,
/// and 128 -> 64 -> 32 bits finishes with a Barrett reduction. The
/// constants are the bit-reflected ones for 0xEDB88320 from Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009): k1/k2 fold by 512 bits, k3/k4 by 128, k5
/// from 64 to 32 bits, and P' and mu reduce. Every load lies inside
/// `[data, data + n)`.
TANGO_PCLMUL uint32_t Crc32FoldBlocks(uint32_t crc, const uint8_t* data,
                                      size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(Load128(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(data + 16);
  __m128i x3 = Load128(data + 32);
  __m128i x4 = Load128(data + 48);
  data += 64;
  n -= 64;
  for (; n >= 64; data += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, Load128(data));
    x2 = Fold128(x2, k1k2, Load128(data + 16));
    x3 = Fold128(x3, k1k2, Load128(data + 32));
    x4 = Fold128(x4, k1k2, Load128(data + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; data += 16, n -= 16) x1 = Fold128(x1, k3k4, Load128(data));

  // 128 -> 64 bits, then 64 -> 32.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// The fold over every whole 16 bytes once there are at least 64; the
/// slicing-by-8 loop takes shorter inputs and the tail.
uint32_t Crc32Fold(const uint8_t* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  if (n >= 64) {
    const size_t whole = n & ~size_t{15};
    crc = Crc32FoldBlocks(crc, data, whole);
    data += whole;
    n -= whole;
  }
  return Crc32Slice8(crc, data, n) ^ 0xFFFFFFFFu;
}

bool CpuHasFold() {
  // The first Crc32 may run from another static initializer, before
  // libgcc's own CPU probe has.
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

namespace wire_internal {

const Crc32Kernels& GetCrc32Kernels() {
  static const Crc32Kernels kernels = [] {
    Crc32Kernels k{&Crc32Portable, nullptr, &Crc32Portable};
#ifdef TANGO_CRC32_FOLD
    if (CpuHasFold()) k.fold = k.chosen = &Crc32Fold;
#endif
    return k;
  }();
  return kernels;
}

}  // namespace wire_internal

uint32_t Crc32(const uint8_t* data, size_t n) {
  return wire_internal::GetCrc32Kernels().chosen(data, n);
}

std::vector<uint8_t> WireFrame::Seal(const std::vector<uint8_t>& payload) {
  WireWriter w;
  w.BeginFrame();
  w.PutRaw(payload.data(), payload.size());
  w.SealFrame();
  return w.Take();
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

void WireWriter::SealFrame() {
  uint8_t* frame = buf_.data() + frame_start_;
  const size_t payload = buf_.size() - frame_start_ - WireFrame::kHeaderBytes;
  const uint32_t len = static_cast<uint32_t>(payload);
  const uint32_t crc = Crc32(frame + WireFrame::kHeaderBytes, payload);
  std::memcpy(frame, &len, 4);
  std::memcpy(frame + 4, &crc, 4);
}

void WireWriter::PutTuple(const Tuple& t) {
  size_t bytes = 4;
  for (const Value& v : t) bytes += ValueSize(v);
  uint8_t* p = Grow(bytes);
  const uint32_t arity = static_cast<uint32_t>(t.size());
  std::memcpy(p, &arity, 4);
  p += 4;
  for (const Value& v : t) p = PutValue(p, v);
}

void WireWriter::PutRowBlock(const RowBlock& block) {
  const size_t rows = block.rows();
  size_t bytes = 8;
  for (size_t c = 0; c < block.columns(); ++c) {
    const Value* col = block.column(c).data();
    for (size_t r = 0; r < rows; ++r) bytes += ValueSize(col[r]);
  }
  uint8_t* p = Grow(bytes);
  const uint32_t header[2] = {static_cast<uint32_t>(rows),
                              static_cast<uint32_t>(block.columns())};
  std::memcpy(p, header, 8);
  p += 8;
  for (size_t c = 0; c < block.columns(); ++c) {
    const Value* col = block.column(c).data();
    for (size_t r = 0; r < rows; ++r) p = PutValue(p, col[r]);
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
    col.resize(rows);
    for (Value& v : col) TANGO_RETURN_IF_ERROR(GetValueInto(&v));
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
