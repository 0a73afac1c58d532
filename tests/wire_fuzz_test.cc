// Seeded fuzz of the wire codec: frames that lose their tail or arrive
// with flipped bits must be rejected with a clean Status — never decoded
// into garbage rows, never UB (the suite runs under ASan/UBSan via
// scripts/check.sh). Deterministic: one SplitMix64 stream per test.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/wire.h"
#include "gtest/gtest.h"
#include "net/protocol.h"

// GCC 12's -Wmaybe-uninitialized misfires on the string alternative of the
// Value variant when vector growth is inlined into the tuple generators;
// the very point of this file is that the ASan/UBSan legs prove the real
// initialization story.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace tango {
namespace {

// SplitMix64: tiny, seedable, good enough for fuzz-input generation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

Tuple RandomTuple(Rng* rng) {
  Tuple t;
  const size_t arity = 1 + rng->Below(6);
  t.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    switch (rng->Below(4)) {
      case 0:
        t.push_back(Value::Null());
        break;
      case 1:
        t.push_back(Value(static_cast<int64_t>(rng->Next())));
        break;
      case 2:
        t.push_back(Value(static_cast<double>(rng->Next()) / 7.0));
        break;
      default: {
        std::string s(rng->Below(24), 'x');
        for (char& c : s) c = static_cast<char>('a' + rng->Below(26));
        t.push_back(Value(std::move(s)));
        break;
      }
    }
  }
  return t;
}

std::vector<uint8_t> RandomBatch(Rng* rng, std::vector<Tuple>* tuples) {
  WireWriter writer;
  const size_t n = 1 + rng->Below(20);
  if (tuples != nullptr) tuples->reserve(tuples->size() + n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t = RandomTuple(rng);
    writer.PutTuple(t);
    if (tuples != nullptr) tuples->push_back(std::move(t));
  }
  return writer.Take();
}

// The seeded damage model for payloads past the frame check: one to four
// bit flips, truncations, or byte overwrites (which can forge huge lengths
// and arities).
void MutatePayload(Rng* rng, std::vector<uint8_t>* payload) {
  const int mutations = 1 + static_cast<int>(rng->Below(4));
  for (int m = 0; m < mutations; ++m) {
    if (payload->empty()) break;
    switch (rng->Below(3)) {
      case 0:  // bit flip
        (*payload)[rng->Below(payload->size())] ^=
            static_cast<uint8_t>(1u << rng->Below(8));
        break;
      case 1:  // truncate
        payload->resize(rng->Below(payload->size() + 1));
        break;
      default:  // overwrite a byte
        (*payload)[rng->Below(payload->size())] =
            static_cast<uint8_t>(rng->Next());
        break;
    }
  }
}

// Decodes as many tuples as the buffer yields; any failure must be a clean
// Status (the harness is what catches UB).
size_t DrainTuples(const uint8_t* data, size_t len) {
  WireReader reader(data, len);
  size_t decoded = 0;
  while (!reader.AtEnd()) {
    auto t = reader.GetTuple();
    if (!t.ok()) {
      EXPECT_FALSE(t.status().message().empty());
      break;
    }
    ++decoded;
  }
  return decoded;
}

// ---------------------------------------------------------------------------
// The CRC-32 kernels: the carry-less-multiply fold where the CPU has it, and
// slicing-by-8. Frames, WAL records and snapshot files written before them
// must stay readable, so each kernel's output must equal the classic bitwise
// CRC-32 on every input.

// Bitwise CRC-32 (reflected 0xEDB88320), one bit per step: the reference.
uint32_t BitwiseCrcStep(uint32_t crc, uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  return crc;
}

// Holds `kernel` to the reference at start offsets 0-7 (every alignment of
// its loads) and lengths 0-4,100: the fold's 64-byte entry, its 16-byte
// steps and every tail length, many times over. Each input ends where its
// heap block ends, so ASan flags any load past `data + n`.
void ExpectMatchesBitwiseReference(wire_internal::Crc32Kernel kernel) {
  constexpr size_t kMaxLen = 4100;
  Rng rng(0xC3C32);
  std::vector<uint8_t> bytes(kMaxLen);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    uint32_t reference = 0xFFFFFFFFu;  // over bytes[0, len)
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const auto block = std::make_unique<uint8_t[]>(offset + len);
      std::copy(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(len),
                block.get() + offset);
      ASSERT_EQ(kernel(block.get() + offset, len), reference ^ 0xFFFFFFFFu)
          << "offset " << offset << ", length " << len;
      if (len < kMaxLen) reference = BitwiseCrcStep(reference, bytes[len]);
    }
  }
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, EveryOffsetAndLengthMatchesTheBitwiseReference) {
  const wire_internal::Crc32Kernels& kernels = wire_internal::GetCrc32Kernels();
  {
    SCOPED_TRACE("portable kernel (slicing-by-8)");
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesBitwiseReference(kernels.portable));
  }
  if (kernels.fold == nullptr) {
    GTEST_SKIP() << "this CPU reports no PCLMUL and SSE4.1 (or the build is "
                    "not x86-64): the fold kernel's cases are skipped";
  }
  SCOPED_TRACE("fold kernel (PCLMULQDQ)");
  ExpectMatchesBitwiseReference(kernels.fold);
}

TEST(Crc32Test, TheFoldIsChosenWheneverTheCpuHasIt) {
  // A broken selection would cost every frame 10x silently; here it fails.
  const wire_internal::Crc32Kernels& kernels = wire_internal::GetCrc32Kernels();
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool cpu_has_fold =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  const bool cpu_has_fold = false;
#endif
  if (!cpu_has_fold) {
    EXPECT_EQ(kernels.fold, nullptr);
    EXPECT_EQ(kernels.chosen, kernels.portable);
    GTEST_SKIP() << "this CPU reports no PCLMUL and SSE4.1 (or the build is "
                    "not x86-64): Crc32 runs the portable kernel";
  }
  ASSERT_NE(kernels.fold, nullptr);
  EXPECT_EQ(kernels.chosen, kernels.fold);
}

TEST(Crc32Test, SealedFrameBytesArePinned) {
  // Header bytes as sealed before the slicing-by-8 kernel: little-endian
  // length 45, then CRC-32 0x47215652.
  std::vector<uint8_t> payload;
  for (int i = 0; i < 40; ++i) payload.push_back(static_cast<uint8_t>(i));
  for (char c : std::string("TANGO")) payload.push_back(static_cast<uint8_t>(c));
  std::vector<uint8_t> expected = {0x2d, 0x00, 0x00, 0x00,
                                   0x52, 0x56, 0x21, 0x47};
  expected.insert(expected.end(), payload.begin(), payload.end());
  EXPECT_EQ(WireFrame::Seal(payload), expected);
}

TEST(WireFuzzTest, CheckWalksAStreamOfFramesWhereTheyLie) {
  Rng rng(0x57AE);
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 50; ++i) {
    payloads.push_back(RandomBatch(&rng, nullptr));
    const std::vector<uint8_t> framed = WireFrame::Seal(payloads.back());
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  // A torn tail: half of one more frame.
  const std::vector<uint8_t> torn = WireFrame::Seal(RandomBatch(&rng, nullptr));
  stream.insert(stream.end(), torn.begin(), torn.begin() + torn.size() / 2);

  size_t off = 0;
  size_t frames = 0;
  const uint8_t* body = nullptr;
  size_t len = 0;
  while (WireFrame::Check(stream.data() + off, stream.size() - off, &body, &len)
             .ok()) {
    ASSERT_LT(frames, payloads.size());
    EXPECT_EQ(std::vector<uint8_t>(body, body + len), payloads[frames]);
    off += WireFrame::kHeaderBytes + len;
    ++frames;
  }
  EXPECT_EQ(frames, payloads.size());
  EXPECT_EQ(stream.size() - off, torn.size() / 2);
}

TEST(WireFuzzTest, RoundTripSurvivesSealing) {
  Rng rng(0xF00D);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Tuple> tuples;
    const std::vector<uint8_t> payload = RandomBatch(&rng, &tuples);
    const std::vector<uint8_t> framed = WireFrame::Seal(payload);

    const uint8_t* body = nullptr;
    size_t len = 0;
    ASSERT_TRUE(WireFrame::Check(framed, &body, &len).ok());
    ASSERT_EQ(len, payload.size());

    WireReader reader(body, len);
    for (const Tuple& expect : tuples) {
      auto got = reader.GetTuple();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.ValueOrDie().size(), expect.size());
      for (size_t c = 0; c < expect.size(); ++c) {
        EXPECT_EQ(got.ValueOrDie()[c].Compare(expect[c]), 0);
      }
    }
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(WireFuzzTest, TruncatedFramesAreRejected) {
  Rng rng(0xBEEF);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> framed = WireFrame::Seal(RandomBatch(&rng, nullptr));
    // Any strictly shorter prefix must fail the frame check: the length
    // field no longer matches (or the header itself is gone).
    framed.resize(rng.Below(framed.size()));
    const uint8_t* body = nullptr;
    size_t len = 0;
    const Status s = WireFrame::Check(framed, &body, &len);
    ASSERT_FALSE(s.ok()) << "truncated to " << framed.size() << " bytes";
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
}

TEST(WireFuzzTest, BitFlippedFramesAreRejected) {
  Rng rng(0xCAFE);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> framed = WireFrame::Seal(RandomBatch(&rng, nullptr));
    const size_t byte = rng.Below(framed.size());
    framed[byte] ^= static_cast<uint8_t>(1u << rng.Below(8));
    const uint8_t* body = nullptr;
    size_t len = 0;
    // CRC-32 detects every single-bit flip in the payload; a flip in the
    // header corrupts the declared length or the stored checksum.
    const Status s = WireFrame::Check(framed, &body, &len);
    ASSERT_FALSE(s.ok()) << "flip at byte " << byte;
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
}

TEST(WireFuzzTest, ReaderSurvivesGarbageBuffers) {
  Rng rng(0xD15EA5E);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> buf(rng.Below(256));
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
    // Must terminate with clean statuses, whatever the bytes decode to.
    DrainTuples(buf.data(), buf.size());

    WireReader reader(buf.data(), buf.size());
    (void)reader.GetU8();
    (void)reader.GetU32();
    (void)reader.GetI64();
    (void)reader.GetDouble();
    (void)reader.GetString();
    (void)reader.GetValue();
  }
}

TEST(WireFuzzTest, ReaderSurvivesMutatedPayloads) {
  // A payload that passes no frame check (simulating a bug upstream) still
  // must not crash the decoder: every underrun and bad tag is a Status.
  Rng rng(0x5EED);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> payload = RandomBatch(&rng, nullptr);
    MutatePayload(&rng, &payload);
    DrainTuples(payload.data(), payload.size());
  }
}

TEST(WireFuzzTest, ForgedHugeArityDoesNotAllocate) {
  // A forged tuple arity of ~4 billion must fail on underrun, not attempt
  // a matching up-front allocation.
  WireWriter writer;
  writer.PutU32(0xFFFFFFFFu);
  writer.PutU8(1);  // one int value, then the buffer ends
  writer.PutI64(42);
  WireReader reader(writer.buffer());
  auto t = reader.GetTuple();
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);

  // Same for a forged string length.
  WireWriter w2;
  w2.PutU8(3);  // kTagString
  w2.PutU32(0xFFFFFFF0u);
  w2.PutU8('x');
  WireReader r2(w2.buffer());
  auto v = r2.GetValue();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// TupleView: the per-column reader the filtered table scan runs on stored
// rows. It must agree with GetTuple value for value on every valid encoding,
// whatever order the columns are read in, and fail cleanly (never read out
// of bounds) wherever GetTuple fails.

// Copies bytes into a heap block of exactly their length, so ASan flags any
// read one byte past the end.
std::unique_ptr<uint8_t[]> ExactCopy(const std::vector<uint8_t>& bytes) {
  auto out = std::make_unique<uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), out.get());
  return out;
}

bool SameValue(const Value& a, const Value& b) {
  return a.is_null() == b.is_null() && a.is_int() == b.is_int() &&
         a.is_double() == b.is_double() && a.is_string() == b.is_string() &&
         a.Compare(b) == 0;
}

// A random read order over `arity` columns that visits each column at least
// once and some twice.
std::vector<size_t> RandomReadOrder(Rng* rng, size_t arity) {
  std::vector<size_t> order(arity);
  for (size_t c = 0; c < arity; ++c) order[c] = c;
  for (size_t c = arity; c > 1; --c) {
    std::swap(order[c - 1], order[rng->Below(c)]);
  }
  for (size_t extra = rng->Below(3); extra > 0 && arity > 0; --extra) {
    order.push_back(rng->Below(arity));
  }
  return order;
}

TEST(TupleViewFuzzTest, ColumnsInAnyOrderMatchGetTuple) {
  Rng rng(0x7E1E);
  TupleView view;  // reused: the offset table must not leak across rows
  Value scratch;   // reused across kinds, as the scan's scratch row is
  for (int iter = 0; iter < 1000; ++iter) {
    const Tuple tuple = RandomTuple(&rng);
    WireWriter writer;
    writer.PutTuple(tuple);
    const std::vector<uint8_t>& bytes = writer.buffer();
    const auto exact = ExactCopy(bytes);
    auto reference = WireReader(exact.get(), bytes.size()).GetTuple();
    ASSERT_TRUE(reference.ok());

    ASSERT_TRUE(view.Reset(exact.get(), bytes.size()).ok());
    ASSERT_EQ(view.arity(), tuple.size());
    for (const size_t c : RandomReadOrder(&rng, tuple.size())) {
      auto got = view.Get(c);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameValue(got.ValueOrDie(), reference.ValueOrDie()[c]))
          << "iter " << iter << " col " << c;
      ASSERT_TRUE(view.GetInto(c, &scratch).ok());
      EXPECT_TRUE(SameValue(scratch, reference.ValueOrDie()[c]));
    }
    auto past = view.Get(tuple.size());
    ASSERT_FALSE(past.ok());
    EXPECT_EQ(past.status().code(), StatusCode::kIOError);
  }
}

TEST(TupleViewFuzzTest, DamagedEncodingsFailWhereGetTupleFails) {
  Rng rng(0x7E1E2);
  TupleView view;
  size_t damaged = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    WireWriter writer;
    writer.PutTuple(RandomTuple(&rng));
    std::vector<uint8_t> bytes = writer.Take();
    MutatePayload(&rng, &bytes);
    const auto exact = ExactCopy(bytes);
    auto reference = WireReader(exact.get(), bytes.size()).GetTuple();

    // Read every column, in a random order; collect the first failure.
    Status failure = view.Reset(exact.get(), bytes.size());
    std::vector<Value> got;
    if (failure.ok()) {
      got.resize(view.arity());
      for (const size_t c : RandomReadOrder(&rng, view.arity())) {
        auto v = view.Get(c);
        if (!v.ok()) {
          failure = v.status();
          break;
        }
        got[c] = v.MoveValueOrDie();
      }
    }
    if (reference.ok()) {
      // A flip inside a value's payload still decodes; then the view must
      // decode it to the very same values.
      ASSERT_TRUE(failure.ok())
          << "iter " << iter << ": " << failure.ToString();
      ASSERT_EQ(got.size(), reference.ValueOrDie().size());
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_TRUE(SameValue(got[c], reference.ValueOrDie()[c]))
            << "iter " << iter << " col " << c;
      }
    } else {
      ++damaged;
      ASSERT_FALSE(failure.ok()) << "iter " << iter;
      EXPECT_EQ(failure.code(), StatusCode::kIOError);
    }
  }
  EXPECT_GT(damaged, 1000u);  // the damage model does bite
}

TEST(TupleViewFuzzTest, ForgedLengthsFailWithoutAllocating) {
  TupleView view;
  // An arity of ~4 billion over a 13-byte buffer: rejected at Reset, before
  // the offset table is sized.
  WireWriter w1;
  w1.PutU32(0xFFFFFFFFu);
  w1.PutU8(1);
  w1.PutI64(42);
  Status reset = view.Reset(w1.buffer().data(), w1.size());
  ASSERT_FALSE(reset.ok());
  EXPECT_EQ(reset.code(), StatusCode::kIOError);

  // A forged string length in column 1: column 0 still reads, column 1 and
  // anything located past it fail.
  WireWriter w2;
  w2.PutU32(3);
  w2.PutU8(1);
  w2.PutI64(7);
  w2.PutU8(3);  // string tag
  w2.PutU32(0xFFFFFFF0u);
  w2.PutU8('x');
  const auto exact = ExactCopy(w2.buffer());
  ASSERT_TRUE(view.Reset(exact.get(), w2.size()).ok());
  EXPECT_EQ(view.Get(2).status().code(), StatusCode::kIOError);
  auto first = view.Get(0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().AsInt(), 7);
  EXPECT_EQ(view.Get(1).status().code(), StatusCode::kIOError);

  // Fewer than four bytes cannot even hold the arity.
  EXPECT_FALSE(view.Reset(exact.get(), 3).ok());
  EXPECT_FALSE(view.Get(0).ok());
}

TEST(TupleViewFuzzTest, GarbageBuffersNeverCrash) {
  Rng rng(0x6A5B);
  TupleView view;
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<uint8_t> buf(rng.Below(64));
    // Bias towards tag byte 1 (int) so some garbage gets past Reset.
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng.Below(4) == 0 ? 1 : rng.Next());
    }
    const auto exact = ExactCopy(buf);
    if (!view.Reset(exact.get(), buf.size()).ok()) continue;
    for (const size_t c : RandomReadOrder(&rng, view.arity())) {
      auto v = view.Get(c);
      if (!v.ok()) {
        EXPECT_EQ(v.status().code(), StatusCode::kIOError);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Block-frame codec: the column-packed RowBlock encoding that carries every
// prefetch batch and bulk-load chunk, under the same damage model.

RowBlock RandomRowBlock(Rng* rng) {
  const size_t arity = 1 + rng->Below(5);
  const size_t rows = 1 + rng->Below(30);
  RowBlock block(rows);
  for (size_t r = 0; r < rows; ++r) {
    Tuple t;
    t.reserve(arity);
    for (size_t c = 0; c < arity; ++c) {
      switch (rng->Below(4)) {
        case 0:
          t.push_back(Value::Null());
          break;
        case 1:
          t.push_back(Value(static_cast<int64_t>(rng->Next())));
          break;
        case 2:
          t.push_back(Value(static_cast<double>(rng->Next()) / 7.0));
          break;
        default: {
          std::string s(rng->Below(24), 'x');
          for (char& ch : s) ch = static_cast<char>('a' + rng->Below(26));
          t.push_back(Value(std::move(s)));
          break;
        }
      }
    }
    block.AppendRow(std::move(t));
  }
  return block;
}

TEST(WireBlockFuzzTest, BlockRoundTripSurvivesSealing) {
  Rng rng(0xB10C);
  for (int iter = 0; iter < 200; ++iter) {
    const RowBlock block = RandomRowBlock(&rng);
    WireWriter writer;
    writer.PutRowBlock(block);
    const std::vector<uint8_t> framed = WireFrame::Seal(writer.buffer());

    const uint8_t* body = nullptr;
    size_t len = 0;
    ASSERT_TRUE(WireFrame::Check(framed, &body, &len).ok());
    WireReader reader(body, len);
    RowBlock decoded;
    auto n = reader.GetRowBlock(&decoded);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(n.ValueOrDie(), block.rows());
    ASSERT_EQ(decoded.columns(), block.columns());
    EXPECT_TRUE(reader.AtEnd());
    for (size_t r = 0; r < block.rows(); ++r) {
      for (size_t c = 0; c < block.columns(); ++c) {
        EXPECT_EQ(decoded.At(r, c).Compare(block.At(r, c)), 0)
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(WireBlockFuzzTest, DamagedBlockFramesAreRejected) {
  Rng rng(0xB10C2);
  for (int iter = 0; iter < 400; ++iter) {
    WireWriter writer;
    writer.PutRowBlock(RandomRowBlock(&rng));
    std::vector<uint8_t> framed = WireFrame::Seal(writer.buffer());
    if (rng.Below(2) == 0) {
      framed.resize(rng.Below(framed.size()));  // truncation, mid-block
    } else {
      framed[rng.Below(framed.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));  // CRC mismatch
    }
    const uint8_t* body = nullptr;
    size_t len = 0;
    const Status s = WireFrame::Check(framed, &body, &len);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
}

TEST(WireBlockFuzzTest, MutatedBlockPayloadsDecodeCleanlyOrFail) {
  // Payload damage past the frame check (simulating an upstream bug) must
  // surface as a Status from GetRowBlock, never UB or garbage growth.
  Rng rng(0xB10C3);
  for (int iter = 0; iter < 500; ++iter) {
    WireWriter writer;
    writer.PutRowBlock(RandomRowBlock(&rng));
    std::vector<uint8_t> payload = writer.Take();
    MutatePayload(&rng, &payload);
    WireReader reader(payload.data(), payload.size());
    RowBlock decoded;
    auto n = reader.GetRowBlock(&decoded);
    if (!n.ok()) {
      EXPECT_FALSE(n.status().message().empty());
    }
  }
}

TEST(WireBlockFuzzTest, ForgedBlockHeaderDoesNotAllocate) {
  // rows=2^31, cols=2^31 would be 2^62 cells; the decoder must reject the
  // header against the actual remaining bytes before reserving anything.
  WireWriter writer;
  writer.PutU32(0x80000000u);
  writer.PutU32(0x80000000u);
  writer.PutU8(1);
  WireReader reader(writer.buffer());
  RowBlock decoded;
  auto n = reader.GetRowBlock(&decoded);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIOError);

  // rows>0 with cols=0 declares rows that cannot carry data: reject.
  WireWriter w2;
  w2.PutU32(5);
  w2.PutU32(0);
  WireReader r2(w2.buffer());
  auto n2 = r2.GetRowBlock(&decoded);
  ASSERT_FALSE(n2.ok());
  EXPECT_EQ(n2.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Codec differential: the sized, pointer-writing block and tuple encoders
// against a reference that writes the format one value and one byte at a
// time, and the inline decoder back, over every kind of value and the edges
// of each.

std::string RandomLetters(Rng* rng, size_t n) {
  std::string s(n, 'x');
  for (char& c : s) c = static_cast<char>('a' + rng->Below(26));
  return s;
}

// One value of `kind` (0 int, 1 double, 2 string, anything else any kind),
// NULL now and then, edges often: INT64_MIN/MAX, NaN, -0.0, the infinities,
// the empty string, 15 and 16 bytes (the short-string boundary) and long
// strings.
Value EdgeValue(Rng* rng, uint64_t kind) {
  if (kind > 2) kind = rng->Below(3);
  if (rng->Below(8) == 0) return Value::Null();
  switch (kind) {
    case 0:
      switch (rng->Below(4)) {
        case 0: return Value(std::numeric_limits<int64_t>::min());
        case 1: return Value(std::numeric_limits<int64_t>::max());
        default: return Value(static_cast<int64_t>(rng->Next()));
      }
    case 1:
      switch (rng->Below(6)) {
        case 0: return Value(std::numeric_limits<double>::quiet_NaN());
        case 1: return Value(-0.0);
        case 2: return Value(std::numeric_limits<double>::infinity());
        case 3: return Value(-std::numeric_limits<double>::infinity());
        default: return Value(static_cast<double>(rng->Next()) / 7.0);
      }
    default:
      switch (rng->Below(5)) {
        case 0: return Value(std::string());
        case 1: return Value(RandomLetters(rng, 15));
        case 2: return Value(RandomLetters(rng, 16));
        case 3: return Value(RandomLetters(rng, 64 + rng->Below(200)));
        default: return Value(RandomLetters(rng, rng->Below(24)));
      }
  }
}

// Each column holds one kind, or (one in four) mixes them.
RowBlock RandomEdgeBlock(Rng* rng, size_t max_rows, size_t max_cols) {
  const size_t cols = 1 + rng->Below(max_cols);
  const size_t rows = rng->Below(max_rows + 1);
  std::vector<uint64_t> kinds(cols);
  for (uint64_t& k : kinds) k = rng->Below(4);
  RowBlock block(rows == 0 ? 1 : rows);
  block.Reset(cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      block.column(c).push_back(EdgeValue(rng, kinds[c]));
    }
  }
  block.set_rows(rows);
  return block;
}

// The wire format written one byte at a time, little-endian.
struct ReferenceWriter {
  std::vector<uint8_t> bytes;

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Put(const Value& v) {
    if (v.is_null()) {
      bytes.push_back(0);
    } else if (v.is_int()) {
      bytes.push_back(1);
      U64(static_cast<uint64_t>(v.AsInt()));
    } else if (v.is_double()) {
      bytes.push_back(2);
      const double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      U64(bits);
    } else {
      bytes.push_back(3);
      U32(static_cast<uint32_t>(v.AsString().size()));
      for (const char c : v.AsString()) bytes.push_back(static_cast<uint8_t>(c));
    }
  }
  void Block(const RowBlock& block) {
    U32(static_cast<uint32_t>(block.rows()));
    U32(static_cast<uint32_t>(block.columns()));
    for (size_t c = 0; c < block.columns(); ++c) {
      for (size_t r = 0; r < block.rows(); ++r) Put(block.At(r, c));
    }
  }
};

// Same kind and the same value; doubles bit for bit (NaN, -0.0).
bool IdenticalValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return SameValue(a, b);
}

TEST(WireBlockFuzzTest, OnePassCodecMatchesThePerValueReference) {
  Rng rng(0xC0DEC);
  for (int iter = 0; iter < 300; ++iter) {
    const RowBlock block = RandomEdgeBlock(&rng, 40, 6);
    ReferenceWriter reference;
    reference.Block(block);
    WireWriter writer;
    writer.PutRowBlock(block);
    ASSERT_EQ(writer.buffer(), reference.bytes) << "block " << iter;

    RowBlock decoded(7);  // a stale shape and capacity must not leak through
    decoded.AppendRow(Tuple{Value("stale")});
    WireReader reader(writer.buffer());
    auto n = reader.GetRowBlock(&decoded);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(n.ValueOrDie(), block.rows());
    ASSERT_EQ(decoded.columns(), block.columns());
    EXPECT_TRUE(reader.AtEnd());
    for (size_t c = 0; c < block.columns(); ++c) {
      ASSERT_EQ(decoded.column(c).size(), block.rows());
      for (size_t r = 0; r < block.rows(); ++r) {
        ASSERT_TRUE(IdenticalValue(decoded.At(r, c), block.At(r, c)))
            << "block " << iter << ", row " << r << ", col " << c;
      }
    }

    // Each row as a tuple: PutTuple, the value-at-a-time PutValue, GetTuple
    // and the per-column TupleView.
    TupleView view;
    for (size_t r = 0; r < block.rows(); ++r) {
      Tuple row;
      block.CopyRowTo(r, &row);
      ReferenceWriter ref_tuple;
      ref_tuple.U32(static_cast<uint32_t>(row.size()));
      for (const Value& v : row) ref_tuple.Put(v);
      WireWriter tuple_writer;
      tuple_writer.PutTuple(row);
      ASSERT_EQ(tuple_writer.buffer(), ref_tuple.bytes);
      WireWriter value_writer;
      value_writer.PutU32(static_cast<uint32_t>(row.size()));
      for (const Value& v : row) value_writer.PutValue(v);
      ASSERT_EQ(value_writer.buffer(), ref_tuple.bytes);

      WireReader tuple_reader(tuple_writer.buffer());
      auto got = tuple_reader.GetTuple();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.ValueOrDie().size(), row.size());
      ASSERT_TRUE(view.Reset(tuple_writer.buffer().data(),
                             tuple_writer.size()).ok());
      for (size_t c = 0; c < row.size(); ++c) {
        EXPECT_TRUE(IdenticalValue(got.ValueOrDie()[c], row[c])) << c;
        auto col = view.Get(c);
        ASSERT_TRUE(col.ok()) << col.status().ToString();
        EXPECT_TRUE(IdenticalValue(col.ValueOrDie(), row[c])) << c;
      }
    }
  }
}

TEST(WireBlockFuzzTest, EveryTruncatedPrefixFailsCleanly) {
  // Each prefix sits in a heap block of exactly its length, so a decoder
  // read past the end fails the ASan leg.
  Rng rng(0x7A1C);
  for (int iter = 0; iter < 60; ++iter) {
    const RowBlock block = RandomEdgeBlock(&rng, 6, 4);
    WireWriter block_writer;
    block_writer.PutRowBlock(block);
    const std::vector<uint8_t>& encoded = block_writer.buffer();
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      const std::vector<uint8_t> prefix(encoded.begin(),
                                        encoded.begin() + static_cast<ptrdiff_t>(cut));
      const auto exact = ExactCopy(prefix);
      WireReader reader(exact.get(), cut);
      RowBlock decoded;
      auto n = reader.GetRowBlock(&decoded);
      ASSERT_FALSE(n.ok()) << "block prefix " << cut << "/" << encoded.size();
      EXPECT_EQ(n.status().code(), StatusCode::kIOError);
    }
    if (block.rows() == 0) continue;
    Tuple row;
    block.CopyRowTo(0, &row);
    WireWriter tuple_writer;
    tuple_writer.PutTuple(row);
    const std::vector<uint8_t>& tuple = tuple_writer.buffer();
    for (size_t cut = 0; cut < tuple.size(); ++cut) {
      const std::vector<uint8_t> prefix(tuple.begin(),
                                        tuple.begin() + static_cast<ptrdiff_t>(cut));
      const auto exact = ExactCopy(prefix);
      WireReader reader(exact.get(), cut);
      auto got = reader.GetTuple();
      ASSERT_FALSE(got.ok()) << "tuple prefix " << cut << "/" << tuple.size();
      EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    }
  }
}

// ---------------------------------------------------------------------------
// net:: protocol messages: the server's client-facing frames (handshake,
// requests, result stream) under the same damage model. The contract is
// the server's: truncation, bit flips and forged headers must never crash —
// every rejection is a clean Status from DecodeMessage or the assembler.

net::Message RandomProtocolMessage(Rng* rng) {
  auto rand_string = [&](size_t max) {
    std::string s(rng->Below(max), 'x');
    for (char& c : s) c = static_cast<char>('a' + rng->Below(26));
    return s;
  };
  net::Message m;
  const uint8_t kinds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  m.type = static_cast<net::MsgType>(kinds[rng->Below(sizeof(kinds))]);
  m.protocol_version = static_cast<uint32_t>(rng->Next());
  m.text = rand_string(48);
  m.stmt_id = static_cast<uint32_t>(rng->Next());
  m.deadline_seconds = static_cast<double>(rng->Below(1000)) / 7.0;
  m.plan_source = rand_string(12);
  m.fingerprint = rng->Next();
  const size_t ncols = rng->Below(6);
  for (size_t i = 0; i < ncols; ++i) {
    m.columns.emplace_back(rand_string(16),
                           static_cast<uint8_t>(rng->Below(3)));
  }
  if (m.type == net::MsgType::kRowBlock) m.block = RandomRowBlock(rng);
  m.rows = rng->Below(10000);
  m.elapsed_seconds = static_cast<double>(rng->Below(1000)) / 13.0;
  m.degraded = rng->Below(2) == 1;
  m.status_code = static_cast<uint8_t>(rng->Below(14));
  return m;
}

TEST(ProtocolFuzzTest, MessagesRoundTripThroughTheAssembler) {
  Rng rng(0x7A960);
  for (int iter = 0; iter < 300; ++iter) {
    const net::Message sent = RandomProtocolMessage(&rng);
    const std::vector<uint8_t> frame = net::EncodeMessage(sent);

    net::FrameAssembler assembler;
    assembler.Append(frame.data(), frame.size());
    std::vector<uint8_t> payload;
    auto next = assembler.Next(&payload);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next.ValueOrDie());

    auto got = net::DecodeMessage(payload.data(), payload.size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const net::Message& m = got.ValueOrDie();
    EXPECT_EQ(m.type, sent.type);
    // Spot-check the fields the active type carries.
    switch (sent.type) {
      case net::MsgType::kHello:
      case net::MsgType::kWelcome:
        EXPECT_EQ(m.protocol_version, sent.protocol_version);
        EXPECT_EQ(m.text, sent.text);
        break;
      case net::MsgType::kPrepared:
        EXPECT_EQ(m.stmt_id, sent.stmt_id);
        EXPECT_EQ(m.plan_source, sent.plan_source);
        EXPECT_EQ(m.fingerprint, sent.fingerprint);
        break;
      case net::MsgType::kSchema:
        EXPECT_EQ(m.columns, sent.columns);
        break;
      case net::MsgType::kRowBlock:
        EXPECT_EQ(m.block.rows(), sent.block.rows());
        EXPECT_EQ(m.block.columns(), sent.block.columns());
        break;
      case net::MsgType::kDone:
        EXPECT_EQ(m.rows, sent.rows);
        EXPECT_EQ(m.elapsed_seconds, sent.elapsed_seconds);
        EXPECT_EQ(m.degraded, sent.degraded);
        EXPECT_EQ(m.plan_source, sent.plan_source);
        break;
      case net::MsgType::kError:
        EXPECT_EQ(m.status_code, sent.status_code);
        EXPECT_EQ(m.text, sent.text);
        break;
      default:
        break;
    }
  }
}

TEST(ProtocolFuzzTest, AssemblerReassemblesArbitrarySplits) {
  // TCP delivers bytes in arbitrary chunks: a frame dribbled in 1..7-byte
  // pieces (plus several frames coalesced into one append) must come out
  // identical to a single-shot delivery.
  Rng rng(0x5BA55ED);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<uint8_t> stream;
    std::vector<net::Message> sent;
    const size_t count = 1 + rng.Below(5);
    for (size_t i = 0; i < count; ++i) {
      sent.push_back(RandomProtocolMessage(&rng));
      const std::vector<uint8_t> frame = net::EncodeMessage(sent.back());
      stream.insert(stream.end(), frame.begin(), frame.end());
    }

    net::FrameAssembler assembler;
    std::vector<net::Message> got;
    size_t pos = 0;
    std::vector<uint8_t> payload;
    while (pos < stream.size()) {
      const size_t chunk = std::min(1 + rng.Below(7), stream.size() - pos);
      assembler.Append(stream.data() + pos, chunk);
      pos += chunk;
      for (;;) {
        auto next = assembler.Next(&payload);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next.ValueOrDie()) break;
        auto m = net::DecodeMessage(payload.data(), payload.size());
        ASSERT_TRUE(m.ok()) << m.status().ToString();
        got.push_back(m.MoveValueOrDie());
      }
    }
    ASSERT_EQ(got.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type) << i;
    }
  }
}

TEST(ProtocolFuzzTest, TruncatedMessagePayloadsAreRejected) {
  // Every strict prefix of a valid payload must decode to a clean error —
  // the field readers hit underrun, never out-of-bounds.
  Rng rng(0x7259C);
  for (int iter = 0; iter < 60; ++iter) {
    const net::Message m = RandomProtocolMessage(&rng);
    const std::vector<uint8_t> frame = net::EncodeMessage(m);
    // Unwrap the frame to fuzz the payload itself.
    const uint8_t* body = nullptr;
    size_t len = 0;
    ASSERT_TRUE(WireFrame::Check(frame, &body, &len).ok());
    for (size_t cut = 0; cut < len; ++cut) {
      auto got = net::DecodeMessage(body, cut);
      if (got.ok()) {
        // A prefix may only decode if it is itself a complete message of
        // the same type with zero trailing bytes — possible only when the
        // cut removed nothing semantically, which EncodeMessage never
        // produces. Flag it.
        ADD_FAILURE() << "prefix of " << cut << "/" << len << " decoded for "
                      << net::MsgTypeName(m.type);
      } else {
        EXPECT_FALSE(got.status().message().empty());
      }
    }
  }
}

TEST(ProtocolFuzzTest, BitFlippedAndForgedFramesNeverCrash) {
  Rng rng(0xF11B99);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> frame =
        net::EncodeMessage(RandomProtocolMessage(&rng));
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int mu = 0; mu < mutations; ++mu) {
      if (frame.empty()) break;
      switch (rng.Below(3)) {
        case 0:
          frame[rng.Below(frame.size())] ^=
              static_cast<uint8_t>(1u << rng.Below(8));
          break;
        case 1:
          frame.resize(rng.Below(frame.size() + 1));
          break;
        default:  // forge a header/length byte outright
          frame[rng.Below(std::min<size_t>(frame.size(), 8))] =
              static_cast<uint8_t>(rng.Next());
          break;
      }
    }
    net::FrameAssembler assembler;
    assembler.Append(frame.data(), frame.size());
    std::vector<uint8_t> payload;
    for (;;) {
      auto next = assembler.Next(&payload);
      if (!next.ok()) {
        EXPECT_FALSE(next.status().message().empty());
        break;  // stream is dead, as the server would treat it
      }
      if (!next.ValueOrDie()) break;  // incomplete — server reads on
      // CRC passed (flip may have hit padding-free payload+CRC pairs only
      // by forging both; decode must still be clean).
      auto m = net::DecodeMessage(payload.data(), payload.size());
      if (!m.ok()) {
        EXPECT_FALSE(m.status().message().empty());
      }
    }
  }
}

TEST(ProtocolFuzzTest, ForgedLengthHeaderIsRejectedBeforeBuffering) {
  // A forged 3 GiB length must be refused at the header, not buffered for.
  WireWriter w;
  w.PutU32(0xC0000000u);
  w.PutU32(0xDEADBEEFu);
  const std::vector<uint8_t> header = w.Take();
  net::FrameAssembler assembler;
  assembler.Append(header.data(), header.size());
  std::vector<uint8_t> payload;
  auto next = assembler.Next(&payload);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIOError);
  EXPECT_NE(next.status().message().find("exceeds limit"), std::string::npos);
}

TEST(ProtocolFuzzTest, GarbageStreamsDieCleanly) {
  // Pure noise fed as a stream: the assembler either waits for more bytes
  // or rejects; any frame that slips through (CRC collision — effectively
  // impossible but the code path must hold) decodes cleanly or errors.
  Rng rng(0x6A2BA6E);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> noise(rng.Below(512));
    for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.Next());
    net::FrameAssembler assembler;
    assembler.Append(noise.data(), noise.size());
    std::vector<uint8_t> payload;
    for (;;) {
      auto next = assembler.Next(&payload);
      if (!next.ok() || !next.ValueOrDie()) break;
      (void)net::DecodeMessage(payload.data(), payload.size());
    }
  }
}

}  // namespace
}  // namespace tango
