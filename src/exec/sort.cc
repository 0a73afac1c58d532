#include "exec/sort.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace tango {
namespace exec {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
/// A position's low half is the row within its segment's block.
constexpr uint64_t kRowMask = 0xFFFFFFFF;
/// How far ahead of the emitted row the in-memory path loads.
constexpr size_t kPrefetchRows = 6;

/// How a key column's values become words (see the class comment).
enum class Encoding {
  kInt,     // ints and NULLs: offset binary
  kNumber,  // at least one double: DoubleWord of every number
  kString,  // strings and NULLs: the first 8 bytes
  kMixed,   // numbers and strings: a kind rank above 62 bits of either
};

struct KeyPlan {
  size_t column;
  bool ascending;
  Encoding encoding;
  /// Equal words do not imply equal values: a tie at this word is settled
  /// on the values.
  bool lossy;
};

uint64_t IntWord(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }

/// The double's bits, flipped so that unsigned order is numeric order.
/// -0.0 shares +0.0's word; every NaN maps to one word above +infinity.
uint64_t DoubleWord(double d) {
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  if (d == 0) d = 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// The first 8 bytes, big-endian and unsigned (as std::string compares
/// them), zero-padded.
uint64_t StringWord(const std::string& s) {
  uint64_t word = 0;
  const size_t n = std::min<size_t>(s.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    word |= uint64_t{static_cast<unsigned char>(s[i])} << (56 - 8 * i);
  }
  return word;
}

/// NULL is 0, below every other word of its column except INT64_MIN's and
/// the empty string's, which the lossy flag covers.
uint64_t Word(const Value& v, Encoding encoding) {
  if (v.is_null()) return 0;
  switch (encoding) {
    case Encoding::kInt:
      return IntWord(v.AsInt());
    case Encoding::kNumber:
      return DoubleWord(v.AsDouble());
    case Encoding::kString:
      return StringWord(v.AsString());
    case Encoding::kMixed:
      return v.is_string()
                 ? (uint64_t{2} << 62) | (StringWord(v.AsString()) >> 2)
                 : (uint64_t{1} << 62) | (DoubleWord(v.AsDouble()) >> 2);
  }
  return 0;
}

/// What one key column of a run holds, which decides its encoding.
struct KeyStats {
  bool nulls = false, ints = false, doubles = false, strings = false;
  bool beyond_2_53 = false, int64_min = false;

  void Observe(const Value& v) {
    constexpr int64_t kExactLimit = int64_t{1} << 53;
    if (v.is_int()) {
      const int64_t i = v.AsInt();
      ints = true;
      beyond_2_53 |= i > kExactLimit || i < -kExactLimit;
      int64_min |= i == std::numeric_limits<int64_t>::min();
    } else if (v.is_double()) {
      doubles = true;
    } else if (v.is_string()) {
      strings = true;
    } else {
      nulls = true;
    }
  }

  KeyPlan Plan(const SortKey& key) const {
    KeyPlan plan{key.column, key.ascending, Encoding::kInt, nulls && int64_min};
    if (strings) {
      plan.encoding = ints || doubles ? Encoding::kMixed : Encoding::kString;
      plan.lossy = true;
    } else if (doubles) {
      plan.encoding = Encoding::kNumber;
      plan.lossy = ints && beyond_2_53;
    }
    return plan;
  }
};

int ThreeWay(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// `Value::Compare`, made an order on every pair of numbers: two numbers
/// order by DoubleWord (NaN above +infinity), then exactly. Words are
/// images of this order, so it settles ties at a lossy word.
int CompareValues(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) return a.Compare(b);
  if (a.is_int() && b.is_int()) return ThreeWay(a.AsInt(), b.AsInt());
  const uint64_t wa = DoubleWord(a.AsDouble());
  const uint64_t wb = DoubleWord(b.AsDouble());
  if (wa != wb) return wa < wb ? -1 : 1;
  if (a.is_double() && b.is_double()) return 0;
  // An int and the double it rounds to: an integer, at most 2^63.
  const bool int_first = a.is_int();
  const int64_t i = int_first ? a.AsInt() : b.AsInt();
  const double d = int_first ? b.AsDouble() : a.AsDouble();
  const int c = d >= 0x1p63 ? -1 : ThreeWay(i, static_cast<int64_t>(d));
  return int_first ? c : -c;
}

/// One row's sort entry: the words of its first two keys, then its input
/// position. The words of any further keys sit in a side array.
struct Entry {
  uint64_t word[2];
  uint64_t pos;
};

}  // namespace

std::vector<uint64_t> SortCursor::SortOrder(const std::vector<Segment>& run,
                                            const std::vector<SortKey>& keys) {
  // where[i]: the position of the i-th input row.
  size_t n = 0;
  for (const Segment& s : run) n += s.end - s.begin;
  std::vector<uint64_t> where;
  where.reserve(n);
  for (size_t s = 0; s < run.size(); ++s) {
    for (size_t r = run[s].begin; r < run[s].end; ++r) {
      where.push_back(uint64_t{s} << 32 | r);
    }
  }
  const auto value = [&](uint64_t pos, size_t column) -> const Value& {
    return run[where[pos] >> 32].block.At(where[pos] & kRowMask, column);
  };

  std::vector<KeyPlan> plans;
  for (const SortKey& key : keys) {
    KeyStats stats;
    for (const Segment& s : run) {
      const std::vector<Value>& column = s.block.column(key.column);
      for (size_t r = s.begin; r < s.end; ++r) stats.Observe(column[r]);
    }
    plans.push_back(stats.Plan(key));
  }
  const size_t more_per_row = plans.size() > 2 ? plans.size() - 2 : 0;
  std::vector<Entry> entries(n);
  std::vector<uint64_t> more(n * more_per_row);
  for (size_t i = 0; i < n; ++i) entries[i] = {{0, 0}, i};
  for (size_t k = 0; k < plans.size(); ++k) {
    const KeyPlan& plan = plans[k];
    size_t i = 0;
    for (const Segment& s : run) {
      const std::vector<Value>& column = s.block.column(plan.column);
      for (size_t r = s.begin; r < s.end; ++r, ++i) {
        uint64_t w = Word(column[r], plan.encoding);
        if (!plan.ascending) w = ~w;
        (k < 2 ? entries[i].word[k] : more[i * more_per_row + k - 2]) = w;
      }
    }
  }

  // Most comparisons end at the first or the second word; the rest walk
  // every key.
  const auto tied = [&](const Entry& a, const Entry& b) {
    for (size_t k = 0; k < plans.size(); ++k) {
      const uint64_t wa = k < 2 ? a.word[k] : more[a.pos * more_per_row + k - 2];
      const uint64_t wb = k < 2 ? b.word[k] : more[b.pos * more_per_row + k - 2];
      if (wa != wb) return wa < wb;
      if (plans[k].lossy) {
        const size_t col = plans[k].column;
        const int c = CompareValues(value(a.pos, col), value(b.pos, col));
        if (c != 0) return plans[k].ascending ? c < 0 : c > 0;
      }
    }
    return a.pos < b.pos;
  };
  const bool first_exact = plans.empty() || !plans[0].lossy;
  std::sort(entries.begin(), entries.end(),
            [&](const Entry& a, const Entry& b) {
              if (a.word[0] != b.word[0]) return a.word[0] < b.word[0];
              if (first_exact && a.word[1] != b.word[1]) {
                return a.word[1] < b.word[1];
              }
              return tied(a, b);
            });

  std::vector<uint64_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = where[entries[i].pos];
  return order;
}

Status SortCursor::SpillRun() {
  storage::RunFile run;
  TANGO_RETURN_IF_ERROR(run.Open());
  Tuple row;
  for (const uint64_t pos : SortOrder(run_, cmp_.keys())) {
    run_[pos >> 32].block.MoveRowTo(pos & kRowMask, &row);
    TANGO_RETURN_IF_ERROR(run.Append(row));
  }
  runs_.push_back(std::move(run));
  Segment last = std::move(run_.back());
  last.begin = last.end;
  run_.clear();
  run_.push_back(std::move(last));
  return Status::OK();
}

Status SortCursor::Init() {
  TANGO_RETURN_IF_ERROR(child_->Init());
  run_.clear();
  order_.clear();
  runs_.clear();
  heap_.clear();
  pos_ = 0;

  // Run generation keeps the child's blocks as they come and charges each
  // row what TupleByteSize would (a header plus each value's ByteSize), so
  // every run boundary falls after the row that passes the budget.
  const size_t header = TupleByteSize(Tuple{});
  size_t bytes = 0;
  RowBlock block;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(const size_t n, child_->NextBatch(&block));
    if (n == 0) break;
    const size_t arity = block.columns();
    run_.push_back({std::move(block), 0, 0});
    // The next block gets this one's shape and room for as many rows, so
    // the child's fill does not regrow its columns.
    block = RowBlock(run_.back().block.capacity());
    block.Reset(arity);
    for (size_t c = 0; c < arity; ++c) block.column(c).reserve(n);
    for (size_t i = 0; i < n; ++i) {
      bytes += header;
      for (size_t c = 0; c < arity; ++c) {
        bytes += run_.back().block.At(i, c).ByteSize();
      }
      run_.back().end = i + 1;
      if (bytes > budget_) {
        TANGO_RETURN_IF_ERROR(SpillRun());
        bytes = 0;
      }
    }
  }

  if (runs_.empty()) {
    // Everything fit: sort in memory.
    order_ = SortOrder(run_, cmp_.keys());
    return Status::OK();
  }

  // Spill the tail run and set up the k-way merge.
  if (run_.size() > 1 || run_.back().begin < run_.back().end) {
    TANGO_RETURN_IF_ERROR(SpillRun());
  }
  run_.clear();
  const HeapCmp less{&cmp_};
  for (size_t i = 0; i < runs_.size(); ++i) {
    TANGO_RETURN_IF_ERROR(runs_[i].Rewind());
    Tuple head;
    TANGO_ASSIGN_OR_RETURN(bool more, runs_[i].Next(&head));
    if (!more) continue;
    heap_.push_back({std::move(head), i});
    std::push_heap(heap_.begin(), heap_.end(), less);
  }
  return Status::OK();
}

Result<size_t> SortCursor::NextBatch(RowBlock* block) {
  block->Clear();
  if (runs_.empty()) {
    if (pos_ == order_.size()) return 0;
    const size_t arity = run_.front().block.columns();
    if (block->columns() != arity) block->Reset(arity);
    size_t rows = 0;
    for (; pos_ < order_.size() && rows < block->capacity(); ++pos_, ++rows) {
      // Rows come in random order: start loading one a few rows ahead.
      if (pos_ + kPrefetchRows < order_.size()) {
        const uint64_t ahead = order_[pos_ + kPrefetchRows];
        const RowBlock& next = run_[ahead >> 32].block;
        for (size_t c = 0; c < arity; ++c) {
          __builtin_prefetch(&next.At(ahead & kRowMask, c));
        }
      }
      RowBlock& from = run_[order_[pos_] >> 32].block;
      const size_t row = order_[pos_] & kRowMask;
      for (size_t c = 0; c < arity; ++c) {
        block->column(c).push_back(std::move(from.At(row, c)));
      }
    }
    block->set_rows(rows);
    return rows;
  }
  // Merge path: emit the smallest run head, then refill from its run. The
  // head is moved out of the heap, never copied.
  const HeapCmp less{&cmp_};
  while (!heap_.empty() && !block->full()) {
    std::pop_heap(heap_.begin(), heap_.end(), less);
    HeapEntry& top = heap_.back();
    block->AppendRow(std::move(top.tuple));
    TANGO_ASSIGN_OR_RETURN(bool more, runs_[top.run].Next(&top.tuple));
    if (more) {
      std::push_heap(heap_.begin(), heap_.end(), less);
    } else {
      heap_.pop_back();
    }
  }
  return block->rows();
}

}  // namespace exec
}  // namespace tango
