#ifndef TANGO_EXEC_SORT_H_
#define TANGO_EXEC_SORT_H_

#include <cstdint>
#include <vector>

#include "common/cursor.h"
#include "storage/run_file.h"

namespace tango {
namespace exec {

/// \brief SORT^M and the DBMS planner's sort: external merge sort on
/// normalized keys.
///
/// Consumes the child in Init; runs that fit in the memory budget are sorted
/// in memory, larger inputs spill sorted runs to tmpfiles and k-way merge
/// them — this is how the middleware "supports very large relations" (the
/// paper's future-work item, implemented here). Sorted rows are moved out
/// as they are emitted, so reading the result again takes another Init,
/// which sorts the child afresh.
///
/// A run is the child's blocks as they came, and it is sorted without
/// comparing rows: each row's sort keys are computed once into 64-bit
/// words, one per key, that order as `Value::Compare` does (NULL lowest; a
/// descending key's word is complemented), followed by the row's input
/// position. `std::sort` orders those entries, and each row is then moved
/// once, in entry order, out of its block (Graefe, "Implementing Sorting in
/// Database Systems"). A column's encoding follows the values the run
/// holds: ints as offset binary, numbers that include a double as the
/// double's order-preserving bits, strings as their first 8 bytes, and a
/// column mixing numbers and strings as a kind rank above 62 bits of
/// either. Some words can tie on different values: string prefixes, mixed
/// words, the double image of an int beyond ±2^53, and NULL beside
/// INT64_MIN or the empty string. A tie at such a lossy word is settled on
/// the two rows' values in that column before the next word is compared.
/// The position breaks the remaining ties, so the order is the stable order
/// of `TupleComparator`: equal keys (1 and 1.0 among them) keep their input
/// order.
///
/// A NaN key sorts after every other number (+infinity included; before
/// them in a descending key), NaNs in input order, as `Value::Compare`
/// orders them. Where `Value::Compare` is no order, the sort still has
/// one, so `std::sort` always runs over a consistent comparison: an int and
/// a double that are equal in double precision but not exactly (2^53 + 1
/// and the double 2^53), which `Value::Compare` calls equal even though the
/// int 2^53 is less than 2^53 + 1, order by their exact values. The k-way
/// merge compares run heads with `TupleComparator`, so a spilled sort
/// returns the in-memory order wherever `Value::Compare` is an order.
class SortCursor : public Cursor {
 public:
  static constexpr size_t kDefaultMemoryBudgetBytes = 32 << 20;

  SortCursor(CursorPtr child, std::vector<SortKey> keys,
             size_t memory_budget_bytes = kDefaultMemoryBudgetBytes)
      : child_(std::move(child)),
        cmp_(std::move(keys)),
        budget_(memory_budget_bytes) {}

  Status Init() override;
  /// The in-memory path moves rows out in sorted order; the external path
  /// fills the block from the k-way merge. Run generation in Init drains
  /// the child via NextBatch either way.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return child_->schema(); }

  /// Number of spilled runs (observability for tests; 0 = fully in memory).
  size_t spilled_runs() const { return runs_.size(); }

 private:
  /// Rows [begin, end) of a block the child produced. The run being
  /// generated is a list of them, in input order; a row's position is its
  /// segment index << 32 | its row in the block.
  struct Segment {
    RowBlock block;
    size_t begin = 0;
    size_t end = 0;
  };

  /// The positions of the run's rows in sorted order.
  static std::vector<uint64_t> SortOrder(const std::vector<Segment>& run,
                                         const std::vector<SortKey>& keys);
  /// Sorts the run into a new run file. The last block's rows past the
  /// run's end stay, as the next run's first segment.
  Status SpillRun();

  CursorPtr child_;
  TupleComparator cmp_;
  size_t budget_;

  std::vector<Segment> run_;
  /// In-memory path: the run's positions in sorted order.
  std::vector<uint64_t> order_;
  size_t pos_ = 0;

  // External path: k-way merge over spilled runs.
  std::vector<storage::RunFile> runs_;
  struct HeapEntry {
    Tuple tuple;
    size_t run;
  };
  struct HeapCmp {
    const TupleComparator* cmp;
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      // A max-heap; invert for ascending output. Ties break on the run
      // index: runs are spilled in input order, so this makes the merge
      // reproduce a stable sort of the whole input — bit-identical to the
      // in-memory path.
      const int c = cmp->Compare(a.tuple, b.tuple);
      if (c != 0) return c > 0;
      return a.run > b.run;
    }
  };
  /// The run heads, a heap under HeapCmp (std::push_heap / pop_heap).
  std::vector<HeapEntry> heap_;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_SORT_H_
