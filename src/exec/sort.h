#ifndef TANGO_EXEC_SORT_H_
#define TANGO_EXEC_SORT_H_

#include <memory>
#include <queue>
#include <vector>

#include "common/cursor.h"
#include "storage/run_file.h"

namespace tango {
namespace exec {

/// \brief SORT^M and the DBMS planner's sort: external merge sort.
///
/// Consumes the child in Init; runs that fit in the memory budget are sorted
/// with std::stable_sort, larger inputs spill sorted runs to tmpfiles and
/// k-way merge them — this is how the middleware "supports very large
/// relations" (the paper's future-work item, implemented here). Sorted rows
/// are moved out as they are emitted, so reading the result again takes
/// another Init, which sorts the child afresh.
class SortCursor : public Cursor {
 public:
  static constexpr size_t kDefaultMemoryBudgetBytes = 32 << 20;

  SortCursor(CursorPtr child, std::vector<SortKey> keys,
             size_t memory_budget_bytes = kDefaultMemoryBudgetBytes)
      : child_(std::move(child)),
        cmp_(std::move(keys)),
        budget_(memory_budget_bytes) {}

  Status Init() override;
  /// The in-memory path moves rows out of the sorted vector; the external
  /// path fills the block from the k-way merge. Run generation in Init
  /// drains the child via NextBatch either way.
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return child_->schema(); }

  /// Number of spilled runs (observability for tests; 0 = fully in memory).
  size_t spilled_runs() const { return runs_.size(); }

 private:
  Status SpillRun(std::vector<Tuple>* rows);

  CursorPtr child_;
  TupleComparator cmp_;
  size_t budget_;

  // In-memory path.
  std::vector<Tuple> rows_;
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
      // priority_queue is a max-heap; invert for ascending output. Ties
      // break on the run index: runs are spilled in input order, so this
      // makes the merge reproduce a stable sort of the whole input —
      // bit-identical to the in-memory path.
      const int c = cmp->Compare(a.tuple, b.tuple);
      if (c != 0) return c > 0;
      return a.run > b.run;
    }
  };
  std::unique_ptr<std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp>>
      heap_;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_SORT_H_
