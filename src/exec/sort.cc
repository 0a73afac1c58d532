#include "exec/sort.h"

#include <algorithm>

namespace tango {
namespace exec {

Status SortCursor::SpillRun(std::vector<Tuple>* rows) {
  std::stable_sort(rows->begin(), rows->end(), cmp_);
  storage::RunFile run;
  TANGO_RETURN_IF_ERROR(run.Open());
  for (const Tuple& t : *rows) {
    TANGO_RETURN_IF_ERROR(run.Append(t));
  }
  runs_.push_back(std::move(run));
  rows->clear();
  return Status::OK();
}

Status SortCursor::Init() {
  TANGO_RETURN_IF_ERROR(child_->Init());
  rows_.clear();
  runs_.clear();
  heap_.reset();
  pos_ = 0;

  // Run generation pulls the child in whole blocks; the per-row budget
  // accounting (and therefore where each run boundary falls) is unchanged.
  size_t bytes = 0;
  RowBlock block;
  Tuple t;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(&block));
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      block.MoveRowTo(i, &t);
      bytes += TupleByteSize(t);
      rows_.push_back(std::move(t));
      if (bytes > budget_) {
        TANGO_RETURN_IF_ERROR(SpillRun(&rows_));
        bytes = 0;
      }
    }
  }

  if (runs_.empty()) {
    // Everything fit: plain in-memory sort.
    std::stable_sort(rows_.begin(), rows_.end(), cmp_);
    return Status::OK();
  }

  // Spill the tail run and set up the k-way merge.
  if (!rows_.empty()) {
    TANGO_RETURN_IF_ERROR(SpillRun(&rows_));
  }
  heap_ = std::make_unique<
      std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp>>(
      HeapCmp{&cmp_});
  for (size_t i = 0; i < runs_.size(); ++i) {
    TANGO_RETURN_IF_ERROR(runs_[i].Rewind());
    Tuple head;
    TANGO_ASSIGN_OR_RETURN(bool more, runs_[i].Next(&head));
    if (more) heap_->push({std::move(head), i});
  }
  return Status::OK();
}

Result<size_t> SortCursor::NextBatch(RowBlock* block) {
  block->Clear();
  if (heap_ == nullptr) {
    while (pos_ < rows_.size() && !block->full()) {
      block->AppendRow(std::move(rows_[pos_++]));
    }
    return block->rows();
  }
  // Merge path: emit the smallest run head, then refill from its run.
  while (!heap_->empty() && !block->full()) {
    HeapEntry top = heap_->top();
    heap_->pop();
    block->AppendRow(std::move(top.tuple));
    Tuple next;
    TANGO_ASSIGN_OR_RETURN(bool more, runs_[top.run].Next(&next));
    if (more) heap_->push({std::move(next), top.run});
  }
  return block->rows();
}

}  // namespace exec
}  // namespace tango
