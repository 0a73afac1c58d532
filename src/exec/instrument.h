#ifndef TANGO_EXEC_INSTRUMENT_H_
#define TANGO_EXEC_INSTRUMENT_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "obs/trace.h"
#include "optimizer/phys.h"

namespace tango {
namespace exec {

/// The one record of an executed algorithm: its plan node, the SQL it sent
/// and its trace span (set by the plan compiler), and what the
/// InstrumentedCursor measured. The adaptation loop (the paper's
/// "performance feedback") and EXPLAIN ANALYZE read these records.
struct AlgorithmTiming {
  std::string label;
  std::vector<size_t> child_ids;  // ids of wrapped children
  /// Null for a cursor instrumented outside a compiled plan. Shared, so the
  /// plan lives as long as its records.
  optimizer::PhysPlanPtr plan;
  /// The SELECT a TRANSFER^M issued (empty for other operators).
  std::string sql;
  obs::SpanId span = obs::kNoSpan;  // kNoSpan when tracing is off

  /// Wall time inside Init and every NextBatch, children included.
  double inclusive_seconds = 0;
  uint64_t rows = 0;
  /// Non-empty RowBlocks this algorithm produced; rows/batches is the
  /// realized batch size.
  uint64_t batches = 0;
};

/// Sink shared by all instrumented cursors of one plan execution; a
/// compiled plan's records are in post order, so the root's is the last.
using TimingSink = std::vector<AlgorithmTiming>;

/// \brief Decorator measuring the wall time spent inside a cursor (Init and
/// all NextBatch calls) and the rows produced.
///
/// Recording is guarded by a per-cursor mutex, so a cursor that is driven
/// from more than one thread over its lifetime still accumulates exact
/// totals. Each sink entry is written only through its owning
/// InstrumentedCursor, so the per-cursor lock fully serializes access to
/// the entry.
class InstrumentedCursor : public Cursor {
 public:
  /// Registers a slot in `sink` and remembers its id.
  InstrumentedCursor(CursorPtr inner, std::string label, TimingSink* sink,
                     std::vector<size_t> child_ids)
      : inner_(std::move(inner)), sink_(sink) {
    AlgorithmTiming t;
    t.label = std::move(label);
    t.child_ids = std::move(child_ids);
    id_ = sink_->size();
    sink_->push_back(std::move(t));
  }

  /// Destroys the wrapped subtree before ending this operator's span, so
  /// the span's End timestamp covers the teardown of everything below it
  /// and every child span (ended by its own destructor) nests inside it.
  ~InstrumentedCursor() override {
    inner_.reset();
    if (trace_ != nullptr && span_begun_) trace_->End(span());
  }

  size_t id() const { return id_; }

  /// Attributes this cursor's lifetime to its record's span in `trace`
  /// (may be null): the span begins at the first Init call — stamping the
  /// initiating thread — and ends when the cursor is destroyed.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  Status Init() override {
    if (trace_ != nullptr && !span_begun_) {
      trace_->Begin(span());
      span_begun_ = true;
    }
    const auto start = Clock::now();
    Status s;
    {
      obs::ScopedSpan init_span(trace_, "init", "operator", span(),
                                static_cast<int64_t>(id_));
      s = inner_->Init();
    }
    Record(start);
    return s;
  }

  Result<size_t> NextBatch(RowBlock* block) override {
    const auto start = Clock::now();
    Result<size_t> r = inner_->NextBatch(block);
    const uint64_t n = r.ok() ? r.ValueOrDie() : 0;
    Record(start, n, n > 0 ? 1 : 0);
    return r;
  }

  const Schema& schema() const override { return inner_->schema(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// Written by the compiler before the plan runs; read-only afterwards.
  obs::SpanId span() const { return (*sink_)[id_].span; }

  void Record(Clock::time_point start, uint64_t produced_rows = 0,
              uint64_t produced_batches = 0) {
    const auto elapsed = Clock::now() - start;
    std::lock_guard<std::mutex> lock(mu_);
    (*sink_)[id_].inclusive_seconds +=
        std::chrono::duration<double>(elapsed).count();
    (*sink_)[id_].rows += produced_rows;
    (*sink_)[id_].batches += produced_batches;
  }

  CursorPtr inner_;
  TimingSink* sink_;
  size_t id_;
  obs::TraceRecorder* trace_ = nullptr;
  bool span_begun_ = false;
  std::mutex mu_;
};

/// Self time of algorithm `id` (inclusive minus children's inclusive).
///
/// Each inclusive time is a separately accumulated sum of clocked calls.
/// The executor makes every child call inside one of its parent's calls, so
/// the difference is non-negative up to rounding; the clamp keeps EXPLAIN
/// ANALYZE and the feedback loop from ever seeing a negative self time
/// should a child's intervals not nest in its parent's.
inline double SelfSeconds(const TimingSink& sink, size_t id) {
  double t = sink[id].inclusive_seconds;
  for (size_t c : sink[id].child_ids) t -= sink[c].inclusive_seconds;
  return t < 0 ? 0 : t;
}

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_INSTRUMENT_H_
