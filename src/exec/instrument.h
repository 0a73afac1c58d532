#ifndef TANGO_EXEC_INSTRUMENT_H_
#define TANGO_EXEC_INSTRUMENT_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "obs/trace.h"

namespace tango {
namespace exec {

/// Inclusive wall-clock timing of one algorithm in an executed plan; the
/// execution engine subtracts child times to obtain self times, which feed
/// the cost model's adaptation loop (the paper's "performance feedback").
struct AlgorithmTiming {
  std::string label;
  double inclusive_seconds = 0;
  uint64_t rows = 0;
  /// Non-empty RowBlocks this algorithm produced; rows/batches is the
  /// realized batch size.
  uint64_t batches = 0;
  std::vector<size_t> child_ids;  // ids of wrapped children
};

/// Sink shared by all instrumented cursors of one plan execution.
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
    if (trace_ != nullptr && span_begun_) trace_->End(span_);
  }

  size_t id() const { return id_; }

  /// Attributes this cursor's lifetime to `span` in `trace` (may be null):
  /// the span begins at the first Init call — stamping the initiating
  /// thread — and ends when the cursor is destroyed.
  void set_trace(obs::TraceRecorder* trace, obs::SpanId span) {
    trace_ = trace;
    span_ = span;
  }

  Status Init() override {
    if (trace_ != nullptr && !span_begun_) {
      trace_->Begin(span_);
      span_begun_ = true;
    }
    const auto start = Clock::now();
    Status s;
    {
      obs::ScopedSpan init_span(trace_, "init", "operator", span_,
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
  obs::SpanId span_ = obs::kNoSpan;
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
