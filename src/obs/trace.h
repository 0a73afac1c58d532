#ifndef TANGO_OBS_TRACE_H_
#define TANGO_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tango {
namespace obs {

/// 1-based handle into a TraceRecorder; 0 means "no span" everywhere, so a
/// default-constructed id is always safe to End or parent to.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// \brief One timed interval of a query's life.
///
/// Spans form a tree via `parent`; `plan_node` attributes operator spans to
/// their timing-sink entry (and thereby the physical plan node), and
/// `thread_id` is a small per-recorder id (0, 1, 2, ...) identifying which
/// thread ran the interval — each thread that records (the server's poll
/// thread and workers, a query's executing thread) gets its own id.
struct Span {
  std::string name;
  std::string category;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  int64_t plan_node = -1;
  uint64_t thread_id = 0;
  /// Microseconds since the recorder's epoch; -1 = never begun / still open.
  int64_t start_us = -1;
  int64_t end_us = -1;

  bool completed() const { return start_us >= 0 && end_us >= start_us; }
};

/// \brief Lightweight span recorder for one or more query executions.
///
/// Allocation is separate from Begin because the plan compiler allocates
/// the operator spans (and fixes up their parent links) before anything
/// runs; Begin stamps the start time and the calling thread when the
/// operator's Init actually fires. All methods are thread-safe (one
/// recorder may serve many threads); ids stay valid for the recorder's
/// lifetime.
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(Clock::now()) {}

  /// Creates a span without timing it yet.
  SpanId Allocate(std::string name, std::string category,
                  SpanId parent = kNoSpan, int64_t plan_node = -1);
  /// Stamps the start time + thread id (first call wins; kNoSpan ignored).
  void Begin(SpanId id);
  /// Stamps the end time (first call wins; kNoSpan and un-begun ignored).
  void End(SpanId id);
  /// Allocate + Begin.
  SpanId StartSpan(std::string name, std::string category,
                   SpanId parent = kNoSpan, int64_t plan_node = -1);
  void SetParent(SpanId id, SpanId parent);

  std::vector<Span> Snapshot() const;

  /// Chrome trace_event JSON (the chrome://tracing / Perfetto "JSON Array
  /// Format" with complete "X" events); open spans are omitted.
  std::string ToChromeJson() const;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 epoch_)
        .count();
  }
  /// Small stable id of the calling thread; requires mu_ held.
  uint64_t ThreadIdLocked();

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, uint64_t> thread_ids_;
};

/// \brief RAII Begin/End; null-recorder safe (all no-ops), so call sites
/// can trace unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name, const char* category,
             SpanId parent = kNoSpan, int64_t plan_node = -1)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      id_ = recorder_->StartSpan(name, category, parent, plan_node);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// kNoSpan when tracing is off — safe to pass as a parent.
  SpanId id() const { return id_; }

 private:
  TraceRecorder* recorder_;
  SpanId id_ = kNoSpan;
};

}  // namespace obs
}  // namespace tango

#endif  // TANGO_OBS_TRACE_H_
