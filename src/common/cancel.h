#ifndef TANGO_COMMON_CANCEL_H_
#define TANGO_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

#include "common/status.h"

namespace tango {

/// \brief Query-wide deadline + cancellation token.
///
/// One QueryControl is created per query execution and threaded through the
/// cursor tree (transfers, the remote prefetch batches and retry backoff
/// poll it). Cancel and SetDeadline may be called from another thread —
/// the server's poll thread on a CANCEL frame, a test's canceller — while
/// the query thread polls, hence the atomics. Both signals are sticky:
/// once expired or cancelled, every subsequent Check() fails, so the query
/// unwinds at its next poll — no operator keeps issuing statements after
/// the query is dead.
class QueryControl {
 public:
  using Clock = std::chrono::steady_clock;

  /// Arms the deadline `seconds` from now; <= 0 disarms it.
  void SetDeadline(double seconds) {
    if (seconds <= 0) {
      deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
      return;
    }
    const int64_t now = Clock::now().time_since_epoch().count();
    deadline_ns_.store(
        now + static_cast<int64_t>(seconds * 1e9), std::memory_order_relaxed);
  }

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  bool expired() const {
    const int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    return d != kNoDeadline && Clock::now().time_since_epoch().count() >= d;
  }

  /// OK while the query may keep running; kAborted after Cancel(),
  /// kTimeout after the deadline.
  Status Check() const {
    if (cancelled()) return Status::Aborted("query cancelled");
    if (expired()) return Status::Timeout("query deadline exceeded");
    return Status::OK();
  }

  /// Seconds until the deadline (infinity when none armed); <= 0 when past.
  double RemainingSeconds() const {
    const int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == kNoDeadline) return std::numeric_limits<double>::infinity();
    return static_cast<double>(d - Clock::now().time_since_epoch().count()) *
           1e-9;
  }

 private:
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

using QueryControlPtr = std::shared_ptr<QueryControl>;

/// Null-safe control poll for code holding an optional token.
inline Status CheckControl(const QueryControlPtr& control) {
  return control == nullptr ? Status::OK() : control->Check();
}

}  // namespace tango

#endif  // TANGO_COMMON_CANCEL_H_
