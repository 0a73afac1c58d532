#ifndef TANGO_COMMON_RETRY_H_
#define TANGO_COMMON_RETRY_H_

#include <cstdint>
#include <memory>

#include "common/cancel.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace tango {

/// \brief Capped exponential backoff with seeded jitter and an attempt
/// budget — the recovery discipline for transient wire/DBMS failures.
///
/// Only idempotent work is retried, and each operator knows how to make its
/// retry idempotent: a TRANSFER^M SELECT is re-issued in place (the engine
/// is deterministic, so already-delivered rows are skipped), a TRANSFER^D
/// drops and recreates its temp table before reloading, and temp-table
/// drops are naturally idempotent.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retries.
  int max_attempts = 4;
  double initial_backoff_seconds = 200e-6;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 20e-3;
  /// Uniform jitter fraction applied to each delay (+/- jitter/2), seeded
  /// so fault-matrix runs are reproducible.
  double jitter = 0.5;
  uint64_t seed = 0x7e77e7;
};

/// Codes worth re-attempting. kTimeout is transient but NOT retryable: the
/// deadline that produced it governs the whole query, so re-running the
/// statement cannot help.
inline bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kAborted;
}

/// \brief Per-operation retry loop state (attempt counter + backoff RNG).
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy, uint64_t salt = 0);

  /// True while the budget allows another attempt for this failure.
  bool ShouldRetry(const Status& last) const;

  /// Sleeps the next backoff delay. Fails fast — without sleeping the full
  /// delay — when `control` is cancelled or the remaining deadline is
  /// shorter than the delay (kTimeout), so a dying query never sits in
  /// backoff.
  Status Backoff(const QueryControlPtr& control);

  int attempts_used() const { return attempt_; }

 private:
  RetryPolicy policy_;
  int attempt_ = 1;  // the first attempt has been made when Backoff is hit
  double next_delay_;
  uint64_t rng_state_;
};

/// \brief Wire/recovery observability: how often the failure machinery ran.
///
/// One instance lives in the Middleware and is shared (by pointer) with the
/// transfer operators and the temp-table janitor; the fields are metric
/// counters (atomic) because the registry may be shared by middleware
/// instances running queries on different threads (Config::metrics, the
/// server's worker pool). The counters live in an obs::MetricsRegistry
/// under the "retry.*" / "janitor.*" / "recovery.*" names, so they show up
/// in the registry's text dump alongside the wire and transfer series; a
/// default-constructed instance owns a private registry (unit tests).
class RecoveryCounters {
 private:
  // Declared (and therefore initialized) before the references below.
  std::shared_ptr<obs::MetricsRegistry> owned_;
  obs::MetricsRegistry& registry_;

 public:
  /// Binds the counters in `registry`; null = own a private registry.
  explicit RecoveryCounters(obs::MetricsRegistry* registry = nullptr)
      : owned_(registry == nullptr ? std::make_shared<obs::MetricsRegistry>()
                                   : nullptr),
        registry_(registry != nullptr ? *registry : *owned_),
        tm_retries(registry_.counter("retry.tm")),
        td_retries(registry_.counter("retry.td")),
        rows_skipped(registry_.counter("retry.rows_skipped")),
        drop_retries(registry_.counter("retry.drop")),
        temp_tables_dropped(registry_.counter("janitor.temp_tables_dropped")),
        temp_table_drop_failures(registry_.counter("janitor.drop_failures")),
        temp_tables_leaked(registry_.counter("janitor.temp_tables_leaked")),
        orphans_swept(registry_.counter("janitor.orphans_swept")),
        wal_segments_reclaimed(
            registry_.counter("janitor.wal_segments_reclaimed")),
        downgrades(registry_.counter("recovery.downgrades")) {}

  RecoveryCounters(const RecoveryCounters&) = delete;
  RecoveryCounters& operator=(const RecoveryCounters&) = delete;

  obs::Counter& tm_retries;
  obs::Counter& td_retries;
  /// Rows re-fetched and discarded to reposition a re-issued TRANSFER^M
  /// past what was already delivered downstream (restart-and-skip cost).
  obs::Counter& rows_skipped;
  obs::Counter& drop_retries;
  obs::Counter& temp_tables_dropped;
  obs::Counter& temp_table_drop_failures;
  obs::Counter& temp_tables_leaked;
  obs::Counter& orphans_swept;
  /// WAL segment/snapshot files reclaimed by the janitor's durable-garbage
  /// sweep (segments wholly covered by the latest checkpoint snapshot).
  obs::Counter& wal_segments_reclaimed;
  obs::Counter& downgrades;

  obs::MetricsRegistry& registry() { return registry_; }

  uint64_t transfer_retries() const {
    return tm_retries.load() + td_retries.load();
  }
};

}  // namespace tango

#endif  // TANGO_COMMON_RETRY_H_
