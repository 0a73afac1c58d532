#ifndef TANGO_OBS_METRICS_H_
#define TANGO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tango {
namespace obs {

/// \brief Monotone event counter (thread-safe, relaxed atomics).
///
/// Instances are created by (and owned by) a MetricsRegistry; their
/// addresses are stable for the registry's lifetime, so hot paths hold a
/// `Counter*` and never touch the registry map again.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  Counter& operator++() {
    Increment();
    return *this;
  }
  uint64_t load() const { return value_.load(std::memory_order_relaxed); }

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous level (queue depths, in-flight queries).
///
/// A gauge registered with `expect_zero_at_exit` asserts a balance
/// invariant: every Increment must be matched by a Decrement before the
/// registry dies, otherwise the registry reports a leak warning (check.sh
/// fails the build on those).
class Gauge {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t load() const { return value_.load(std::memory_order_relaxed); }

  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-memory distribution: 64 base-2 log buckets over
/// [1e-9, ~9.2e9) plus exact count/sum/min/max.
///
/// Record is lock-free (CAS loops for the floating-point aggregates), so
/// every thread sharing a registry (server workers, for one) can record
/// concurrently. Quantiles come from the bucket upper bounds clamped into
/// [min, max] — they always bracket the recorded values and are monotone
/// in q.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value (0 when empty).
  double min() const;
  double max() const;
  double Mean() const;
  /// Value at quantile `q` in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  static size_t BucketOf(double value);
  static double BucketUpper(size_t bucket);

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
};

/// \brief Thread-safe name -> instrument registry; the middleware's
/// observability backbone.
///
/// Instruments are created on first lookup and live as long as the
/// registry; lookups after creation return the same address, so callers
/// cache pointers. `Global()` is the process-wide instance (long-lived
/// services share it); each Middleware defaults to a private registry so
/// tests and embedded uses see isolated numbers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  /// Reports leak warnings (see LeakWarnings) on stderr.
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  /// `expect_zero_at_exit` marks a balance invariant; once set for a name
  /// it sticks.
  Gauge& gauge(const std::string& name, bool expect_zero_at_exit = false);
  Histogram& histogram(const std::string& name);

  /// One line per instrument, sorted by name:
  ///   counter wire.statements 42
  ///   gauge server.queue_depth 0
  ///   histogram query.latency_seconds count=3 sum=... p50=... p95=... ...
  std::string DumpText() const;

  /// "metrics-registry leak: ..." messages for every expect-zero gauge that
  /// is not zero. Empty means all balance invariants hold.
  std::vector<std::string> LeakWarnings() const;

  /// Process-wide registry (never destroyed before exit).
  static MetricsRegistry& Global();

 private:
  struct GaugeEntry {
    std::unique_ptr<Gauge> gauge;
    bool expect_zero = false;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace tango

#endif  // TANGO_OBS_METRICS_H_
