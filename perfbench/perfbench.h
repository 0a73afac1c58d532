// Shared pieces of the repository benchmark (perfbench): command-line
// options, the per-run report, the metric catalogue and small helpers.
// Every workload drives the system only through its public APIs
// (net::PollingServer/Client, Middleware, dbms::Connection,
// workload::WriterGenerator, obs::MetricsRegistry/TraceRecorder) and times
// the calls into each module from outside.

#ifndef TANGO_PERFBENCH_PERFBENCH_H_
#define TANGO_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "net/polling_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/phys.h"
#include "tango/middleware.h"

namespace tango {
namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Nominal measured time; op counts are sized from it (see README.md).
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Table-size and op-count factor; below 1 only for the smoke test.
  double scale = 1.0;
};

/// Scratch directory for WAL segments and trace files, relative to the
/// checkout root the benchmark runs from.
inline constexpr char kWorkDir[] = ".bench_build/work";

/// Set-ups per run: an untraced run reports their median as setup_s and
/// measures on the last; a traced run sets up once.
inline int SetupCount(const Options& options) { return options.trace ? 1 : 3; }

/// What one run measured and checked.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable lines (sizes, plan signatures, counts).
  std::vector<std::string> notes;
  /// The end-to-end metrics under their descriptive names (q1_ms, p99_ms,
  /// txn_p50_ms, ...), for the human-readable listing.
  struct NamedMetric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<NamedMetric> named;
  /// Values of the catalogue names below; a name the workload does not
  /// exercise stays absent and prints as 0.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  /// Records a failed output check: the run is no longer correct, and the
  /// check counts against the attempts in error_rate.
  void Fail(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
  void Named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
};

struct MetricSpec {
  std::string name;
  std::string unit;
};
/// End-to-end metrics every workload reports (BENCHMARK.json order).
const std::vector<MetricSpec>& EndToEndCatalogue();
/// Per-layer metrics every traced run reports.
const std::vector<MetricSpec>& PerLayerCatalogue();

Report RunPaperQueries(const Options& options);
Report RunServiceChurn(const Options& options);

// ---- helpers -------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Hard limit on a run's measured ops: with op counts fixed per seed, a
/// much slower program would otherwise overrun the run's time budget.
inline Clock::duration TimeCap(const Options& options) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(2 * options.seconds));
}

/// Derives an independent 64-bit stream seed from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Order-insensitive checksum of a result (sum of per-row FNV hashes).
uint64_t Checksum(const std::vector<Tuple>& rows);

/// Snapshot-equivalence checksum of a temporal result: each row's
/// non-period values hashed and weighted by its period's length (columns
/// `t1`, `t2`). Results that agree at every time point compare equal, however
/// a plan splits constant periods. Kept here, with its own value hash,
/// rather than shared with bench/bench_util.h: the pinned paper-query
/// constants must not move when code outside perfbench/ changes.
uint64_t SnapshotChecksum(const std::vector<Tuple>& rows, size_t t1,
                          size_t t2);

/// High-water resident set size of this process, MB.
double PeakRssMb();

/// Times `fn` and, when `trace` is set, records it as a span named `name`
/// under `parent`. Returns the elapsed seconds.
template <typename Fn>
double Timed(obs::TraceRecorder* trace, const char* name, obs::SpanId parent,
             Fn&& fn) {
  obs::ScopedSpan span(trace, name, "perfbench", parent);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// The host-speed yardstick. The shared host's speed drifts in phases of
/// minutes, and memory-heavy work (the workloads, and this kernel) slows
/// far more than a CPU loop does. Each run therefore times a fixed,
/// memory-heavy reference computation -- rows of variant cells built,
/// sorted and hash-joined, standard library only, no code under test --
/// between its measured ops, and scales every end-to-end time to a host on
/// which that computation takes kReferenceSeconds (README.md, Steadiness).
///
/// The kernel runs in a child process forked before any thread exists: its
/// heap is not the program's, and its memory stays out of the run's peak
/// RSS. The destructor closes the socket and waits for the child to exit.
class HostSpeed {
 public:
  static constexpr double kReferenceSeconds = 0.1;

  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs the kernel once while the caller waits and records its time.
  void Sample();
  /// kReferenceSeconds over the median sample (1 when there is none):
  /// times as measured are multiplied by it.
  double Factor() const;
  /// Listing line: the samples and the factor.
  std::string Note() const;

 private:
  int child_ = -1;
  int fd_ = -1;  // socket to the child
  std::vector<double> samples_;
};

/// The server every workload runs: the defaults (4 workers,
/// DefaultWorkerConfig, so cost feedback is off) with wire pacing off.
net::ServerConfig BenchServerConfig();
/// An in-process middleware configured like one of the server's workers.
Middleware::Config InProcessConfig();

/// Compact plan signature: algorithm names in pre-order, children in
/// parentheses, e.g. "SORT^M(TAGGR^M(TRANSFER^M(SCAN^D)))".
std::string PlanSignature(const optimizer::PhysPlan& plan);

/// The server-side counters the per-layer metrics difference over a phase.
struct ServerCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t busy = 0;
  uint64_t requests = 0;
  double request_seconds = 0;

  static ServerCounters Read(obs::MetricsRegistry& metrics);
  ServerCounters operator-(const ServerCounters& before) const;
  /// Fills adapt.hit_ratio, server.busy_rejections and
  /// net.server_request_ms from this phase delta.
  void Export(Report* report) const;
};

/// Writes the recorder's spans as Chrome trace JSON under the work dir and
/// returns the path (empty on failure).
std::string WriteTrace(const Options& options,
                       const obs::TraceRecorder& trace);

}  // namespace perfbench
}  // namespace tango

#endif  // TANGO_PERFBENCH_PERFBENCH_H_
