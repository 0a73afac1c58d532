#ifndef TANGO_BENCH_BENCH_UTIL_H_
#define TANGO_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cost/calibrate.h"
#include "optimizer/phys.h"
#include "tango/middleware.h"
#include "workload/uis.h"

namespace tango {
namespace bench {

/// Scale factor for the experiments: 1.0 = the paper's sizes (83,857-row
/// POSITION, 49,972-row EMPLOYEE). Override with TANGO_BENCH_SCALE.
inline double Scale() {
  const char* env = std::getenv("TANGO_BENCH_SCALE");
  if (env != nullptr) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 1.0;
}

inline size_t Scaled(size_t n) {
  return static_cast<size_t>(static_cast<double>(n) * Scale());
}

/// Hand-built physical plan node (benches pin the exact paper plans).
inline optimizer::PhysPlanPtr Node(optimizer::Algorithm alg, algebra::OpPtr op,
                                   std::vector<optimizer::PhysPlanPtr> children) {
  auto node = std::make_shared<optimizer::PhysPlan>();
  node->algorithm = alg;
  node->op = std::move(op);
  node->site = optimizer::IsDbmsAlgorithm(node->algorithm)
                   ? optimizer::Site::kDbms
                   : optimizer::Site::kMiddleware;
  node->children = std::move(children);
  return node;
}

/// Synthetic sort / transfer operators for enforcer-style nodes.
inline algebra::OpPtr SortOpOf(const Schema& schema,
                               std::vector<algebra::SortSpec> keys) {
  auto op = std::make_shared<algebra::Op>();
  op->kind = algebra::OpKind::kSort;
  op->schema = schema;
  op->sort_keys = std::move(keys);
  return op;
}

inline algebra::OpPtr TransferOpOf(algebra::OpKind kind, const Schema& schema) {
  auto op = std::make_shared<algebra::Op>();
  op->kind = kind;
  op->schema = schema;
  return op;
}

/// Executes a plan and returns (seconds, rows); aborts on error.
inline std::pair<double, size_t> Run(Middleware* mw,
                                     const optimizer::PhysPlanPtr& plan) {
  auto result = mw->Execute(plan);
  if (!result.ok()) {
    std::fprintf(stderr, "plan execution failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return {result.ValueOrDie().elapsed_seconds, result.ValueOrDie().rows.size()};
}

/// Best-of-N timing for close races (scheduler noise otherwise dominates
/// sub-second measurements).
inline std::pair<double, size_t> RunBest(Middleware* mw,
                                         const optimizer::PhysPlanPtr& plan,
                                         int reps = 2) {
  double best = 1e100;
  size_t rows = 0;
  for (int i = 0; i < reps; ++i) {
    const auto [t, n] = Run(mw, plan);
    best = std::min(best, t);
    rows = n;
  }
  return {best, rows};
}

/// Calibrates the middleware's cost factors against the live substrate
/// (the paper's §5.1 procedure) and prints the fitted factors.
inline void CalibrateOrDie(Middleware* mw) {
  cost::Calibrator calibrator(&mw->connection());
  auto report = calibrator.Calibrate(&mw->cost_model());
  if (!report.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  std::printf("%s\n\n", report.ValueOrDie().ToString().c_str());
}

/// Order-insensitive checksum so plans can be cross-checked.
inline uint64_t Checksum(const std::vector<Tuple>& rows) {
  uint64_t sum = 0;
  for (const Tuple& t : rows) {
    uint64_t h = 14695981039346656037ull;
    for (const Value& v : t) h = h * 1099511628211ull + v.Hash();
    sum += h;
  }
  return sum;
}

/// Snapshot-equivalence checksum for temporal results: the non-period
/// values hashed and weighted by the period's overlap with a window.
/// Plans that split constant periods differently (but agree at every time
/// point inside the window) compare equal under this sum.
inline uint64_t SnapshotChecksum(const std::vector<Tuple>& rows, size_t t1,
                                 size_t t2, int64_t w_start, int64_t w_end) {
  uint64_t sum = 0;
  for (const Tuple& t : rows) {
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < t.size(); ++i) {
      if (i == t1 || i == t2) continue;
      h = h * 1099511628211ull + t[i].Hash();
    }
    const int64_t lo = std::max(w_start, t[t1].AsInt());
    const int64_t hi = std::min(w_end, t[t2].AsInt());
    if (hi > lo) sum += h * static_cast<uint64_t>(hi - lo);
  }
  return sum;
}

/// Simple PASS/FAIL shape check reporting.
class ShapeChecks {
 public:
  void Check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures_;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

/// The ledger stamp of a bench's JSON summary: the CMake build type, the
/// host's hardware threads, and the commit the build tree was configured
/// at (`git describe --always --dirty`; a ledger regenerated before its
/// change is committed reads `<parent>-dirty`). Both names come from
/// bench/CMakeLists.txt. One JSON line, `"key": value` pairs and a
/// trailing comma.
inline std::string BuildStampJson() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"build_type\": \"%s\", \"host_threads\": %u, "
                "\"commit\": \"%s\",\n",
                TANGO_BUILD_TYPE, std::thread::hardware_concurrency(),
                TANGO_GIT_COMMIT);
  return buf;
}

}  // namespace bench
}  // namespace tango

#endif  // TANGO_BENCH_BENCH_UTIL_H_
