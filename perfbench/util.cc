#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <unordered_map>
#include <variant>

#include "perfbench.h"

namespace tango {
namespace perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  ++failed;
  notes.push_back("CHECK FAILED: " + what);
}

const std::vector<MetricSpec>& EndToEndCatalogue() {
  // lat1..lat4 hold each workload's four latency figures (README.md maps
  // them: Q1..Q4 medians; lookup p50/mean and transaction p50/mean).
  static const std::vector<MetricSpec> kSpecs = {
      {"lat1_ms", "ms"}, {"lat2_ms", "ms"}, {"lat3_ms", "ms"},
      {"lat4_ms", "ms"}, {"qps", "1/s"},    {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerCatalogue() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> specs;
    const std::pair<const char*, const char*> kPerQuery[] = {
        {"net.ship_ms.q", "ms"},         {"tango.exec_ms.q", "ms"},
        {"exec.transfer_m_ms.q", "ms"},  {"exec.operators_ms.q", "ms"},
        {"dbms.sql_ms.q", "ms"},         {"dbms.bytes_to_client.q", "bytes"},
        {"optimizer.prepare_ms.q", "ms"},
    };
    for (const auto& [prefix, unit] : kPerQuery) {
      for (int q = 1; q <= 4; ++q) {
        specs.push_back({prefix + std::to_string(q), unit});
      }
    }
    const MetricSpec kService[] = {
        {"net.client_ms", "ms"},
        {"net.server_request_ms", "ms"},
        {"net.wait_ms", "ms"},
        {"dbms.lookup_sql_ms", "ms"},
        {"dbms.latch_wait_ms", "ms"},
        {"adapt.prepare_hit_us", "us"},
        {"adapt.hit_ratio", "ratio"},
        {"server.busy_rejections", "count"},
        {"wal.syncs_per_commit", "syncs/commit"},
        {"wal.appends_per_txn", "appends/txn"},
        {"wal.bytes_per_txn", "bytes/txn"},
        {"txn.lock_conflicts", "count"},
        {"txn.rollbacks", "count"},
        {"setup.load_s", "s"},
        {"setup.warm_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    specs.insert(specs.end(), std::begin(kService), std::end(kService));
    return specs;
  }();
  return kSpecs;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t Checksum(const std::vector<Tuple>& rows) {
  uint64_t sum = 0;
  for (const Tuple& row : rows) {
    uint64_t h = 14695981039346656037ull;
    for (const Value& v : row) h = (h ^ v.Hash()) * 1099511628211ull;
    sum += h;
  }
  return sum;
}

namespace {

/// FNV-1a of one value. Equal values hash alike, an int and an equal double
/// too, and the hash does not depend on Value::Hash.
uint64_t HashValue(const Value& v) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  const char tag = v.is_null() ? 'z' : v.is_string() ? 's' : 'n';
  mix(&tag, 1);
  if (v.is_string()) {
    mix(v.AsString().data(), v.AsString().size());
  } else if (v.is_numeric()) {
    const double d = v.AsDouble();
    if (v.is_int() || (d == std::floor(d) && std::fabs(d) < 9e18)) {
      const int64_t i = v.is_int() ? v.AsInt() : static_cast<int64_t>(d);
      mix(&i, sizeof(i));
    } else {
      mix(&d, sizeof(d));
    }
  }
  return h;
}

}  // namespace

uint64_t SnapshotChecksum(const std::vector<Tuple>& rows, size_t t1,
                          size_t t2) {
  uint64_t sum = 0;
  for (const Tuple& row : rows) {
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != t1 && i != t2) h = (h ^ HashValue(row[i])) * 1099511628211ull;
    }
    // Unsigned wrap-around keeps the sum additive over split periods.
    sum += h * (static_cast<uint64_t>(row[t2].AsInt()) -
                static_cast<uint64_t>(row[t1].AsInt()));
  }
  return sum;
}

namespace {

/// Keeps the kernel's result observable, so its work is not optimized away.
std::atomic<uint64_t> kernel_sink{0};

/// The reference computation: rows shaped like the engine's tuples
/// (vectors of variant cells with a short string) are built, sorted,
/// hash-joined on the string and projected. Fixed input, fixed work.
double ReferenceKernelSeconds() {
  using Cell = std::variant<std::monostate, int64_t, double, std::string>;
  using Row = std::vector<Cell>;
  constexpr size_t kRows = 1 << 16;
  const Clock::time_point start = Clock::now();
  uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const uint64_t r = next();
    rows.push_back(Row{Cell(static_cast<int64_t>(r % 8192)),
                       Cell("EMP" + std::to_string((r >> 16) % 50000)),
                       Cell(static_cast<int64_t>((r >> 32) % 10000)),
                       Cell(static_cast<double>(r % 1000) / 8)});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    const int64_t ka = std::get<int64_t>(a[0]);
    const int64_t kb = std::get<int64_t>(b[0]);
    return ka != kb ? ka < kb
                    : std::get<int64_t>(a[2]) < std::get<int64_t>(b[2]);
  });
  std::unordered_map<std::string, std::vector<size_t>> index;
  for (size_t i = 0; i < rows.size(); ++i) {
    index[std::get<std::string>(rows[i][1])].push_back(i);
  }
  std::vector<Row> joined;
  for (size_t i = 0; i < rows.size(); i += 2) {
    const auto it = index.find(std::get<std::string>(rows[i][1]));
    for (size_t j : it->second) joined.push_back(Row{rows[i][0], rows[j][2]});
  }
  uint64_t sum = joined.size();
  for (const Row& row : joined) sum += std::get<int64_t>(row[1]);
  kernel_sink.store(sum, std::memory_order_relaxed);
  return SecondsSince(start);
}

}  // namespace

HostSpeed::HostSpeed() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
  const pid_t parent = ::getpid();
  child_ = ::fork();
  if (child_ == 0) {
    // Die with the parent, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    // The child: one untimed run faults its heap in (the parent waits for
    // it); then one timed run per request byte, until the parent closes
    // its end. Each run moves to the next CPU the process may use: the
    // host slows each vCPU differently, and the program's threads run on
    // all of them.
    ::close(fds[0]);
    const int fd = fds[1];
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
      }
    }
    double seconds = ReferenceKernelSeconds();
    char byte;
    for (size_t n = 0;
         ::send(fd, &seconds, sizeof(seconds), MSG_NOSIGNAL) ==
             sizeof(seconds) &&
         ::recv(fd, &byte, 1, 0) == 1;
         ++n) {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[n % cpus.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
      }
      seconds = ReferenceKernelSeconds();
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  fd_ = fds[0];
  double warm = 0;
  if (child_ < 0 ||
      ::recv(fd_, &warm, sizeof(warm), MSG_WAITALL) != sizeof(warm)) {
    ::close(fd_);
    fd_ = -1;
  }
}

HostSpeed::~HostSpeed() {
  if (fd_ >= 0) ::close(fd_);  // the child reads end-of-file and exits
  if (child_ <= 0) return;
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

void HostSpeed::Sample() {
  const char byte = 1;
  double seconds = 0;
  if (fd_ >= 0 && ::send(fd_, &byte, 1, MSG_NOSIGNAL) == 1 &&
      ::recv(fd_, &seconds, sizeof(seconds), MSG_WAITALL) == sizeof(seconds)) {
    samples_.push_back(seconds);
  }
}

double HostSpeed::Factor() const {
  const double median = Median(samples_);
  return median > 0 ? kReferenceSeconds / median : 1;
}

std::string HostSpeed::Note() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "host: reference kernel n=%zu median=%.4g min=%.4g max=%.4g "
                "ms, factor %.4f",
                samples_.size(), Median(samples_) * 1e3,
                Percentile(samples_, 0) * 1e3, Percentile(samples_, 1) * 1e3,
                Factor());
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

net::ServerConfig BenchServerConfig() {
  net::ServerConfig config;
  config.middleware.wire.simulate_delay = false;
  return config;
}

Middleware::Config InProcessConfig() {
  Middleware::Config config = BenchServerConfig().middleware;
  config.sweep_orphans_on_start = false;
  return config;
}

std::string PlanSignature(const optimizer::PhysPlan& plan) {
  std::string out = optimizer::AlgorithmName(plan.algorithm);
  if (plan.children.empty()) return out;
  out += "(";
  for (size_t i = 0; i < plan.children.size(); ++i) {
    if (i > 0) out += ",";
    out += PlanSignature(*plan.children[i]);
  }
  return out + ")";
}

ServerCounters ServerCounters::Read(obs::MetricsRegistry& metrics) {
  ServerCounters c;
  c.cache_hits = metrics.counter("plancache.hit").load();
  c.cache_misses = metrics.counter("plancache.miss").load();
  c.busy = metrics.counter("server.busy_rejections").load();
  const obs::Histogram& h = metrics.histogram("server.request_seconds");
  c.requests = h.count();
  c.request_seconds = h.sum();
  return c;
}

ServerCounters ServerCounters::operator-(const ServerCounters& before) const {
  ServerCounters d;
  d.cache_hits = cache_hits - before.cache_hits;
  d.cache_misses = cache_misses - before.cache_misses;
  d.busy = busy - before.busy;
  d.requests = requests - before.requests;
  d.request_seconds = request_seconds - before.request_seconds;
  return d;
}

void ServerCounters::Export(Report* report) const {
  const uint64_t lookups = cache_hits + cache_misses;
  report->per_layer["adapt.hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(cache_hits) / lookups;
  report->per_layer["server.busy_rejections"] = static_cast<double>(busy);
  // Sum / count: the histogram's power-of-two buckets are too coarse for
  // quantiles, but its sum is exact.
  report->per_layer["net.server_request_ms"] =
      requests == 0 ? 0 : request_seconds / requests * 1e3;
}

std::string WriteTrace(const Options& options,
                       const obs::TraceRecorder& trace) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(kWorkDir) / "trace";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path path = dir / (options.workload + "-seed" +
                               std::to_string(options.seed) + ".json");
  std::ofstream out(path);
  out << trace.ToChromeJson();
  return out.good() ? path.string() : std::string();
}

}  // namespace perfbench
}  // namespace tango
