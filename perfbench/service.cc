// Workload service_churn: four clients (one per core) run closed loops of
// timeslice lookups over the socket, and a seeded 10 % of each client's ops
// is a temporal-update transaction, WriterGenerator::Run(1) on the client's
// own dbms::Connection, against a durable engine.

#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/date.h"
#include "common/rng.h"
#include "dbms/connection.h"
#include "net/client.h"
#include "perfbench.h"
#include "workload/uis.h"
#include "workload/writer.h"

namespace tango {
namespace perfbench {
namespace {

constexpr size_t kClients = 4;
constexpr double kWriteShare = 0.1;
constexpr int kWarmupLookups = 5;
/// Lookups (plus transactions) per client per second on the reference
/// host; ops per client are sized from it so a run lasts about --seconds.
constexpr double kNominalOpsPerClientSecond = 20;
/// Traced lookups re-run in process to split their time by layer.
constexpr size_t kFollowUps = 100;
/// An untraced run's ops are issued in this many segments, the host
/// yardstick timed before each while every client is idle.
constexpr size_t kSegments = 20;

std::string LookupSql(int64_t posid, int64_t day) {
  const std::string d = std::to_string(day);
  return "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE PosID = " +
         std::to_string(posid) + " AND T1 <= " + d + " AND T2 > " + d;
}

struct Lookup {
  int64_t posid = 0;
  int64_t day = 0;
};

/// The writers' first "current day"; it only advances from there.
int64_t WritersStartDay() { return date::Jan1(1998); }

/// Row counts of lookups, computed from the generated rows without the
/// engine. The writers only close periods at, and open them from, their
/// current day, which never precedes WritersStartDay(); so a lookup dated
/// before that day has the same answer in the loaded table as under any
/// churn.
class LookupOracle {
 public:
  explicit LookupOracle(const std::vector<Tuple>& rows) {
    for (const Tuple& row : rows) {
      periods_[row[0].AsInt()].push_back({row[6].AsInt(), row[7].AsInt()});
    }
  }
  static bool Covers(const Lookup& lookup) {
    return lookup.day < WritersStartDay();
  }
  size_t Count(const Lookup& lookup) const {
    const auto it = periods_.find(lookup.posid);
    if (it == periods_.end()) return 0;
    size_t n = 0;
    for (const auto& [t1, t2] : it->second) {
      n += t1 <= lookup.day && t2 > lookup.day ? 1 : 0;
    }
    return n;
  }

 private:
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      periods_;
};

/// A client's seeded op stream: the seed alone fixes the read:write mix
/// and the literals, whichever thread wins the latch.
class OpStream {
 public:
  OpStream(uint64_t seed, int64_t positions, double write_share)
      : rng_(seed), positions_(positions), write_share_(write_share) {}
  /// True when the next op is an update transaction; otherwise fills
  /// `lookup`.
  bool Next(Lookup* lookup) {
    if (write_share_ > 0 && rng_.Bernoulli(write_share_)) return true;
    lookup->posid = rng_.Uniform(1, positions_);
    lookup->day = rng_.Uniform(date::Jan1(1990), date::Jan1(2000) - 1);
    return false;
  }

 private:
  Rng rng_;
  int64_t positions_;
  double write_share_;
};

/// One client: its socket session, its own DBMS session and its update
/// stream (declared so the writer dies before its connection).
struct ClientState {
  std::unique_ptr<net::Client> client;
  std::unique_ptr<dbms::Connection> conn;
  std::unique_ptr<workload::WriterGenerator> writer;
  std::unique_ptr<OpStream> ops;
};

struct Setup {
  std::string wal_dir;
  obs::MetricsRegistry engine_metrics;
  std::unique_ptr<dbms::Engine> engine;
  std::unique_ptr<net::PollingServer> server;
  std::vector<ClientState> clients;
  size_t rows = 0;
  std::unique_ptr<LookupOracle> oracle;
  double load_s = 0;
  double warm_s = 0;

  ~Setup() {
    clients.clear();
    server.reset();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
};

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Name of the filesystem holding `dir` (the WAL's flush cost depends on
/// it), or its statfs magic number.
std::string FilesystemName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  const auto magic = static_cast<unsigned long long>(fs.f_type);
  switch (magic) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "statfs magic 0x%llx", magic);
  return buf;
}

std::unique_ptr<Setup> BuildSetup(const Options& options, int index,
                                  Report* report) {
  auto setup = std::make_unique<Setup>();
  Clock::time_point start = Clock::now();
  setup->wal_dir = std::string(kWorkDir) + "/wal-" + options.workload + "-" +
                   std::to_string(::getpid()) + "-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(setup->wal_dir, ec);
  std::filesystem::create_directories(setup->wal_dir, ec);
  dbms::EngineOptions engine_options;
  engine_options.wal_dir = setup->wal_dir;
  engine_options.metrics = &setup->engine_metrics;
  setup->engine = std::make_unique<dbms::Engine>(engine_options);
  setup->rows = static_cast<size_t>(std::lround(20000 * options.scale));
  Status st = setup->engine->Open();
  if (st.ok()) {
    st = setup->engine
             ->Execute("CREATE TABLE POSITION " +
                       workload::PositionDdlColumns())
             .status();
  }
  if (st.ok()) {
    std::vector<Tuple> rows =
        workload::GeneratePositionRows(setup->rows, options.seed);
    setup->oracle = std::make_unique<LookupOracle>(rows);
    st = setup->engine->BulkLoad("POSITION", rows);
  }
  if (st.ok()) st = setup->engine->Execute("ANALYZE").status();
  if (!st.ok()) {
    report->Fail("load: " + st.ToString());
    return nullptr;
  }
  setup->load_s = SecondsSince(start);

  start = Clock::now();
  setup->server = std::make_unique<net::PollingServer>(setup->engine.get(),
                                                       BenchServerConfig());
  st = setup->server->Start();
  const int64_t positions = std::max<int64_t>(1, setup->rows / 20);
  setup->clients.resize(kClients);
  for (size_t c = 0; c < kClients && st.ok(); ++c) {
    ClientState& client = setup->clients[c];
    client.client = std::make_unique<net::Client>();
    client.ops = std::make_unique<OpStream>(Mix(options.seed, 100 + c),
                                            positions, kWriteShare);
    st = client.client->Connect("127.0.0.1", setup->server->port());
    OpStream warm(Mix(options.seed, 200 + c), positions, /*write_share=*/0);
    for (int i = 0; i < kWarmupLookups && st.ok(); ++i) {
      Lookup lookup;
      warm.Next(&lookup);
      st = client.client->Query(LookupSql(lookup.posid, lookup.day)).status();
    }
    if (st.ok()) {
      client.conn = std::make_unique<dbms::Connection>(
          setup->engine.get(), InProcessConfig().wire);
      workload::WriterOptions writer;
      writer.table = "POSITION";
      writer.seed = Mix(options.seed, 300 + c);
      writer.num_positions = positions;
      writer.start_day = WritersStartDay();
      client.writer = std::make_unique<workload::WriterGenerator>(
          client.conn.get(), writer);
      st = client.writer->Run(1);
    }
  }
  if (!st.ok()) {
    report->Fail("server start or warm-up: " + st.ToString());
    return nullptr;
  }
  setup->warm_s = SecondsSince(start);
  return setup;
}

/// What one closed-loop phase measured.
struct Phase {
  std::vector<double> lookup_s;
  std::vector<double> txn_s;
  double elapsed = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;  // ERROR / BUSY / REJECTED replies, failed statements
  uint64_t oracle_checked = 0;
  std::vector<std::string> failed_checks;
  /// Traced lookups and their request spans (follow-up candidates).
  std::vector<std::pair<Lookup, obs::SpanId>> traced;

  /// Adds `other`'s samples and counts (elapsed times add up too).
  void Append(const Phase& other) {
    lookup_s.insert(lookup_s.end(), other.lookup_s.begin(),
                    other.lookup_s.end());
    txn_s.insert(txn_s.end(), other.txn_s.begin(), other.txn_s.end());
    elapsed += other.elapsed;
    attempted += other.attempted;
    errors += other.errors;
    oracle_checked += other.oracle_checked;
    failed_checks.insert(failed_checks.end(), other.failed_checks.begin(),
                         other.failed_checks.end());
    traced.insert(traced.end(), other.traced.begin(), other.traced.end());
  }
};

/// Every client runs `ops` ops of its stream concurrently, stopping early
/// past `deadline`. Each lookup reply is checked against its predicate
/// and, when the oracle covers its day, against the generated rows' count.
Phase RunPhase(Setup* setup, size_t ops, Clock::time_point deadline,
               obs::TraceRecorder* trace) {
  std::vector<Phase> per_client(setup->clients.size());
  std::latch ready(static_cast<std::ptrdiff_t>(setup->clients.size()) + 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < setup->clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientState& client = setup->clients[c];
      Phase& out = per_client[c];
      ready.arrive_and_wait();
      for (size_t i = 0; i < ops && Clock::now() < deadline; ++i) {
        ++out.attempted;
        Lookup lookup;
        if (client.ops->Next(&lookup)) {
          obs::ScopedSpan span(trace, "request.txn", "client");
          const Clock::time_point start = Clock::now();
          const Status st = client.writer->Run(1);
          out.txn_s.push_back(SecondsSince(start));
          if (!st.ok()) ++out.errors;
          continue;
        }
        obs::ScopedSpan span(trace, "request.lookup", "client");
        const Clock::time_point start = Clock::now();
        auto result =
            client.client->Query(LookupSql(lookup.posid, lookup.day));
        const double dt = SecondsSince(start);
        if (!result.ok()) {
          ++out.errors;
          continue;
        }
        out.lookup_s.push_back(dt);
        if (trace != nullptr) out.traced.push_back({lookup, span.id()});
        const auto& rows = result.ValueOrDie().rows;
        const std::string what = "lookup PosID=" +
                                 std::to_string(lookup.posid) + " day=" +
                                 std::to_string(lookup.day);
        for (const Tuple& row : rows) {
          if (row.size() != 4 || row[0].AsInt() != lookup.posid ||
              row[2].AsInt() > lookup.day || row[3].AsInt() <= lookup.day) {
            out.failed_checks.push_back(what + ": row outside the predicate");
            break;
          }
        }
        if (!LookupOracle::Covers(lookup)) continue;
        ++out.oracle_checked;
        if (rows.size() != setup->oracle->Count(lookup)) {
          out.failed_checks.push_back(
              what + ": " + std::to_string(rows.size()) + " rows, expected " +
              std::to_string(setup->oracle->Count(lookup)));
        }
      }
    });
  }
  ready.arrive_and_wait();
  const Clock::time_point start = Clock::now();
  for (std::thread& t : threads) t.join();

  Phase all;
  for (const Phase& p : per_client) all.Append(p);
  all.elapsed = SecondsSince(start);
  return all;
}

/// Folds a phase's attempts, error replies and failed checks into the run.
void Account(const Phase& phase, Report* report) {
  report->attempted += phase.attempted;
  report->failed += phase.errors;
  if (phase.errors > 0) {
    report->Note(std::to_string(phase.errors) + " error replies");
  }
  for (const std::string& what : phase.failed_checks) report->Fail(what);
}

/// Writer counters summed over the clients.
struct WriterTotals {
  uint64_t committed = 0;
  uint64_t rolled_back = 0;
  uint64_t lock_retries = 0;
  uint64_t failed = 0;

  static WriterTotals Read(const Setup& setup) {
    WriterTotals t;
    for (const ClientState& c : setup.clients) {
      if (c.writer == nullptr) continue;
      const workload::WriterCounters& w = c.writer->counters();
      t.committed += w.txns_committed.load();
      t.rolled_back += w.txns_rolled_back.load();
      t.lock_retries += w.lock_retries.load();
      t.failed += w.txns_failed.load();
    }
    return t;
  }
};

/// Row count and checksum of POSITION as the engine holds it.
std::pair<size_t, uint64_t> ScanPosition(dbms::Engine* engine) {
  dbms::Connection conn(engine, InProcessConfig().wire);
  auto result = conn.Execute("SELECT * FROM POSITION");
  if (!result.ok()) return {0, 0};
  return {result.ValueOrDie().rows.size(),
          Checksum(result.ValueOrDie().rows)};
}

/// Stops the service, then reopens the WAL directory in a fresh engine:
/// POSITION must come back with the same rows, i.e. every acknowledged
/// commit survived and every rollback left no trace.
void CheckDurability(Setup* setup, Report* report) {
  for (ClientState& c : setup->clients) c.client->Close();
  setup->server->Stop();
  const WriterTotals writers = WriterTotals::Read(*setup);
  const auto live = ScanPosition(setup->engine.get());
  const size_t expected = setup->rows + writers.committed;
  if (live.first != expected) {
    report->Fail("live POSITION has " + std::to_string(live.first) +
                 " rows, expected " + std::to_string(expected) +
                 " (loaded + committed inserts)");
  }
  setup->clients.clear();
  setup->server.reset();
  setup->engine.reset();

  dbms::EngineOptions reopen_options;
  reopen_options.wal_dir = setup->wal_dir;
  dbms::Engine reopened(reopen_options);
  const Status st = reopened.Open();
  if (!st.ok()) {
    report->Fail("reopening the WAL: " + st.ToString());
    return;
  }
  const auto recovered = ScanPosition(&reopened);
  if (recovered != live) {
    report->Fail("recovered POSITION differs: " +
                 std::to_string(recovered.first) + " rows vs " +
                 std::to_string(live.first) + " live");
  }
  report->Note("durability: " + std::to_string(recovered.first) +
               " rows, checksum " + std::to_string(recovered.second) +
               " recovered; " + std::to_string(writers.committed) +
               " commits, " + std::to_string(writers.rolled_back) +
               " rollbacks");
}

/// Traced follow-ups on the idle engine: a seeded sample of the traced
/// lookups runs again in process (warm Prepare, Execute) and its SQL alone
/// on a fresh connection, each a child span of the lookup's request.
void FollowUps(Setup* setup, const Phase& traced, uint64_t seed,
               obs::TraceRecorder* trace, Report* report) {
  Middleware mw(setup->engine.get(), InProcessConfig());
  (void)mw.CollectStatistics({"POSITION"});
  if (!traced.traced.empty()) {
    const Lookup& first = traced.traced.front().first;
    (void)mw.Prepare(LookupSql(first.posid, first.day));  // fills the cache
  }
  Rng rng(Mix(seed, 400));
  std::vector<double> prepare_s;
  std::vector<double> inproc_s;
  std::vector<double> sql_s;
  for (size_t k = 0; k < kFollowUps && !traced.traced.empty(); ++k) {
    const auto& [lookup, parent] = traced.traced[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(traced.traced.size()) - 1))];
    const std::string sql = LookupSql(lookup.posid, lookup.day);
    Result<Middleware::Prepared> prepared = Status::Internal("not run");
    const double p = Timed(trace, "tango.prepare", parent,
                           [&] { prepared = mw.Prepare(sql); });
    if (!prepared.ok()) {
      report->Fail("follow-up prepare: " + prepared.status().ToString());
      return;
    }
    Result<Middleware::Execution> exec = Status::Internal("not run");
    const double e = Timed(trace, "tango.execute", parent,
                           [&] { exec = mw.Execute(prepared.ValueOrDie()); });
    if (!exec.ok()) {
      report->Fail("follow-up execute: " + exec.status().ToString());
      return;
    }
    prepare_s.push_back(p);
    inproc_s.push_back(p + e);
    double s = 0;
    for (const std::string& statement : exec.ValueOrDie().sql_statements) {
      dbms::Connection conn(setup->engine.get(), InProcessConfig().wire);
      Status st = Status::OK();
      s += Timed(trace, "dbms.sql", parent,
                 [&] { st = conn.Execute(statement).status(); });
      if (!st.ok()) report->Fail("lookup SQL alone: " + st.ToString());
    }
    sql_s.push_back(s);
  }
  report->per_layer["adapt.prepare_hit_us"] = Mean(prepare_s) * 1e6;
  report->per_layer["dbms.lookup_sql_ms"] = Median(sql_s) * 1e3;
  report->per_layer["dbms.latch_wait_ms"] =
      report->per_layer["net.server_request_ms"] - Mean(inproc_s) * 1e3;
}

}  // namespace

Report RunServiceChurn(const Options& options) {
  Report report;
  // Ops per client: a multiple of kSegments, at least one per segment.
  const size_t ops =
      kSegments *
      std::max<size_t>(1, static_cast<size_t>(std::lround(
                              options.seconds * kNominalOpsPerClientSecond /
                              kSegments)));

  // The host yardstick forks its child before any thread starts.
  std::optional<HostSpeed> host;
  if (!options.trace) host.emplace();
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < SetupCount(options); ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = BuildSetup(options, i, &report);
    if (setup == nullptr) return report;
    setup_s.push_back(SecondsSince(start));
    if (host) host->Sample();
  }
  report.Note("tables: POSITION " + std::to_string(setup->rows) +
              " rows; durable engine, WAL on " +
              FilesystemName(setup->wal_dir) + "; " +
              std::to_string(kClients) + " clients, closed loop, " +
              std::to_string(ops) + " ops each, 10% update transactions");

  if (!options.trace) {
    // The op streams carry on from segment to segment, so the ops are the
    // same as in one unbroken phase.
    const Clock::time_point deadline = Clock::now() + TimeCap(options);
    Phase phase;
    for (size_t k = 0; k < kSegments; ++k) {
      host->Sample();
      phase.Append(RunPhase(setup.get(), ops / kSegments, deadline, nullptr));
    }
    Account(phase, &report);
    const double factor = host->Factor();
    const double p50 = Percentile(phase.lookup_s, 0.50) * 1e3 * factor;
    const double p90 = Percentile(phase.lookup_s, 0.90) * 1e3 * factor;
    const double p99 = Percentile(phase.lookup_s, 0.99) * 1e3 * factor;
    const double txn_p50 = Percentile(phase.txn_s, 0.50) * 1e3 * factor;
    const double txn_p90 = Percentile(phase.txn_s, 0.90) * 1e3 * factor;
    const double mean = Mean(phase.lookup_s) * 1e3 * factor;
    const double txn_mean = Mean(phase.txn_s) * 1e3 * factor;
    // Segments' elapsed times only: the kernel's time between them is left
    // out.
    const double qps =
        static_cast<double>(phase.lookup_s.size() + phase.txn_s.size()) /
        phase.elapsed;
    // The bounded slots hold medians and means. The p90s and the p99 are
    // listed only: on the shared host, phases of interruptions the kernel
    // does not feel move the tails by up to 0.23 between runs (README.md,
    // "Steadiness"), while a mean counts a tail by its weight.
    report.end_to_end["lat1_ms"] = p50;
    report.end_to_end["lat2_ms"] = mean;
    report.end_to_end["lat3_ms"] = txn_p50;
    report.end_to_end["lat4_ms"] = txn_mean;
    report.end_to_end["qps"] = qps / factor;
    report.end_to_end["setup_s"] = Median(setup_s) * factor;
    report.end_to_end["peak_rss_mb"] = PeakRssMb();
    report.Named("qps", qps / factor, "1/s");
    report.Named("p50_ms", p50, "ms");
    report.Named("mean_ms", mean, "ms");
    report.Named("p90_ms", p90, "ms");
    report.Named("p99_ms", p99, "ms");
    report.Named("txn_p50_ms", txn_p50, "ms");
    report.Named("txn_mean_ms", txn_mean, "ms");
    report.Named("txn_p90_ms", txn_p90, "ms");
    report.Note("samples: " + std::to_string(phase.lookup_s.size()) +
                " lookups (" + std::to_string(phase.oracle_checked) +
                " checked against the oracle), " +
                std::to_string(phase.txn_s.size()) + " transactions");
    report.Note("as measured: qps " + std::to_string(qps) + ", lookup p50 " +
                std::to_string(p50 / factor) + " mean " +
                std::to_string(mean / factor) + " p90 " +
                std::to_string(p90 / factor) + " ms, txn p50 " +
                std::to_string(txn_p50 / factor) + " mean " +
                std::to_string(txn_mean / factor) + " p90 " +
                std::to_string(txn_p90 / factor) + " ms, setup_s " +
                std::to_string(Median(setup_s)));
    report.Note(host->Note());
  } else {
    // Half the ops untraced (the overhead baseline), half traced.
    const size_t half = std::max<size_t>(10, ops / 2);
    const Clock::time_point deadline = Clock::now() + TimeCap(options);
    const Phase plain = RunPhase(setup.get(), half, deadline, nullptr);
    Account(plain, &report);

    obs::TraceRecorder trace;
    const ServerCounters server_before =
        ServerCounters::Read(setup->server->metrics());
    obs::MetricsRegistry& engine = setup->engine_metrics;
    const uint64_t syncs = engine.counter("wal.syncs").load();
    const uint64_t appends = engine.counter("wal.appends").load();
    const uint64_t commits = engine.counter("txn.commits").load();
    const uint64_t rollbacks = engine.counter("txn.rollbacks").load();
    const uint64_t wal_bytes = WalBytes(setup->wal_dir);
    const WriterTotals writers = WriterTotals::Read(*setup);

    const Phase traced = RunPhase(setup.get(), half, deadline, &trace);
    Account(traced, &report);
    (ServerCounters::Read(setup->server->metrics()) - server_before)
        .Export(&report);
    const double txns = static_cast<double>(traced.txn_s.size());
    const auto per_txn = [&](double delta) {
      return txns == 0 ? 0 : delta / txns;
    };
    const uint64_t new_commits = engine.counter("txn.commits").load() - commits;
    report.per_layer["wal.syncs_per_commit"] =
        new_commits == 0
            ? 0
            : static_cast<double>(engine.counter("wal.syncs").load() - syncs) /
                  static_cast<double>(new_commits);
    report.per_layer["wal.appends_per_txn"] = per_txn(
        static_cast<double>(engine.counter("wal.appends").load() - appends));
    report.per_layer["wal.bytes_per_txn"] =
        per_txn(static_cast<double>(WalBytes(setup->wal_dir) - wal_bytes));
    report.per_layer["txn.lock_conflicts"] = static_cast<double>(
        WriterTotals::Read(*setup).lock_retries - writers.lock_retries);
    report.per_layer["txn.rollbacks"] = static_cast<double>(
        engine.counter("txn.rollbacks").load() - rollbacks);

    report.per_layer["net.client_ms"] = Mean(traced.lookup_s) * 1e3;
    report.per_layer["net.wait_ms"] = report.per_layer["net.client_ms"] -
                                      report.per_layer["net.server_request_ms"];
    report.per_layer["setup.load_s"] = setup->load_s;
    report.per_layer["setup.warm_s"] = setup->warm_s;
    const double plain_qps =
        static_cast<double>(plain.attempted) / plain.elapsed;
    const double traced_qps =
        static_cast<double>(traced.attempted) / traced.elapsed;
    report.per_layer["trace.overhead_pct"] = (plain_qps / traced_qps - 1) * 100;

    FollowUps(setup.get(), traced, options.seed, &trace, &report);
    report.Note("trace: " + WriteTrace(options, trace));
  }

  const WriterTotals writers = WriterTotals::Read(*setup);
  if (writers.failed > 0) {
    report.failed += writers.failed;
    report.Note(std::to_string(writers.failed) +
                " transactions exhausted their retry budget");
  }
  CheckDurability(setup.get(), &report);
  return report;
}

}  // namespace perfbench
}  // namespace tango
