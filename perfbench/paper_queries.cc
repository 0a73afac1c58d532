// Workload paper_queries: one client runs rounds of the paper's Queries 1-4
// over the socket against full-scale UIS data, with nothing contending.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/date.h"
#include "dbms/connection.h"
#include "net/client.h"
#include "perfbench.h"
#include "workload/uis.h"

namespace tango {
namespace perfbench {
namespace {

/// Wall time of one Q1-Q4 round on the reference host in a fast phase;
/// rounds per run are sized from it so a run lasts about --seconds there
/// (17 rounds at 40 s, so 8 samples of each query lie beyond its median).
constexpr double kNominalRoundSeconds = 2.4;
/// The UIS generator seed of the paper's dataset, used whatever --seed is:
/// this workload has no random input. The optimizer's plan choices follow
/// the data's statistics, so data drawn per seed would flip plans, and
/// with them the latencies, from run to run.
constexpr uint64_t kDataSeed = 42;

struct PaperQuery {
  std::string label;
  std::string text;
  /// ORDER BY PosID: the reply's first column must not decrease.
  bool ordered = false;
  /// SnapshotChecksum of the full-scale answer (UIS seed 42).
  uint64_t full_scale_snapshot = 0;
};

std::vector<PaperQuery> PaperQueries() {
  const auto day = [](int year) { return std::to_string(date::Jan1(year)); };
  return {
      {"q1",
       "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
       "GROUP BY PosID OVER TIME ORDER BY PosID",
       true, 7468873556630323195ull},
      {"q2",
       "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT FROM (TEMPORAL SELECT "
       "PosID, COUNT(PosID) AS CNT FROM POSITION WHERE T2 > " +
           day(1983) + " AND T1 < " + day(1997) +
           " GROUP BY PosID OVER TIME) C, POSITION P WHERE C.PosID = P.PosID "
           "AND PayRate > 10 ORDER BY PosID",
       true, 1609242828633479680ull},
      {"q3",
       "TEMPORAL SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, "
       "POSITION B WHERE A.PosID = B.PosID AND A.T1 < " +
           day(1996) + " AND B.T1 < " + day(1996),
       false, 8335154060727636831ull},
      // Addr stays unqualified: when the optimizer commutes this join, the
      // SQL translator loses the qualified name ("no such column: E.ADDR").
      {"q4",
       "TEMPORAL SELECT PosID, Addr FROM POSITION P, EMPLOYEE E "
       "WHERE P.EmpName = E.EmpName",
       false, 8357964151969175017ull},
  };
}

/// Everything a run measures against: the engine, the server and the one
/// client (destroyed in reverse: client, server, engine).
struct Setup {
  std::unique_ptr<dbms::Engine> engine;
  std::unique_ptr<net::PollingServer> server;
  std::unique_ptr<net::Client> client;
  double load_s = 0;
  double warm_s = 0;
};

/// Data generation, load, indexes and ANALYZE; server start; connect; one
/// warm-up round. Returns null (with a failed check) on any error.
std::unique_ptr<Setup> BuildSetup(const Options& options,
                                  const std::vector<PaperQuery>& queries,
                                  Report* report) {
  auto setup = std::make_unique<Setup>();
  Clock::time_point start = Clock::now();
  setup->engine = std::make_unique<dbms::Engine>();
  workload::UisOptions uis;
  uis.employee_rows = static_cast<size_t>(std::lround(49972 * options.scale));
  uis.position_rows = static_cast<size_t>(std::lround(83857 * options.scale));
  uis.seed = kDataSeed;
  const Status loaded = workload::LoadUis(setup->engine.get(), uis);
  if (!loaded.ok()) {
    report->Fail("UIS load: " + loaded.ToString());
    return nullptr;
  }
  setup->load_s = SecondsSince(start);

  start = Clock::now();
  setup->server = std::make_unique<net::PollingServer>(setup->engine.get(),
                                                       BenchServerConfig());
  setup->client = std::make_unique<net::Client>();
  Status st = setup->server->Start();
  if (st.ok()) st = setup->client->Connect("127.0.0.1", setup->server->port());
  for (const PaperQuery& q : queries) {
    if (!st.ok()) break;
    st = setup->client->Query(q.text).status();
  }
  if (!st.ok()) {
    report->Fail("server start or warm-up: " + st.ToString());
    return nullptr;
  }
  setup->warm_s = SecondsSince(start);
  return setup;
}

struct Reference {
  std::string plan;
  size_t rows = 0;
  uint64_t checksum = 0;
};

/// The expected answer of each query, from an in-process middleware built
/// like a server worker over the same engine. At full scale the answer must
/// also match the pinned snapshot checksum. The server and the reference
/// share every operator, plan and SQL translation, so only the pinned
/// constant catches a fault there; RunRounds catches replies that differ
/// from the reference.
bool ComputeReferences(dbms::Engine* engine, const Options& options,
                       const std::vector<PaperQuery>& queries,
                       std::vector<Reference>* refs, Report* report) {
  Middleware mw(engine, InProcessConfig());
  for (const PaperQuery& q : queries) {
    auto prepared = mw.Prepare(q.text);
    if (!prepared.ok()) {
      report->Fail(q.label + " reference prepare: " +
                   prepared.status().ToString());
      return false;
    }
    auto exec = mw.Execute(prepared.ValueOrDie());
    if (!exec.ok()) {
      report->Fail(q.label + " reference execute: " +
                   exec.status().ToString());
      return false;
    }
    const Middleware::Execution& answer = exec.ValueOrDie();
    const Result<size_t> t1 = answer.schema.IndexOf("T1");
    const Result<size_t> t2 = answer.schema.IndexOf("T2");
    if (!t1.ok() || !t2.ok()) {
      report->Fail(q.label + " result has no T1/T2 period: " +
                   answer.schema.ToString());
      return false;
    }
    Reference ref;
    ref.plan = PlanSignature(*prepared.ValueOrDie().plan);
    ref.rows = answer.rows.size();
    ref.checksum = Checksum(answer.rows);
    const uint64_t snapshot =
        SnapshotChecksum(answer.rows, t1.ValueOrDie(), t2.ValueOrDie());
    report->Note(q.label + " plan=" + ref.plan + " rows=" +
                 std::to_string(ref.rows) +
                 " checksum=" + std::to_string(ref.checksum) +
                 " snapshot=" + std::to_string(snapshot));
    if (options.scale == 1.0 && snapshot != q.full_scale_snapshot) {
      report->Fail(q.label + " snapshot checksum " + std::to_string(snapshot) +
                   ", expected " + std::to_string(q.full_scale_snapshot));
    }
    refs->push_back(std::move(ref));
  }
  return true;
}

/// Per-query samples of one measured phase.
struct QuerySamples {
  std::vector<double> client_s;  // client-observed latency
  std::vector<double> server_s;  // DONE elapsed_seconds (Middleware::Execute)
  obs::SpanId first_span = obs::kNoSpan;
};

/// Runs `rounds` rounds of Q1-Q4, stopping early past `deadline`. Every
/// reply is checked against `refs`. With `trace` set, each request is
/// recorded as a span. With `host` set, the reference kernel is timed
/// before Q1 and before Q3 of each round.
std::vector<QuerySamples> RunRounds(net::Client* client,
                                    const std::vector<PaperQuery>& queries,
                                    const std::vector<Reference>& refs,
                                    size_t rounds, Clock::time_point deadline,
                                    obs::TraceRecorder* trace,
                                    HostSpeed* host, Report* report) {
  std::vector<QuerySamples> samples(queries.size());
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (host != nullptr && i % 2 == 0) host->Sample();
      if (Clock::now() > deadline) {
        report->Note("stopped at the time cap after " +
                     std::to_string(r) + " rounds");
        return samples;
      }
      ++report->attempted;
      obs::ScopedSpan span(trace, ("request." + queries[i].label).c_str(),
                           "client");
      const Clock::time_point start = Clock::now();
      auto result = client->Query(queries[i].text);
      const double dt = SecondsSince(start);
      if (samples[i].first_span == obs::kNoSpan) {
        samples[i].first_span = span.id();
      }
      if (!result.ok()) {
        ++report->failed;
        report->Note(queries[i].label + " error reply: " +
                     result.status().ToString());
        continue;
      }
      const auto& rows = result.ValueOrDie().rows;
      if (rows.size() != refs[i].rows || Checksum(rows) != refs[i].checksum) {
        report->Fail(queries[i].label + " returned " +
                     std::to_string(rows.size()) + " rows, expected " +
                     std::to_string(refs[i].rows) + " (or checksum differs)");
        continue;
      }
      if (queries[i].ordered &&
          !std::is_sorted(rows.begin(), rows.end(),
                          [](const Tuple& a, const Tuple& b) {
                            return a[0].AsInt() < b[0].AsInt();
                          })) {
        report->Fail(queries[i].label + " reply is not ordered by PosID");
        continue;
      }
      samples[i].client_s.push_back(dt);
      samples[i].server_s.push_back(result.ValueOrDie().elapsed_seconds);
    }
  }
  return samples;
}

/// Mean seconds of one Q1-Q4 round (sum of per-query means).
double RoundSeconds(const std::vector<QuerySamples>& samples) {
  double sum = 0;
  for (const QuerySamples& s : samples) sum += Mean(s.client_s);
  return sum;
}

/// Traced follow-ups on the idle engine: for each query, an in-process
/// Prepare after clearing the plan cache, an in-process Execute of that
/// plan (operator self times, wire bytes), and the plan's SQL statements
/// run alone on a fresh connection. All are child spans of the query's
/// first traced request.
void FollowUps(dbms::Engine* engine, const std::vector<PaperQuery>& queries,
               const std::vector<QuerySamples>& samples,
               obs::TraceRecorder* trace, Report* report) {
  Middleware mw(engine, InProcessConfig());
  (void)mw.CollectStatistics({"POSITION", "EMPLOYEE"});
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string n = std::to_string(i + 1);
    const obs::SpanId parent = samples[i].first_span;

    Result<Middleware::Prepared> prepared = Status::Internal("not run");
    mw.plan_cache().Clear();
    const double prepare_s =
        Timed(trace, "optimizer.prepare", parent,
              [&] { prepared = mw.Prepare(queries[i].text); });
    if (!prepared.ok()) {
      report->Fail("q" + n + " follow-up prepare: " +
                   prepared.status().ToString());
      continue;
    }
    const uint64_t bytes_before = mw.connection().counters().bytes_to_client;
    Result<Middleware::Execution> exec = Status::Internal("not run");
    Timed(trace, "tango.execute", parent,
          [&] { exec = mw.Execute(prepared.ValueOrDie()); });
    if (!exec.ok()) {
      report->Fail("q" + n + " follow-up execute: " +
                   exec.status().ToString());
      continue;
    }
    const exec::TimingSink& timings = exec.ValueOrDie().timings;
    double transfer_s = 0;
    double operators_s = 0;
    for (const exec::AlgorithmTiming& t : timings) {
      double self = t.inclusive_seconds;
      for (size_t child : t.child_ids) {
        self -= timings[child].inclusive_seconds;
      }
      (t.label == "TRANSFER^M" ? transfer_s : operators_s) +=
          std::max(0.0, self);
    }
    double sql_s = 0;
    size_t skipped = 0;
    for (const std::string& sql : exec.ValueOrDie().sql_statements) {
      // Statements over the plan's dropped temp tables cannot run alone.
      if (sql.find("TANGO_TMP_") != std::string::npos) {
        ++skipped;
        continue;
      }
      dbms::Connection conn(engine, InProcessConfig().wire);
      Status st = Status::OK();
      sql_s += Timed(trace, "dbms.sql", parent,
                     [&] { st = conn.Execute(sql).status(); });
      if (!st.ok()) report->Fail("q" + n + " SQL alone: " + st.ToString());
    }
    report->Note("q" + n + " traced plan=" +
                 PlanSignature(*prepared.ValueOrDie().plan) + " sql=" +
                 std::to_string(exec.ValueOrDie().sql_statements.size()) +
                 " skipped_temp_sql=" + std::to_string(skipped));
    report->per_layer["optimizer.prepare_ms.q" + n] = prepare_s * 1e3;
    report->per_layer["exec.transfer_m_ms.q" + n] = transfer_s * 1e3;
    report->per_layer["exec.operators_ms.q" + n] = operators_s * 1e3;
    report->per_layer["dbms.sql_ms.q" + n] = sql_s * 1e3;
    report->per_layer["dbms.bytes_to_client.q" + n] = static_cast<double>(
        mw.connection().counters().bytes_to_client - bytes_before);
  }
}

}  // namespace

Report RunPaperQueries(const Options& options) {
  Report report;
  const std::vector<PaperQuery> queries = PaperQueries();
  const size_t rounds = std::max<size_t>(
      2, static_cast<size_t>(
             std::lround(options.seconds / kNominalRoundSeconds)));

  // Untraced runs set up several times and report the median; the last
  // set-up is the one measured. The host yardstick forks its child before
  // any thread starts.
  std::optional<HostSpeed> host;
  if (!options.trace) host.emplace();
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < SetupCount(options); ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = BuildSetup(options, queries, &report);
    if (setup == nullptr) return report;
    setup_s.push_back(SecondsSince(start));
    if (host) host->Sample();
  }
  report.Note("tables: POSITION " +
              std::to_string(std::lround(83857 * options.scale)) +
              " rows, EMPLOYEE " +
              std::to_string(std::lround(49972 * options.scale)) +
              " rows; volatile engine; 1 client, closed loop; " +
              std::to_string(rounds) + " rounds");

  std::vector<Reference> refs;
  if (!ComputeReferences(setup->engine.get(), options, queries, &refs,
                         &report)) {
    return report;
  }

  if (!options.trace) {
    const std::vector<QuerySamples> samples =
        RunRounds(setup->client.get(), queries, refs, rounds,
                  Clock::now() + TimeCap(options), nullptr, &*host, &report);
    const double factor = host->Factor();
    const char* const kSlots[] = {"lat1_ms", "lat2_ms", "lat3_ms", "lat4_ms"};
    size_t done = 0;
    double busy_s = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
      const std::vector<double>& v = samples[i].client_s;
      const double ms = Median(v) * 1e3;
      report.end_to_end[kSlots[i]] = ms * factor;
      report.Named(queries[i].label + "_ms", ms * factor, "ms");
      done += v.size();
      for (double dt : v) busy_s += dt;
      report.Note(queries[i].label + " as measured: n=" +
                  std::to_string(v.size()) + " median=" + std::to_string(ms) +
                  " min=" + std::to_string(Percentile(v, 0) * 1e3) +
                  " max=" + std::to_string(Percentile(v, 1) * 1e3) + " ms");
    }
    // Queries per second of the client's closed loop, the kernel's time
    // between rounds left out.
    const double qps = busy_s > 0 ? static_cast<double>(done) / busy_s : 0;
    report.end_to_end["qps"] = qps / factor;
    report.end_to_end["setup_s"] = Median(setup_s) * factor;
    report.end_to_end["peak_rss_mb"] = PeakRssMb();
    report.Named("qps", qps / factor, "1/s");
    report.Note("as measured: qps " + std::to_string(qps) + ", setup_s " +
                std::to_string(Median(setup_s)));
    report.Note(host->Note());
    return report;
  }

  // Traced run: half the rounds untraced (the overhead baseline), half with
  // a span per request, then the follow-ups on the idle engine.
  const size_t half = std::max<size_t>(1, rounds / 2);
  const Clock::time_point deadline = Clock::now() + TimeCap(options);
  const std::vector<QuerySamples> plain =
      RunRounds(setup->client.get(), queries, refs, half, deadline,
                nullptr, nullptr, &report);
  obs::TraceRecorder trace;
  const ServerCounters before = ServerCounters::Read(setup->server->metrics());
  const std::vector<QuerySamples> traced =
      RunRounds(setup->client.get(), queries, refs, half, deadline,
                &trace, nullptr, &report);
  (ServerCounters::Read(setup->server->metrics()) - before).Export(&report);

  std::vector<double> client_s;
  for (size_t i = 0; i < traced.size(); ++i) {
    const std::string n = std::to_string(i + 1);
    std::vector<double> ship;
    for (size_t k = 0; k < traced[i].client_s.size(); ++k) {
      ship.push_back(traced[i].client_s[k] - traced[i].server_s[k]);
    }
    report.per_layer["net.ship_ms.q" + n] = Mean(ship) * 1e3;
    report.per_layer["tango.exec_ms.q" + n] = Mean(traced[i].server_s) * 1e3;
    client_s.insert(client_s.end(), traced[i].client_s.begin(),
                    traced[i].client_s.end());
  }
  report.per_layer["net.client_ms"] = Mean(client_s) * 1e3;
  report.per_layer["net.wait_ms"] = report.per_layer["net.client_ms"] -
                                    report.per_layer["net.server_request_ms"];
  report.per_layer["setup.load_s"] = setup->load_s;
  report.per_layer["setup.warm_s"] = setup->warm_s;
  report.per_layer["trace.overhead_pct"] =
      (RoundSeconds(traced) / RoundSeconds(plain) - 1) * 100;

  FollowUps(setup->engine.get(), queries, traced, &trace, &report);
  report.Note("trace: " + WriteTrace(options, trace));
  return report;
}

}  // namespace perfbench
}  // namespace tango
