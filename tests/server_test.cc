// PollingServer end-to-end: handshake, concurrent clients (up to 64 in a
// closed loop), the shared plan cache and its warm hit rate, one client's
// cardinality feedback re-optimizing another's plan, admission control,
// deadline/cancel over the socket, graceful shutdown, the boot-once orphan
// sweep, and robustness against garbage on the wire.
// Everything runs against a real TCP socket on loopback.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/date.h"
#include "net/client.h"
#include "net/polling_server.h"
#include "workload/uis.h"

namespace tango {
namespace net {
namespace {

constexpr const char* kAggQuery =
    "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT "
    "FROM (TEMPORAL SELECT PosID, COUNT(PosID) AS CNT "
    "      FROM POSITION GROUP BY PosID OVER TIME) C, POSITION P "
    "WHERE C.PosID = P.PosID ORDER BY PosID, T1, EmpName DESC";

void LoadFigure3(dbms::Engine* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE POSITION (PosID INT, EmpName "
                          "VARCHAR(20), T1 INT, T2 INT)")
                  .ok());
  ASSERT_TRUE(db->Execute("INSERT INTO POSITION VALUES "
                          "(1, 'Tom', 2, 20), (1, 'Jane', 5, 25), "
                          "(2, 'Tom', 5, 10)")
                  .ok());
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
}

// A relation big enough that draining it through a throttled wire takes
// long enough for a cancel/deadline/shutdown to land mid-query.
void LoadBig(dbms::Engine* db, size_t rows = 1000) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE BIG (ID INT, V INT, T1 INT, T2 INT)").ok());
  std::string insert;
  for (size_t i = 0; i < rows; ++i) {
    if (insert.empty()) insert = "INSERT INTO BIG VALUES ";
    insert.append("(")
        .append(std::to_string(i))
        .append(", ")
        .append(std::to_string(i % 97))
        .append(", ")
        .append(std::to_string(i % 50))
        .append(", ")
        .append(std::to_string(i % 50 + 60))
        .append(")");
    if (insert.size() > 12000 || i + 1 == rows) {
      ASSERT_TRUE(db->Execute(insert).ok());
      insert.clear();
    } else {
      insert += ", ";
    }
  }
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
}

ServerConfig FastConfig() {
  ServerConfig config;
  config.middleware.wire.simulate_delay = false;
  return config;
}

// Wire pacing throttled so the BIG drain takes on the order of a second.
ServerConfig SlowConfig() {
  ServerConfig config;
  config.middleware.wire.simulate_delay = true;
  config.middleware.wire.bytes_per_second = 20e3;
  config.middleware.wire.row_prefetch = 16;
  config.middleware.wire.per_batch_seconds = 2e-3;
  return config;
}

TEST(ServerTest, HandshakeQueryAndOrderlyClose) {
  dbms::Engine db;
  LoadFigure3(&db);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.server_name(), "tango-server");

  auto result = client.Query(kAggQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& r = result.ValueOrDie();
  ASSERT_EQ(r.rows.size(), 5u);
  ASSERT_EQ(r.columns.size(), 5u);
  // Row 0 of Figure 3(b): (1, Tom, 2, 5, 1).
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsString(), "Tom");
  EXPECT_EQ(r.rows[0][4].AsInt(), 1);
  EXPECT_GT(r.elapsed_seconds, 0.0);

  client.Close();
  server.Stop();
  EXPECT_EQ(server.metrics().gauge("server.sessions").load(), 0);
  EXPECT_EQ(server.metrics().gauge("server.queue_depth").load(), 0);
}

TEST(ServerTest, PrepareExecuteRoundTrip) {
  dbms::Engine db;
  LoadFigure3(&db);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto stmt = client.Prepare(kAggQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_NE(client.last_fingerprint(), 0u);

  // The same statement executes repeatedly.
  for (int i = 0; i < 3; ++i) {
    auto result = client.Execute(stmt.ValueOrDie());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().rows.size(), 5u);
  }

  // Unknown statement ids fail cleanly.
  auto missing = client.Execute(12345);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ServerTest, SharedPlanCacheAcrossClients) {
  dbms::Engine db;
  LoadFigure3(&db);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());

  // Client A warms the fingerprint (its own execution optimizes fresh).
  Client a;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  auto first = a.Query(kAggQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().plan_source, "fresh");

  // Client B's first-ever query hits the cache A warmed — the pool shares
  // one PlanCache, whatever worker serves B.
  Client b;
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  auto second = b.Query(kAggQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie().plan_source, "cached");
  EXPECT_EQ(second.ValueOrDie().rows.size(), 5u);

  EXPECT_GE(server.metrics().counter("plancache.hit").load(), 1u);
}

// The disjoint join of feedback_test.cc: L.J takes 1..5 and R2.J 6..10,
// so the §3.3 estimate is 100 * 100 / 5 = 2000 rows and the actual is 0.
void LoadDisjoint(dbms::Engine* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE L (J INT, X INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE R2 (J INT, Y INT)").ok());
  std::vector<Tuple> left, right;
  for (int64_t i = 0; i < 100; ++i) {
    left.push_back({Value(i % 5 + 1), Value(i)});
    right.push_back({Value(i % 5 + 6), Value(i)});
  }
  ASSERT_TRUE(db->BulkLoad("L", left).ok());
  ASSERT_TRUE(db->BulkLoad("R2", right).ok());
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
}

TEST(ServerTest, OneClientsObservationsReoptimizeAnothersPlan) {
  // FeedbackLoopTest.MisestimatedJoinMigratesSitesAfterOneRun through the
  // socket. Client A's execution (the join in the middleware, two
  // TRANSFER^Ms) leaves the observed cardinalities; client B's next QUERY
  // of the same text re-optimizes with them and runs the join in the DBMS
  // behind one TRANSFER^M. The workers share one middleware, so this holds
  // on every fresh server, whichever workers serve A and B.
  const char* const join = "SELECT L.J, R2.Y FROM L, R2 WHERE L.J = R2.J";
  for (int round = 0; round < 5; ++round) {
    dbms::Engine db;
    LoadDisjoint(&db);
    PollingServer server(&db, FastConfig());
    ASSERT_TRUE(server.Start().ok());
    const obs::Counter& statements =
        server.metrics().counter("wire.statements");
    Client a;
    Client b;
    ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());

    uint64_t before = statements.load();
    auto first = a.Query(join);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.ValueOrDie().plan_source, "fresh");
    EXPECT_TRUE(first.ValueOrDie().rows.empty());
    const uint64_t a_statements = statements.load() - before;
    EXPECT_EQ(server.metrics().counter("reoptimize.stale_marks").load(), 1u);

    before = statements.load();
    auto second = b.Query(join);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second.ValueOrDie().plan_source, "reoptimized");
    EXPECT_TRUE(second.ValueOrDie().rows.empty());
    const uint64_t b_statements = statements.load() - before;
    // Both prepares make the same catalog round trips; the plans differ by
    // one statement.
    EXPECT_EQ(a_statements, b_statements + 1) << "round " << round;
  }
}

TEST(ServerTest, ConcurrentClientsAllSucceedAndShareTheCache) {
  dbms::Engine db;
  LoadFigure3(&db);
  ServerConfig config = FastConfig();
  config.workers = 4;
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &failures] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto result = client.Query(kAggQuery);
        if (!result.ok() || result.ValueOrDie().rows.size() != 5u) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The shared cache served (nearly) everything: first arrivals can race
  // to a handful of misses — at most one per concurrent client — but the
  // remaining lookups all hit.
  const uint64_t hits = server.metrics().counter("plancache.hit").load();
  const uint64_t misses = server.metrics().counter("plancache.miss").load();
  const uint64_t total =
      static_cast<uint64_t>(kClients * kQueriesPerClient);
  EXPECT_EQ(hits + misses, total);
  EXPECT_GE(misses, 1u);
  EXPECT_LE(misses, static_cast<uint64_t>(kClients));
  EXPECT_GE(hits, total - kClients);

  server.Stop();
  EXPECT_EQ(server.metrics().gauge("server.sessions").load(), 0);
  EXPECT_EQ(server.metrics().gauge("server.queue_depth").load(), 0);
}

// A generated POSITION and one selective timeslice over it (position 7's
// staffing on 1996-06-01): cheap enough that the server path, not the scan,
// is what many clients contend on. Returns the query's row count, computed
// from the generated rows without the engine.
size_t LoadPositionTimeslice(dbms::Engine* db, std::string* query) {
  const std::vector<Tuple> rows = workload::GeneratePositionRows(2000, 42);
  EXPECT_TRUE(
      db->Execute("CREATE TABLE POSITION " + workload::PositionDdlColumns())
          .ok());
  EXPECT_TRUE(db->BulkLoad("POSITION", rows).ok());
  EXPECT_TRUE(db->Execute("ANALYZE").ok());
  const int64_t day = date::FromYmd(1996, 6, 1);
  *query = "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION "
           "WHERE PosID = 7 AND T1 <= " +
           std::to_string(day) + " AND T2 > " + std::to_string(day);
  size_t expected = 0;
  for (const Tuple& row : rows) {
    expected += row[0].AsInt() == 7 && row[6].AsInt() <= day &&
                        row[7].AsInt() > day
                    ? 1
                    : 0;
  }
  return expected;
}

// Closed loop: each of `clients` connections (all admitted before any
// query) sends `per_client` timeslices, the next as soon as the last reply
// landed. Returns how many requests failed or returned the wrong row count.
int RunClosedLoop(const PollingServer& server, const std::string& query,
                  size_t expected_rows, int clients, int per_client) {
  std::vector<std::unique_ptr<Client>> connected;
  int failures = 0;
  for (int c = 0; c < clients; ++c) {
    connected.push_back(std::make_unique<Client>());
    Status st = connected.back()->Connect("127.0.0.1", server.port());
    EXPECT_TRUE(st.ok()) << "client " << c << ": " << st.ToString();
    if (!st.ok()) ++failures;
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int q = 0; q < per_client; ++q) {
        auto result = connected[c]->Query(query);
        if (!result.ok() || result.ValueOrDie().rows.size() != expected_rows) {
          ++bad;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& client : connected) client->Close();
  return failures + bad.load();
}

TEST(ServerTest, SixtyFourConcurrentClientsAreAllServed) {
  dbms::Engine db;
  std::string query;
  const size_t expected = LoadPositionTimeslice(&db, &query);
  ASSERT_GT(expected, 0u);
  // The default admission and queue bounds.
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());

  EXPECT_EQ(RunClosedLoop(server, query, expected, 64, 4), 0);
  EXPECT_EQ(server.metrics().counter("server.sessions_rejected").load(), 0u);
  EXPECT_EQ(server.metrics().counter("server.busy_rejections").load(), 0u);

  server.Stop();
  EXPECT_EQ(server.metrics().gauge("server.sessions").load(), 0);
  EXPECT_EQ(server.metrics().gauge("server.queue_depth").load(), 0);
}

TEST(ServerTest, WarmSharedCacheHitRateAtSixteenClients) {
  dbms::Engine db;
  std::string query;
  const size_t expected = LoadPositionTimeslice(&db, &query);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());
  {
    Client warm;
    ASSERT_TRUE(warm.Connect("127.0.0.1", server.port()).ok());
    auto result = warm.Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.ValueOrDie().rows.size(), expected);
  }

  const uint64_t hits0 = server.metrics().counter("plancache.hit").load();
  const uint64_t misses0 = server.metrics().counter("plancache.miss").load();
  EXPECT_EQ(RunClosedLoop(server, query, expected, 16, 8), 0);
  const uint64_t hits =
      server.metrics().counter("plancache.hit").load() - hits0;
  const uint64_t misses =
      server.metrics().counter("plancache.miss").load() - misses0;
  ASSERT_GT(hits + misses, 0u);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9)
      << hits << " hits, " << misses << " misses";

  server.Stop();
  EXPECT_EQ(server.metrics().gauge("server.sessions").load(), 0);
}

TEST(ServerTest, AdmissionRejectsSessionsPastTheBound) {
  dbms::Engine db;
  LoadFigure3(&db);
  ServerConfig config = FastConfig();
  config.max_sessions = 2;
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  Client c1, c2, c3;
  ASSERT_TRUE(c1.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(c2.Connect("127.0.0.1", server.port()).ok());
  Status rejected = c3.Connect("127.0.0.1", server.port());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("session limit"), std::string::npos)
      << rejected.ToString();
  EXPECT_EQ(server.metrics().counter("server.sessions_rejected").load(), 1u);

  // An admitted slot freed by a departing client is admitted again.
  c1.Close();
  // The server processes the GOODBYE asynchronously; retry briefly.
  Status readmitted = Status::Unavailable("never tried");
  for (int i = 0; i < 50; ++i) {
    Client c4;
    readmitted = c4.Connect("127.0.0.1", server.port());
    if (readmitted.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(readmitted.ok()) << readmitted.ToString();
}

TEST(ServerTest, QueueSaturationAnswersBusy) {
  dbms::Engine db;
  LoadFigure3(&db);
  ServerConfig config = FastConfig();
  config.queue_limit = 0;  // every request is "past" the limit
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto result = client.Query(kAggQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("busy"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(server.metrics().counter("server.busy_rejections").load(), 1u);

  // BUSY is transient: the session survives it (the stream stays framed).
  EXPECT_TRUE(client.connected());
}

TEST(ServerTest, DeadlineOverTheSocket) {
  dbms::Engine db;
  LoadFigure3(&db);
  LoadBig(&db);
  PollingServer server(&db, SlowConfig());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto result = client.Query(
      "TEMPORAL SELECT ID, V, T1, T2 FROM BIG ORDER BY ID, V",
      /*deadline_seconds=*/0.05);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();

  // The session is still usable after the timeout.
  auto ok = client.Query(kAggQuery);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ServerTest, CancelOverTheSocket) {
  dbms::Engine db;
  LoadFigure3(&db);
  LoadBig(&db);
  PollingServer server(&db, SlowConfig());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Status final_status = Status::OK();
  std::thread requester([&client, &final_status] {
    auto result =
        client.Query("TEMPORAL SELECT ID, V, T1, T2 FROM BIG ORDER BY ID, V");
    final_status = result.status();
  });
  // Let the query get going, then cancel from this thread (the documented
  // concurrent use of Client).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(client.Cancel().ok());
  requester.join();

  ASSERT_FALSE(final_status.ok());
  EXPECT_EQ(final_status.code(), StatusCode::kAborted)
      << final_status.ToString();
}

TEST(ServerTest, GracefulShutdownCancelsInFlightQueries) {
  dbms::Engine db;
  LoadFigure3(&db);
  LoadBig(&db);
  auto server = std::make_unique<PollingServer>(&db, SlowConfig());
  ASSERT_TRUE(server->Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  Status final_status = Status::OK();
  std::thread requester([&client, &final_status] {
    auto result =
        client.Query("TEMPORAL SELECT ID, V, T1, T2 FROM BIG ORDER BY ID, V");
    final_status = result.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto stop_start = std::chrono::steady_clock::now();
  server->Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stop_start)
          .count();
  requester.join();

  // The in-flight query was cancelled, not left to run out the full drain
  // (which pacing puts at ~2s): shutdown must be prompt.
  EXPECT_LT(stop_seconds, 1.5);
  ASSERT_FALSE(final_status.ok());

  // All balance gauges drained; destroying the server after Stop is clean.
  EXPECT_EQ(server->metrics().gauge("server.sessions").load(), 0);
  EXPECT_EQ(server->metrics().gauge("server.queue_depth").load(), 0);
  server.reset();
}

TEST(ServerTest, OrphanSweepRunsOnceAtBoot) {
  dbms::Engine db;
  LoadFigure3(&db);
  // A temp table leaked by a "crashed" earlier run.
  ASSERT_TRUE(db.Execute("CREATE TABLE TANGO_TMP_9_1_LEAK (A INT)").ok());

  ServerConfig config = FastConfig();
  config.workers = 4;
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  // One sweep for the whole server: the orphan was dropped exactly once,
  // by the one middleware the workers share.
  EXPECT_EQ(server.metrics().counter("janitor.orphans_swept").load(), 1u);
  for (const std::string& t : db.catalog().TableNames()) {
    EXPECT_EQ(t.find("TANGO_TMP"), std::string::npos) << t;
  }

  // Queries from several clients (served by different workers) leave no
  // temp tables behind — every execution's janitor cleans up after itself.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      auto result = client.Query(kAggQuery);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& t : db.catalog().TableNames()) {
    EXPECT_EQ(t.find("TANGO_TMP"), std::string::npos) << t;
  }
}

TEST(ServerTest, RecoveryCountersAggregateInOneRegistry) {
  // Every Middleware binds one RecoveryCounters, and middlewares may share
  // a registry. Binding must alias the same named counters — increments
  // from different middlewares aggregate into one series, and a second
  // binding must not double-count (re-registering resets nothing and
  // creates no parallel counter).
  obs::MetricsRegistry registry;
  RecoveryCounters a(&registry);
  RecoveryCounters b(&registry);
  EXPECT_EQ(&a.temp_tables_dropped, &b.temp_tables_dropped);
  EXPECT_EQ(&a.orphans_swept, &b.orphans_swept);

  a.temp_tables_dropped.Increment();
  b.temp_tables_dropped.Increment(2);
  EXPECT_EQ(registry.counter("janitor.temp_tables_dropped").load(), 3u);
  EXPECT_EQ(a.temp_tables_dropped.load(), 3u);
  EXPECT_EQ(b.temp_tables_dropped.load(), 3u);
}

// ---------------------------------------------------------------------------
// Robustness: raw bytes on the socket.

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerTest, GarbageBytesDoNotCrashTheServer) {
  dbms::Engine db;
  LoadFigure3(&db);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());

  // A client that speaks noise instead of frames: the server must drop it
  // (protocol violation) without taking the process down.
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  uint8_t garbage[256];
  uint64_t x = 0x6a09e667f3bcc909ull;
  for (auto& b : garbage) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  // The server replies with an error frame and/or closes; wait for EOF.
  uint8_t buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);

  EXPECT_GE(server.metrics().counter("server.protocol_errors").load(), 1u);

  // A well-behaved client still gets service.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto result = client.Query(kAggQuery);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ServerTest, ProtocolVersionMismatchIsRefused) {
  dbms::Engine db;
  LoadFigure3(&db);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  Message hello;
  hello.type = MsgType::kHello;
  hello.protocol_version = 99;
  hello.text = "time-traveller";
  const std::vector<uint8_t> frame = EncodeMessage(hello);
  ASSERT_GT(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);

  // Collect the reply frames until the server closes the connection.
  FrameAssembler assembler;
  std::vector<Message> replies;
  uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    assembler.Append(buf, static_cast<size_t>(n));
    std::vector<uint8_t> payload;
    for (;;) {
      auto next = assembler.Next(&payload);
      ASSERT_TRUE(next.ok());
      if (!next.ValueOrDie()) break;
      auto message = DecodeMessage(payload.data(), payload.size());
      ASSERT_TRUE(message.ok());
      replies.push_back(message.MoveValueOrDie());
    }
  }
  ::close(fd);

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MsgType::kError);
  EXPECT_NE(replies[0].text.find("version"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The streamed result (DESIGN.md §14): the server drains the root cursor
// straight into ROWBLOCK frames, holding one block back, so the reply
// frames themselves are what these tests look at.

// A protocol session driven by hand: HELLO/WELCOME on construction, then
// whole frames in and out.
class RawSession {
 public:
  explicit RawSession(uint16_t port) : fd_(RawConnect(port)) {
    if (fd_ < 0) return;
    timeval timeout{};
    timeout.tv_sec = 30;  // a hung server fails the test instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    Message hello;
    hello.type = MsgType::kHello;
    hello.protocol_version = kProtocolVersion;
    hello.text = "raw";
    if (!Send(hello)) return;
    auto welcome = Next();
    welcomed_ = welcome.ok() && welcome.ValueOrDie().type == MsgType::kWelcome;
  }
  ~RawSession() { Close(); }

  bool ok() const { return welcomed_; }

  bool Send(const Message& message) {
    const std::vector<uint8_t> frame = EncodeMessage(message);
    return ::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
  }

  Result<Message> Next() {
    std::vector<uint8_t> payload;
    uint8_t buf[65536];
    for (;;) {
      auto next = assembler_.Next(&payload);
      if (!next.ok()) return next.status();
      if (next.ValueOrDie()) return DecodeMessage(payload.data(), payload.size());
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::IOError("connection closed");
      assembler_.Append(buf, static_cast<size_t>(n));
    }
  }

  bool SendQuery(const std::string& tsql) {
    Message query;
    query.type = MsgType::kQuery;
    query.text = tsql;
    return Send(query);
  }

  // QUERY, then every reply frame through DONE or ERROR.
  std::vector<Message> Query(const std::string& tsql) {
    std::vector<Message> replies;
    if (!SendQuery(tsql)) return replies;
    for (;;) {
      auto message = Next();
      if (!message.ok()) break;
      replies.push_back(message.MoveValueOrDie());
      const MsgType type = replies.back().type;
      if (type == MsgType::kDone || type == MsgType::kError) break;
    }
    return replies;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  bool welcomed_ = false;
  FrameAssembler assembler_;
};

// The rows of a SCHEMA, ROWBLOCK*, DONE reply, in order; fails the test on
// any other frame sequence. `blocks` receives the ROWBLOCK count.
std::vector<Tuple> StreamRows(std::vector<Message>* replies, size_t* blocks) {
  std::vector<Tuple> rows;
  *blocks = 0;
  EXPECT_GE(replies->size(), 2u);
  if (replies->size() < 2) return rows;
  EXPECT_EQ(replies->front().type, MsgType::kSchema);
  EXPECT_EQ(replies->back().type, MsgType::kDone);
  for (size_t i = 1; i + 1 < replies->size(); ++i) {
    Message& m = (*replies)[i];
    EXPECT_EQ(m.type, MsgType::kRowBlock) << "frame " << i;
    ++*blocks;
    Tuple row;
    for (size_t r = 0; r < m.block.rows(); ++r) {
      m.block.MoveRowTo(r, &row);
      rows.push_back(std::move(row));
    }
  }
  EXPECT_EQ(replies->back().rows, rows.size());
  return rows;
}

TEST(ServerTest, StreamedResultsEqualInProcessExecutionRowForRow) {
  dbms::Engine db;
  std::string timeslice;
  LoadPositionTimeslice(&db, &timeslice);
  const std::string y1983 = std::to_string(date::FromYmd(1983, 1, 1));
  const std::string y1996 = std::to_string(date::FromYmd(1996, 1, 1));
  const std::string y1997 = std::to_string(date::FromYmd(1997, 1, 1));
  // Shaped like the paper's Queries 1-3: a temporal aggregation, an
  // aggregation joined back to its relation, a temporal self-join.
  const std::vector<std::string> queries = {
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID",
      "TEMPORAL SELECT C.PosID, EmpName, T1, T2, CNT FROM (TEMPORAL SELECT "
      "PosID, COUNT(PosID) AS CNT FROM POSITION WHERE T2 > " + y1983 +
          " AND T1 < " + y1997 +
          " GROUP BY PosID OVER TIME) C, POSITION P WHERE C.PosID = P.PosID "
          "AND PayRate > 10 ORDER BY PosID",
      "TEMPORAL SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, "
      "POSITION B WHERE A.PosID = B.PosID AND A.T1 < " + y1996 +
          " AND B.T1 < " + y1996};

  for (const size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    ServerConfig config = FastConfig();
    config.middleware.batch_size = batch;
    PollingServer server(&db, config);
    ASSERT_TRUE(server.Start().ok());
    Middleware local(&db, config.middleware);
    RawSession session(server.port());
    ASSERT_TRUE(session.ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string cell =
          "batch " + std::to_string(batch) + ", query " + std::to_string(q + 1);
      auto expected = local.Query(queries[q]);
      ASSERT_TRUE(expected.ok()) << cell << ": " << expected.status().ToString();
      const std::vector<Tuple>& want = expected.ValueOrDie().rows;
      std::vector<Message> replies = session.Query(queries[q]);
      size_t blocks = 0;
      const std::vector<Tuple> got = StreamRows(&replies, &blocks);
      EXPECT_GT(blocks, 1u) << cell;
      ASSERT_EQ(got.size(), want.size()) << cell;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << cell << ", row " << i;
      }
    }
  }
}

TEST(ServerTest, EmptyResultIsSchemaThenDone) {
  dbms::Engine db;
  LoadFigure3(&db);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());
  RawSession session(server.port());
  ASSERT_TRUE(session.ok());
  const std::vector<Message> replies = session.Query(
      "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION WHERE PosID = 9");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, MsgType::kSchema);
  EXPECT_EQ(replies[0].columns.size(), 4u);
  EXPECT_EQ(replies[1].type, MsgType::kDone);
  EXPECT_EQ(replies[1].rows, 0u);
}

TEST(ServerTest, FirstBlockLatencyHasOneSamplePerResultStream) {
  dbms::Engine db;
  LoadFigure3(&db);
  LoadBig(&db);
  ServerConfig config = FastConfig();
  config.middleware.batch_size = 64;
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const char* const streams[] = {
      kAggQuery,                                                // one block
      "TEMPORAL SELECT ID, V, T1, T2 FROM BIG ORDER BY ID",     // many blocks
      "TEMPORAL SELECT ID, V, T1, T2 FROM BIG WHERE ID < 0"};   // no rows
  for (const char* tsql : streams) {
    auto result = client.Query(tsql);
    ASSERT_TRUE(result.ok()) << tsql << ": " << result.status().ToString();
  }
  // A request that fails before any block is no result stream. Its reply
  // also fences the samples: one session's requests are served in order.
  EXPECT_FALSE(client.Query("TEMPORAL SELECT NOPE FROM BIG").ok());
  EXPECT_EQ(
      server.metrics().histogram("server.first_block_seconds").count(), 3u);
}

TEST(ServerTest, ClientGoneMidStreamStopsTheWorker) {
  dbms::Engine db;
  LoadFigure3(&db);
  LoadBig(&db);
  // Paced: the full drain takes about two seconds, in 16-row blocks.
  PollingServer server(&db, SlowConfig());
  ASSERT_TRUE(server.Start().ok());
  obs::MetricsRegistry& metrics = server.metrics();
  {
    RawSession session(server.port());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.SendQuery("TEMPORAL SELECT ID, V, T1, T2 FROM BIG"));
    auto schema = session.Next();
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    EXPECT_EQ(schema.ValueOrDie().type, MsgType::kSchema);
    auto block = session.Next();
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block.ValueOrDie().type, MsgType::kRowBlock);
    EXPECT_GT(metrics.gauge("query.active").load(), 0);
  }  // the client hangs up mid-stream

  const auto closed = std::chrono::steady_clock::now();
  auto seconds_since_close = [&closed] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         closed)
        .count();
  };
  while ((metrics.gauge("server.sessions").load() != 0 ||
          metrics.gauge("query.active").load() != 0) &&
         seconds_since_close() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The execution stopped instead of draining the rest of the paced
  // relation.
  EXPECT_LT(seconds_since_close(), 1.0);
  EXPECT_EQ(metrics.gauge("server.sessions").load(), 0);
  EXPECT_EQ(metrics.gauge("query.active").load(), 0);
  EXPECT_EQ(metrics.counter("query.failures").load(), 1u);

  // The worker is free for the next client.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto result = client.Query(kAggQuery);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

// Wide rows: a table W of `rows` rows whose string column S holds `width`
// bytes each.
void LoadWide(dbms::Engine* db, size_t rows, size_t width) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE W (ID INT, S VARCHAR, T1 INT, T2 INT)").ok());
  std::vector<Tuple> data;
  for (size_t i = 0; i < rows; ++i) {
    data.push_back({Value(static_cast<int64_t>(i)),
                    Value(std::string(width, static_cast<char>('a' + i % 26))),
                    Value(static_cast<int64_t>(i % 50)),
                    Value(static_cast<int64_t>(i % 50 + 60))});
  }
  ASSERT_TRUE(db->BulkLoad("W", data).ok());
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
}

TEST(ServerTest, BlocksPastTheFrameLimitAreSplitAcrossFrames) {
  // 300 rows of 20 KB: a 256-row wire block encodes to about 5 MB, past the
  // 4 MiB frame limit, so the server cuts it into several ROWBLOCK frames.
  dbms::Engine db;
  LoadWide(&db, 300, 20000);
  const ServerConfig config = FastConfig();
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());
  const std::string tsql = "TEMPORAL SELECT ID, S, T1, T2 FROM W";
  Middleware local(&db, config.middleware);
  auto expected = local.Query(tsql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::vector<Tuple>& want = expected.ValueOrDie().rows;
  ASSERT_EQ(want.size(), 300u);

  RawSession session(server.port());
  ASSERT_TRUE(session.ok());
  std::vector<Message> replies = session.Query(tsql);
  size_t blocks = 0;
  const std::vector<Tuple> got = StreamRows(&replies, &blocks);
  EXPECT_GE(blocks, 3u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "row " << i;
  }

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto result = client.Query(tsql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().rows.size(), 300u);
}

TEST(ServerTest, RowPastTheFrameLimitFailsCleanlyAndTheSessionServesOn) {
  // One row whose string alone fills a frame: no split can carry it.
  dbms::Engine db;
  LoadFigure3(&db);
  LoadWide(&db, 1, kMaxFrameBytes);
  PollingServer server(&db, FastConfig());
  ASSERT_TRUE(server.Start().ok());
  RawSession session(server.port());
  ASSERT_TRUE(session.ok());
  const std::vector<Message> failed =
      session.Query("TEMPORAL SELECT ID, S, T1, T2 FROM W");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].type, MsgType::kError);
  EXPECT_NE(failed[0].text.find("frame limit"), std::string::npos)
      << failed[0].text;

  // The same session serves its next request.
  std::vector<Message> replies = session.Query(kAggQuery);
  size_t blocks = 0;
  EXPECT_EQ(StreamRows(&replies, &blocks).size(), 5u);
}

// ---------------------------------------------------------------------------
// Soak: a mixed adversarial workload hammering one server — well-behaved
// query loops, prepare/execute churn, mid-query cancels, reconnect storms
// and a garbage-spraying chaos client, all at once. The default run keeps
// the iteration counts small enough for the broad ctest pass; the
// `server_soak` ctest entry sets TANGO_SERVER_SOAK=1 to multiply them for
// the sanitizer legs (scripts/check.sh runs it under ASan and TSan).

TEST(ServerSoakTest, MixedWorkloadSoak) {
  const bool soak = std::getenv("TANGO_SERVER_SOAK") != nullptr;
  const int kLoops = soak ? 400 : 40;
  const int kClients = 6;

  dbms::Engine db;
  LoadFigure3(&db);
  LoadBig(&db, 400);
  ServerConfig config = FastConfig();
  config.workers = 4;
  config.max_sessions = 32;
  PollingServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<uint64_t> ok_queries{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients + 1);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      auto rnd = [&x](uint64_t n) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x % n;
      };
      Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint32_t stmt = 0;
      for (int i = 0; i < kLoops; ++i) {
        switch (rnd(6)) {
          case 0: {  // prepare once, execute through the handle
            if (stmt == 0) {
              auto prepared = client.Prepare(kAggQuery);
              if (!prepared.ok()) {
                failures.fetch_add(1);
                break;
              }
              stmt = prepared.ValueOrDie();
            }
            auto r = client.Execute(stmt);
            if (r.ok() && r.ValueOrDie().rows.size() == 5u) {
              ok_queries.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {  // execute a statement the server never prepared
            auto r = client.Execute(777777);
            if (r.ok() || r.status().code() != StatusCode::kNotFound) {
              failures.fetch_add(1);
            }
            break;
          }
          case 2: {  // a deadline racing a full-table drain: completing and
                     // timing out are both legal, the session must survive
            auto r = client.Query("TEMPORAL SELECT * FROM BIG",
                                  /*deadline_seconds=*/0.002);
            if (!r.ok() && r.status().code() != StatusCode::kTimeout) {
              failures.fetch_add(1);
            }
            break;
          }
          case 3: {  // reconnect storm: churn the admission accounting
            client.Close();
            stmt = 0;
            if (!client.Connect("127.0.0.1", port).ok()) {
              failures.fetch_add(1);
              return;
            }
            break;
          }
          default: {
            auto r = client.Query(kAggQuery);
            if (r.ok() && r.ValueOrDie().rows.size() == 5u) {
              ok_queries.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            break;
          }
        }
      }
      client.Close();
    });
  }
  // Chaos client: sprays garbage and half-frames at the listener while the
  // real clients work.
  clients.emplace_back([&] {
    uint64_t x = 0x6a09e667f3bcc909ull;
    for (int i = 0; i < kLoops / 4; ++i) {
      const int fd = RawConnect(port);
      if (fd < 0) continue;
      uint8_t junk[64];
      for (auto& b : junk) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<uint8_t>(x);
      }
      (void)::send(fd, junk, 1 + x % sizeof(junk), MSG_NOSIGNAL);
      ::close(fd);
    }
  });
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(ok_queries.load(), 0u);
  server.Stop();
  EXPECT_EQ(server.metrics().gauge("server.sessions").load(), 0);
  EXPECT_EQ(server.metrics().gauge("server.queue_depth").load(), 0);
  EXPECT_GE(server.metrics().counter("server.protocol_errors").load(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace tango
