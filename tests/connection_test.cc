// Wire-simulation specifics: prefetch batching, byte accounting, pacing,
// and the SQL*Loader-style load path; plus what concurrent Connections
// share: engine sessions and the writer-preferring engine latch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "dbms/connection.h"
#include "workload/uis.h"

namespace tango {
namespace dbms {
namespace {

void LoadSmall(Engine* db, int n) {
  ASSERT_TRUE(db->Execute("CREATE TABLE R (X INT, S VARCHAR(8))").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i)),
                    Value(std::string("s").append(std::to_string(i)))});
  }
  ASSERT_TRUE(db->BulkLoad("R", rows).ok());
}

TEST(ConnectionTest, PrefetchBatchCountsAreExact) {
  Engine db;
  LoadSmall(&db, 100);
  for (const size_t prefetch : {1u, 7u, 100u, 1000u}) {
    WireConfig wire;
    wire.simulate_delay = false;
    wire.row_prefetch = prefetch;
    Connection conn(&db, wire);
    auto cur = conn.ExecuteQuery("SELECT X, S FROM R");
    ASSERT_TRUE(cur.ok());
    auto rows = MaterializeAll(cur.ValueOrDie().get()).ValueOrDie();
    EXPECT_EQ(rows.size(), 100u);
    const uint64_t expected_batches = (100 + prefetch - 1) / prefetch;
    EXPECT_EQ(conn.counters().batches, expected_batches) << prefetch;
  }
}

TEST(ConnectionTest, ZeroPrefetchIsClampedToOne) {
  Engine db;
  LoadSmall(&db, 5);
  WireConfig wire;
  wire.simulate_delay = false;
  wire.row_prefetch = 0;
  Connection conn(&db, wire);
  auto cur = conn.ExecuteQuery("SELECT X, S FROM R");
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(MaterializeAll(cur.ValueOrDie().get()).ValueOrDie().size(), 5u);
  EXPECT_EQ(conn.counters().batches, 5u);
}

TEST(ConnectionTest, BytesScaleWithRowsTransferred) {
  Engine db;
  LoadSmall(&db, 200);
  WireConfig wire;
  wire.simulate_delay = false;
  Connection conn(&db, wire);
  auto all = conn.ExecuteQuery("SELECT X, S FROM R");
  (void)MaterializeAll(all.ValueOrDie().get());
  const uint64_t all_bytes = conn.counters().bytes_to_client;
  conn.ResetCounters();
  auto half = conn.ExecuteQuery("SELECT X, S FROM R WHERE X < 100");
  (void)MaterializeAll(half.ValueOrDie().get());
  const uint64_t half_bytes = conn.counters().bytes_to_client;
  EXPECT_NEAR(static_cast<double>(half_bytes),
              static_cast<double>(all_bytes) / 2, all_bytes * 0.1);
}

TEST(ConnectionTest, SlowerWireTakesLonger) {
  Engine db;
  LoadSmall(&db, 500);
  auto timed = [&](double bytes_per_second) {
    WireConfig wire;
    wire.bytes_per_second = bytes_per_second;
    wire.roundtrip_seconds = 0;
    wire.per_batch_seconds = 0;
    Connection conn(&db, wire);
    auto cur = conn.ExecuteQuery("SELECT X, S FROM R");
    const auto start = std::chrono::steady_clock::now();
    (void)MaterializeAll(cur.ValueOrDie().get());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double fast = timed(1e9);
  const double slow = timed(1e5);  // ~10 KB over 100 KB/s ≈ 0.1 s
  EXPECT_GT(slow, fast * 3);
  EXPECT_GT(slow, 0.03);
}

TEST(ConnectionTest, BulkLoadPreservesValuesExactly) {
  Engine db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE T (I INT, D DOUBLE, S VARCHAR(20))").ok());
  WireConfig wire;
  wire.simulate_delay = false;
  Connection conn(&db, wire);
  std::vector<Tuple> rows = {
      {Value(int64_t{-42}), Value(3.14159), Value("hello world")},
      {Value::Null(), Value(0.0), Value("")},
      {Value(int64_t{1} << 40), Value(-1e-9), Value("O'Neil")},
  };
  ASSERT_TRUE(conn.BulkLoad("T", rows).ok());
  auto back = db.Execute("SELECT I, D, S FROM T");
  ASSERT_TRUE(back.ok());
  const auto& got = back.ValueOrDie().rows;
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < rows[i].size(); ++c) {
      EXPECT_EQ(got[i][c].is_null(), rows[i][c].is_null()) << i << "," << c;
      EXPECT_EQ(got[i][c].Compare(rows[i][c]), 0) << i << "," << c;
    }
  }
}

TEST(ConnectionTest, QueryErrorsPropagateThroughTheWire) {
  Engine db;
  WireConfig wire;
  wire.simulate_delay = false;
  Connection conn(&db, wire);
  EXPECT_FALSE(conn.ExecuteQuery("SELECT X FROM MISSING").ok());
  EXPECT_FALSE(conn.Execute("GIBBERISH").ok());
  EXPECT_FALSE(conn.BulkLoad("MISSING", {}).ok());
  EXPECT_FALSE(conn.GetTableStats("MISSING").ok());
}

TEST(ConnectionTest, ConcurrentConstructionGetsDistinctSessions) {
  Engine db;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::vector<uint64_t>> sessions(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &sessions, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Connection conn(&db);
        sessions[t].push_back(conn.session());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<uint64_t> distinct;
  for (const auto& per_thread : sessions) {
    distinct.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(distinct.count(0), 0u);  // session 0 is the engine's own
}

TEST(ConnectionTest, EngineLatchQueuesNewReadersBehindAWaitingWriter) {
  EngineLatch latch;
  std::atomic<bool> a_holds{false};
  std::atomic<bool> release_a{false};
  std::atomic<bool> b_acquired{false};
  std::thread a([&] {
    std::shared_lock<EngineLatch> hold(latch);
    a_holds.store(true);
    while (!release_a.load()) std::this_thread::yield();
  });
  while (!a_holds.load()) std::this_thread::yield();
  std::thread b([&] {
    std::unique_lock<EngineLatch> hold(latch);
    b_acquired.store(true);
  });

  // While only A reads, a new reader gets in. Once B queues for the latch,
  // new readers must not: a reader-preferring latch keeps admitting them,
  // and this poll would run into its deadline.
  bool refused = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!refused && std::chrono::steady_clock::now() < deadline) {
    if (latch.try_lock_shared()) {
      latch.unlock_shared();
      std::this_thread::yield();
    } else {
      refused = true;
    }
  }
  EXPECT_TRUE(refused) << "a reader overtook the waiting writer";
  EXPECT_FALSE(b_acquired.load());
  // B still waits behind A, so every further attempt is refused too.
  for (int i = 0; refused && i < 100; ++i) {
    const bool got = latch.try_lock_shared();
    EXPECT_FALSE(got);
    if (got) latch.unlock_shared();
  }

  release_a.store(true);
  a.join();
  b.join();
  EXPECT_TRUE(b_acquired.load());
  ASSERT_TRUE(latch.try_lock_shared());
  latch.unlock_shared();
}

TEST(ConnectionTest, LatchWaitIsRecordedPerMode) {
  Engine db;
  LoadSmall(&db, 10);
  obs::MetricsRegistry registry;
  WireConfig wire;
  wire.simulate_delay = false;
  Connection holder(&db, wire);
  Connection reader(&db, wire);
  holder.set_metrics(&registry);
  reader.set_metrics(&registry);

  std::atomic<bool> started{false};
  std::thread query;
  {
    const auto exclusive = holder.AcquireEngine();
    query = std::thread([&] {
      started.store(true);
      // Opening the query takes the latch shared, once; the cursor is
      // never drained, so nothing else acquires it.
      EXPECT_TRUE(reader.ExecuteQuery("SELECT X, S FROM R").ok());
    });
    while (!started.load()) std::this_thread::yield();
    // Held far past the asserted 15 ms, so a reader thread descheduled
    // between starting and asking for the latch still waits long enough.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  query.join();

  const obs::Histogram& shared =
      registry.histogram("dbms.latch_wait_seconds.shared");
  ASSERT_EQ(shared.count(), 1u);
  EXPECT_GE(shared.max(), 0.015);
  // The holder's own, uncontended acquisition.
  EXPECT_EQ(registry.histogram("dbms.latch_wait_seconds.exclusive").count(),
            1u);
}

}  // namespace
}  // namespace dbms
}  // namespace tango
