#ifndef TANGO_DBMS_CONNECTION_H_
#define TANGO_DBMS_CONNECTION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/cursor.h"
#include "dbms/engine.h"
#include "dbms/fault.h"
#include "obs/metrics.h"

namespace tango {
namespace dbms {

/// \brief Parameters of the simulated client/server link.
///
/// The paper's middleware talks to Oracle over JDBC; here the DBMS runs
/// in-process, so the marshalling + network cost that makes `T^M`/`T^D`
/// expensive is reproduced by (a) genuinely serializing every tuple through
/// the wire codec and (b) pacing the link at `bytes_per_second` with a
/// `roundtrip_seconds` latency per statement and per prefetch batch. The
/// defaults model a ~2001-era 100 Mbit LAN with JDBC overheads; see
/// DESIGN.md §2 for the substitution rationale.
struct WireConfig {
  double bytes_per_second = 25.0e6;
  double roundtrip_seconds = 300e-6;
  /// JDBC row-prefetch: tuples fetched per batch into the client buffer
  /// (§3.2 discusses its performance effect).
  size_t row_prefetch = 256;
  double per_batch_seconds = 60e-6;
  /// Disable pacing entirely (serialization still happens); used by unit
  /// tests that assert on results, not timing.
  bool simulate_delay = true;
};

/// Counters describing what crossed the wire (observability + tests).
struct WireCounters {
  uint64_t bytes_to_client = 0;    // T^M direction
  uint64_t bytes_to_server = 0;    // T^D direction
  uint64_t statements = 0;
  uint64_t batches = 0;
  /// CRC-framed RowBlocks that crossed the link (both directions); with
  /// block framing every prefetch batch and every bulk-load chunk is one
  /// block frame.
  uint64_t blocks = 0;
  double simulated_seconds = 0;    // total pacing applied
};

/// \brief Client-side connection to the DBMS — the only door the middleware
/// may use (mirrors a JDBC connection).
///
/// Every operation takes an optional `QueryControl`: a cancelled or expired
/// query fails fast at the next statement or prefetch batch instead of
/// continuing to drive the wire. An attached `FaultInjector` (tests, chaos
/// runs) is consulted at the same boundaries; prefetch batches additionally
/// cross the link CRC-framed, so an injected (or real) truncation/bit-flip
/// surfaces as a transient `kUnavailable` — never as garbled rows.
class Connection {
 public:
  explicit Connection(Engine* engine, WireConfig config = WireConfig())
      : engine_(engine), config_(config), session_(engine->NewSession()) {}

  const WireConfig& config() const { return config_; }
  WireConfig& config() { return config_; }
  const WireCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = WireCounters(); }

  /// Mirrors the wire counters into `registry` as the process-wide
  /// "wire.statements" / "wire.batches" / "wire.bytes_to_client" /
  /// "wire.bytes_to_server" series (null detaches). Unlike the per-
  /// connection WireCounters, these are never reset. Also records how long
  /// each engine-latch acquisition waited, in seconds, into the
  /// "dbms.latch_wait_seconds.shared" / ".exclusive" histograms.
  void set_metrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) {
      m_statements_ = m_batches_ = m_blocks_ = m_bytes_to_client_ =
          m_bytes_to_server_ = nullptr;
      m_latch_wait_shared_ = m_latch_wait_exclusive_ = nullptr;
      return;
    }
    m_statements_ = &registry->counter("wire.statements");
    m_batches_ = &registry->counter("wire.batches");
    m_blocks_ = &registry->counter("wire.blocks");
    m_bytes_to_client_ = &registry->counter("wire.bytes_to_client");
    m_bytes_to_server_ = &registry->counter("wire.bytes_to_server");
    m_latch_wait_shared_ =
        &registry->histogram("dbms.latch_wait_seconds.shared");
    m_latch_wait_exclusive_ =
        &registry->histogram("dbms.latch_wait_seconds.exclusive");
  }

  /// Attaches the failure model consulted at every statement/batch; null
  /// detaches it.
  void set_fault_injector(FaultInjectorPtr injector) {
    fault_ = std::move(injector);
  }
  const FaultInjectorPtr& fault_injector() const { return fault_; }

  /// Executes a statement and transfers the full result over the wire.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryControlPtr& control = nullptr);

  /// Opens a server-side cursor; rows cross the wire in prefetch batches as
  /// the returned cursor is drained (this is `TRANSFER^M`'s engine).
  Result<CursorPtr> ExecuteQuery(const std::string& sql,
                                 const QueryControlPtr& control = nullptr);

  /// Direct-path load into an existing table (the SQL*Loader stand-in used
  /// by `TRANSFER^D`); rows are serialized across the wire.
  Status BulkLoad(const std::string& table, const std::vector<Tuple>& rows,
                  const QueryControlPtr& control = nullptr);

  /// Row-at-a-time INSERT load — the inefficient alternative the paper
  /// mentions; kept for the bulk-load-vs-INSERT experiment.
  Status InsertLoad(const std::string& table, const std::vector<Tuple>& rows,
                    const QueryControlPtr& control = nullptr);

  /// Catalog statistics for the middleware's Statistics Collector; costs one
  /// round trip (the stats relations are tiny).
  Result<TableStats> GetTableStats(const std::string& table);
  Result<Schema> GetTableSchema(const std::string& table);

  /// Table names starting with `prefix` (one round trip against the catalog
  /// views); the temp-table janitor's orphan scan.
  Result<std::vector<std::string>> ListTables(const std::string& prefix);

  /// Asks the server to reclaim WAL segments covered by the latest
  /// checkpoint snapshot (the janitor's durable-garbage sweep); returns how
  /// many files were removed. No-op (0) on a volatile engine.
  Result<size_t> ReclaimWalSegments();

  /// The engine session this connection's statements run under — explicit
  /// transactions (BEGIN .. COMMIT) are scoped to it, so two Connections
  /// never share a transaction.
  uint64_t session() const { return session_; }

  /// Applies pacing for `bytes` crossing the link (used internally and by
  /// the remote cursor). Callers must hold the wire lock.
  void PaceBytes(size_t bytes);
  void PaceRoundTrip();
  void PaceBatch();
  /// Counts one framed RowBlock crossing the link (either direction).
  void CountBlock();

  /// Serializes access to this connection's (single) wire: statements and
  /// prefetch batches issued through one Connection — from however many
  /// threads share it — interleave at statement/batch granularity under
  /// this lock, like one JDBC connection with synchronized accessors. It is
  /// also the first lock of the wire-then-engine lock order.
  std::unique_lock<std::mutex> AcquireWire() {
    return std::unique_lock<std::mutex>(wire_mu_);
  }

  /// Takes the engine latch exclusive, for every engine call that may
  /// write: statements, loads, WAL reclamation. Lock order: own wire lock
  /// first, then the latch — never the reverse. Held only around the engine
  /// call itself, not around pacing, so concurrent connections overlap their
  /// simulated wire time. The latch is writer-preferring and not recursive:
  /// never call this (or AcquireEngineShared) while the thread holds it.
  std::unique_lock<EngineLatch> AcquireEngine();

  /// Takes the engine latch shared, for the read-only engine calls: opening
  /// a query, a server cursor's Init and batches, and the catalog reads.
  /// Shared holders run concurrently, never beside an exclusive one. Same
  /// lock order and no-recursion rule as AcquireEngine.
  std::shared_lock<EngineLatch> AcquireEngineShared();

 private:
  void Spin(double seconds);

  /// Acquires the latch as `Lock` and, when metrics are attached, records
  /// the seconds it waited into `wait`.
  template <typename Lock>
  Lock TimedAcquire(obs::Histogram* wait);

  /// Statement-boundary gate: polls `control`, consults the fault injector
  /// (applying any injected latency, which itself respects the deadline),
  /// and paces the round trip. On a non-OK return the statement was not
  /// executed. Must be called with the wire lock held.
  Status StatementGate(const std::string& sql, const QueryControlPtr& control,
                       bool* fault_result_cursor);

  Engine* engine_;
  WireConfig config_;
  WireCounters counters_;
  obs::Counter* m_statements_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_blocks_ = nullptr;
  obs::Counter* m_bytes_to_client_ = nullptr;
  obs::Counter* m_bytes_to_server_ = nullptr;
  obs::Histogram* m_latch_wait_shared_ = nullptr;
  obs::Histogram* m_latch_wait_exclusive_ = nullptr;
  FaultInjectorPtr fault_;
  std::mutex wire_mu_;
  uint64_t session_ = 0;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_CONNECTION_H_
