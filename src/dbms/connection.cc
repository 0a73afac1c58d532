#include "dbms/connection.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/wire.h"

namespace tango {
namespace dbms {

namespace {

/// Client-side cursor over a server-side query: fetches up to
/// `row_prefetch` tuples at a time as one column-packed RowBlock, genuinely
/// serialized, CRC-framed (one frame per block), and deserialized through
/// the wire codec with link pacing applied.
class RemoteCursor : public Cursor {
 public:
  RemoteCursor(Connection* conn, CursorPtr server_cursor, size_t prefetch,
               QueryControlPtr control, bool faulted)
      : conn_(conn),
        server_(std::move(server_cursor)),
        prefetch_(prefetch == 0 ? 1 : prefetch),
        schema_(server_->schema()),
        control_(std::move(control)),
        faulted_(faulted),
        server_block_(prefetch_) {}

  Status Init() override {
    block_.Clear();
    batch_no_ = 0;
    server_done_ = false;
    const auto engine = conn_->AcquireEngineShared();
    return server_->Init();
  }

  /// Hands over one whole decoded wire block, whatever `block`'s capacity.
  /// Each fetch decodes into a fresh block that is then moved into `block`:
  /// decoding straight into the consumer's block raised `paper_queries`'
  /// peak RSS from about 250 to 310 MB (perfbench).
  Result<size_t> NextBatch(RowBlock* block) override {
    block->Clear();
    if (server_done_) return 0;
    TANGO_RETURN_IF_ERROR(FetchBlock());
    const size_t capacity = block->capacity();
    *block = std::move(block_);
    block->set_capacity(capacity);
    block_ = RowBlock();
    return block->rows();
  }

  const Schema& schema() const override { return schema_; }

 private:
  /// Fetches the next block into `block_` (left empty once the server is
  /// exhausted).
  Status FetchBlock() {
    // A cancelled/expired query stops driving the wire at the next batch.
    TANGO_RETURN_IF_ERROR(CheckControl(control_));
    // Per-batch wire lock: remote cursors sharing this connection
    // interleave whole batches instead of racing on the engine and counters.
    const auto wire = conn_->AcquireWire();
    block_.Clear();
    // Server side: produce + serialize one block (one NextBatch of the
    // server plan — the block boundary is the batch boundary).
    server_block_.Clear();
    size_t n = 0;
    {
      const auto engine = conn_->AcquireEngineShared();
      TANGO_ASSIGN_OR_RETURN(n, server_->NextBatch(&server_block_));
    }
    if (n == 0) {
      server_done_ = true;
      return Status::OK();
    }
    // The block crosses the link, length- and CRC-framed.
    WireWriter writer;
    writer.BeginFrame();
    writer.PutRowBlock(server_block_);
    writer.SealFrame();
    std::vector<uint8_t> framed = writer.Take();
    const uint64_t batch_no = batch_no_++;
    if (faulted_ && conn_->fault_injector() != nullptr) {
      FaultInjector& injector = *conn_->fault_injector();
      switch (injector.OnBatch(batch_no)) {
        case FaultInjector::BatchFault::kKill:
          faulted_ = false;
          return Status::Unavailable("injected fault: cursor killed after " +
                                     std::to_string(batch_no) + " batches");
        case FaultInjector::BatchFault::kTruncate:
          faulted_ = false;
          framed.resize(injector.NextSalt() % framed.size());
          break;
        case FaultInjector::BatchFault::kCorrupt:
          faulted_ = false;
          framed[(injector.NextSalt() / 8) % framed.size()] ^=
              static_cast<uint8_t>(1u << (injector.NextSalt() % 8));
          break;
        case FaultInjector::BatchFault::kNone:
          break;
      }
    }
    conn_->PaceBatch();
    conn_->CountBlock();
    conn_->PaceBytes(framed.size());
    // Client side: verify the frame, then deserialize. Any damage — real or
    // injected — surfaces as a transient link failure, never as garbled
    // rows reaching an operator.
    const uint8_t* payload = nullptr;
    size_t len = 0;
    Status frame = WireFrame::Check(framed, &payload, &len);
    if (!frame.ok()) {
      return Status::Unavailable("prefetch block garbled on the wire: " +
                                 frame.message());
    }
    WireReader reader(payload, len);
    Result<size_t> decoded = reader.GetRowBlock(&block_);
    if (!decoded.ok() || !reader.AtEnd()) {
      block_.Clear();
      return Status::Unavailable(
          "prefetch block undecodable: " +
          (decoded.ok() ? std::string("trailing bytes after block")
                        : decoded.status().message()));
    }
    return Status::OK();
  }

  Connection* conn_;
  CursorPtr server_;
  size_t prefetch_;
  Schema schema_;
  QueryControlPtr control_;
  bool faulted_;
  RowBlock server_block_;  // server-side staging, reused across fetches
  RowBlock block_;         // client-side decode target
  uint64_t batch_no_ = 0;
  bool server_done_ = false;
};

}  // namespace

template <typename Lock>
Lock Connection::TimedAcquire(obs::Histogram* wait) {
  if (wait == nullptr) return Lock(engine_->latch());
  const auto start = std::chrono::steady_clock::now();
  Lock lock(engine_->latch());
  wait->Record(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  return lock;
}

std::unique_lock<EngineLatch> Connection::AcquireEngine() {
  return TimedAcquire<std::unique_lock<EngineLatch>>(m_latch_wait_exclusive_);
}

std::shared_lock<EngineLatch> Connection::AcquireEngineShared() {
  return TimedAcquire<std::shared_lock<EngineLatch>>(m_latch_wait_shared_);
}

void Connection::Spin(double seconds) {
  if (!config_.simulate_delay || seconds <= 0) return;
  counters_.simulated_seconds += seconds;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
  while (std::chrono::steady_clock::now() < deadline) {
    // busy-wait: pacing must be precise at tens of microseconds
  }
}

void Connection::PaceBytes(size_t bytes) {
  counters_.bytes_to_client += bytes;
  if (m_bytes_to_client_ != nullptr) m_bytes_to_client_->Increment(bytes);
  Spin(static_cast<double>(bytes) / config_.bytes_per_second);
}

void Connection::PaceRoundTrip() {
  ++counters_.statements;
  if (m_statements_ != nullptr) ++*m_statements_;
  Spin(config_.roundtrip_seconds);
}

void Connection::PaceBatch() {
  ++counters_.batches;
  if (m_batches_ != nullptr) ++*m_batches_;
  Spin(config_.per_batch_seconds);
}

void Connection::CountBlock() {
  ++counters_.blocks;
  if (m_blocks_ != nullptr) ++*m_blocks_;
}

Status Connection::StatementGate(const std::string& sql,
                                 const QueryControlPtr& control,
                                 bool* fault_result_cursor) {
  TANGO_RETURN_IF_ERROR(CheckControl(control));
  if (fault_ != nullptr) {
    FaultInjector::StatementDecision decision = fault_->OnStatement(sql);
    if (decision.extra_latency_seconds > 0) {
      // An injected stall is real wall-clock time (independent of
      // simulate_delay), polled so a deadline fires mid-spike rather than
      // after it.
      const auto spike_end =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::duration<double>(decision.extra_latency_seconds));
      while (std::chrono::steady_clock::now() < spike_end) {
        TANGO_RETURN_IF_ERROR(CheckControl(control));
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      TANGO_RETURN_IF_ERROR(CheckControl(control));
    }
    if (!decision.inject.ok()) {
      // The failed round trip still crossed the wire.
      PaceRoundTrip();
      counters_.bytes_to_server += sql.size();
      if (m_bytes_to_server_ != nullptr) m_bytes_to_server_->Increment(sql.size());
      return decision.inject;
    }
    if (fault_result_cursor != nullptr) {
      *fault_result_cursor = decision.fault_result_cursor;
    }
  }
  PaceRoundTrip();
  counters_.bytes_to_server += sql.size();
  if (m_bytes_to_server_ != nullptr) m_bytes_to_server_->Increment(sql.size());
  return Status::OK();
}

Result<QueryResult> Connection::Execute(const std::string& sql,
                                        const QueryControlPtr& control) {
  const auto wire = AcquireWire();
  TANGO_RETURN_IF_ERROR(StatementGate(sql, control, nullptr));
  QueryResult result;
  {
    const auto engine = AcquireEngine();
    TANGO_ASSIGN_OR_RETURN(result, engine_->Execute(sql, session_));
  }
  // The whole result set crosses the wire.
  if (!result.rows.empty()) {
    WireWriter writer;
    for (const Tuple& t : result.rows) writer.PutTuple(t);
    PaceBytes(writer.size());
    // (Deserialization skipped: rows are already materialized values; the
    // pacing and byte accounting are what matter here.)
  }
  return result;
}

Result<CursorPtr> Connection::ExecuteQuery(const std::string& sql,
                                           const QueryControlPtr& control) {
  const auto wire = AcquireWire();
  bool faulted = false;
  TANGO_RETURN_IF_ERROR(StatementGate(sql, control, &faulted));
  CursorPtr server;
  {
    const auto engine = AcquireEngineShared();
    TANGO_ASSIGN_OR_RETURN(server, engine_->OpenQuery(sql));
  }
  return CursorPtr(std::make_unique<RemoteCursor>(
      this, std::move(server), config_.row_prefetch, control, faulted));
}

Status Connection::BulkLoad(const std::string& table,
                            const std::vector<Tuple>& rows,
                            const QueryControlPtr& control) {
  const auto wire = AcquireWire();
  TANGO_RETURN_IF_ERROR(StatementGate("BULKLOAD " + table, control, nullptr));
  // Client side chunks the rows into column-packed blocks — the SQL*Loader
  // data file crosses the wire as one CRC frame per block — and the server
  // verifies, decodes, and direct-path loads.
  const size_t chunk =
      config_.row_prefetch == 0 ? size_t{1} : config_.row_prefetch;
  std::vector<Tuple> decoded;
  decoded.reserve(rows.size());
  RowBlock block(chunk);
  for (size_t base = 0; base < rows.size(); base += chunk) {
    block.Clear();
    const size_t end = std::min(rows.size(), base + chunk);
    for (size_t i = base; i < end; ++i) block.AppendRow(rows[i]);
    WireWriter writer;
    writer.BeginFrame();
    writer.PutRowBlock(block);
    writer.SealFrame();
    const std::vector<uint8_t> framed = writer.Take();
    counters_.bytes_to_server += framed.size();
    if (m_bytes_to_server_ != nullptr) {
      m_bytes_to_server_->Increment(framed.size());
    }
    CountBlock();
    Spin(static_cast<double>(framed.size()) / config_.bytes_per_second);
    const uint8_t* payload = nullptr;
    size_t len = 0;
    Status frame = WireFrame::Check(framed, &payload, &len);
    if (!frame.ok()) {
      return Status::Unavailable("bulk-load block garbled on the wire: " +
                                 frame.message());
    }
    WireReader reader(payload, len);
    RowBlock in;
    Result<size_t> got = reader.GetRowBlock(&in);
    if (!got.ok()) {
      return Status::Unavailable("bulk-load block undecodable: " +
                                 got.status().message());
    }
    Tuple t;
    for (size_t i = 0; i < in.rows(); ++i) {
      in.MoveRowTo(i, &t);
      decoded.push_back(std::move(t));
    }
  }
  const auto engine = AcquireEngine();
  return engine_->BulkLoad(table, decoded);
}

Status Connection::InsertLoad(const std::string& table,
                              const std::vector<Tuple>& rows,
                              const QueryControlPtr& control) {
  // One INSERT statement (round trip) per tuple — the paper's "inefficient
  // for large amounts of data" alternative.
  for (const Tuple& t : rows) {
    std::string sql = "INSERT INTO " + table + " VALUES (";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += t[i].ToSqlLiteral();
    }
    sql += ")";
    const auto wire = AcquireWire();
    TANGO_RETURN_IF_ERROR(StatementGate(sql, control, nullptr));
    const auto engine = AcquireEngine();
    TANGO_RETURN_IF_ERROR(engine_->Execute(sql, session_).status());
  }
  return Status::OK();
}

Result<TableStats> Connection::GetTableStats(const std::string& table) {
  const auto wire = AcquireWire();
  PaceRoundTrip();
  const auto engine = AcquireEngineShared();
  TANGO_ASSIGN_OR_RETURN(const Table* t, engine_->catalog().GetTable(table));
  // The staleness fields come from the live table, not the (possibly old)
  // ANALYZE output: a reader compares the epoch it cached statistics at
  // against the epoch it sees now.
  TableStats stats = t->stats();
  stats.epoch = t->stats_epoch();
  stats.mods_since_analyze = t->mods_since_analyze();
  return stats;
}

Result<Schema> Connection::GetTableSchema(const std::string& table) {
  const auto wire = AcquireWire();
  PaceRoundTrip();
  const auto engine = AcquireEngineShared();
  TANGO_ASSIGN_OR_RETURN(const Table* t, engine_->catalog().GetTable(table));
  return t->schema();
}

Result<std::vector<std::string>> Connection::ListTables(
    const std::string& prefix) {
  const auto wire = AcquireWire();
  PaceRoundTrip();
  const auto engine = AcquireEngineShared();
  std::vector<std::string> names;
  for (const std::string& name : engine_->catalog().TableNames()) {
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  return names;
}

Result<size_t> Connection::ReclaimWalSegments() {
  const auto wire = AcquireWire();
  PaceRoundTrip();
  const auto engine = AcquireEngine();
  return engine_->ReclaimWalSegments();
}

}  // namespace dbms
}  // namespace tango
