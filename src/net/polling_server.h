#ifndef TANGO_NET_POLLING_SERVER_H_
#define TANGO_NET_POLLING_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "dbms/engine.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tango/middleware.h"

namespace tango {
namespace net {

/// PollingServer knobs. `middleware` configures the server's one
/// Middleware; the server overrides only its metrics registry (the
/// server's).
struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks; read the bound port from `port()`.
  uint16_t port = 0;
  /// Worker threads; each serves one request at a time through the one
  /// Middleware, on a DBMS connection of the request's own.
  size_t workers = 4;
  /// Admission bound on concurrently admitted sessions: a Hello past this
  /// is answered with REJECTED and the connection closed.
  size_t max_sessions = 64;
  /// Backpressure bound on queued-but-unserved requests, checked against
  /// the server.queue_depth gauge: a request arriving past it is answered
  /// with BUSY (transient; the client may retry) instead of queued.
  size_t queue_limit = 128;
  /// The middleware's configuration (wire simulation, batch size, retry
  /// discipline...); its orphan sweep runs once, when the server is built.
  /// Cost-factor feedback (`adapt`) defaults OFF for the server: the
  /// service plans with the uncalibrated default factors, and feedback on
  /// them can move a plan mid-run (at the defaults, the full-scale paper
  /// Query 3's TJOIN^M plan leads its TJOIN^D plan by only 9 %).
  /// Cardinality feedback stays on: every worker records into, and
  /// re-optimizes from, the one middleware's observations.
  Middleware::Config middleware = DefaultWorkerConfig();

  static Middleware::Config DefaultWorkerConfig() {
    Middleware::Config config;
    config.adapt = false;
    return config;
  }
  /// Shared registry for server.*, plancache.* and all middleware series.
  /// Null = server-owned private registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, every request is recorded as a server.request span and the
  /// middleware records its optimize/compile/execute spans into the same
  /// recorder. Not owned; must outlive the server.
  obs::TraceRecorder* trace = nullptr;
  std::string server_name = "tango-server";
};

/// \brief TANGO as a network service: a poll(2)-driven TCP front end over a
/// pool of worker threads calling one Middleware (DESIGN.md §14).
///
/// Thread model:
///  - One poll thread owns the listen socket and every session's read side:
///    it accepts, splits the byte stream into frames, answers handshake and
///    admission traffic inline (HELLO/CANCEL/GOODBYE, REJECTED/BUSY), and
///    enqueues PREPARE/EXECUTE/QUERY work items.
///  - `workers` worker threads call the server's one Middleware, which
///    gives each in-flight request a dbms::Connection of its own. A worker
///    sends its session's responses directly (serialized per session by a
///    send mutex), so result streams never queue server-side.
///  - Requests of one session are served strictly in order (one in flight;
///    the rest wait in the session's pending queue), while different
///    sessions spread across the pool.
///
/// Cancellation: each EXECUTE/QUERY gets its QueryControl when the request
/// frame is *decoded*, so a CANCEL racing ahead of the worker still lands
/// (sticky cancel). Queue wait counts against the request deadline for the
/// same reason. Graceful Stop() cancels every outstanding control, fails
/// the queued remainder with UNAVAILABLE, and only then tears sessions down.
class PollingServer {
 public:
  PollingServer(dbms::Engine* engine, ServerConfig config);
  ~PollingServer();

  PollingServer(const PollingServer&) = delete;
  PollingServer& operator=(const PollingServer&) = delete;

  /// Binds, listens, collects the statistics of the tables that exist,
  /// boots the worker pool and starts the poll loop. Fails cleanly when the
  /// port is taken.
  Status Start();

  /// Graceful shutdown: stop accepting, cancel in-flight queries, drain the
  /// queue with UNAVAILABLE replies, join workers, close sessions.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound TCP port (valid after Start; resolves port 0).
  uint16_t port() const { return port_; }

  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  struct Session;
  using SessionPtr = std::shared_ptr<Session>;
  class ResultStream;
  using Clock = std::chrono::steady_clock;

  /// One queued PREPARE/EXECUTE/QUERY.
  struct WorkItem {
    SessionPtr session;
    Message request;
    /// Armed at decode time for EXECUTE/QUERY (null for PREPARE).
    QueryControlPtr control;
  };

  void PollLoop();
  void WorkerLoop();

  /// Accept loop body: accepts until EAGAIN (non-blocking listen socket).
  void AcceptNewSessions();
  /// Drains readable bytes; decodes and dispatches complete frames.
  /// Returns false when the session must be torn down (EOF, protocol
  /// violation).
  bool ReadSession(const SessionPtr& session);
  /// One decoded client message, on the poll thread.
  bool DispatchMessage(const SessionPtr& session, Message message);
  /// Queues a request (or answers BUSY past the queue limit).
  void EnqueueRequest(const SessionPtr& session, Message message);
  void CloseSession(const SessionPtr& session);

  /// Worker side: serves one request end to end (reply frames included).
  void ServeRequest(const WorkItem& item);
  Status ServePrepare(const WorkItem& item);
  /// Streams the result from the root cursor to the socket as it is
  /// produced (ResultStream); `start` is when the worker took the request.
  Status ServeExecute(const WorkItem& item, Clock::time_point start);

  /// Frame send serialized on the session's send mutex; returns false (and
  /// marks the session broken) when the peer is gone.
  bool SendFrame(const SessionPtr& session, const Message& message);
  /// Same, for already-sealed frames (one or several back to back).
  bool SendBytes(const SessionPtr& session, const std::vector<uint8_t>& bytes);

  dbms::Engine* engine_;
  ServerConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  Middleware middleware_;

  int listen_fd_ = -1;
  /// Self-pipe waking the poll loop out of poll(2) for Stop().
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread poll_thread_;
  std::vector<std::thread> workers_;

  /// Poll-thread state: fd -> session.
  std::map<int, SessionPtr> sessions_;
  uint64_t next_session_id_ = 1;
  /// Sessions past the handshake (admission bound's denominator).
  size_t admitted_count_ = 0;

  /// Worker queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;

  // server.* instruments (shared registry).
  obs::Gauge* m_sessions_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_busy_ = nullptr;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_protocol_errors_ = nullptr;
  obs::Histogram* m_request_seconds_ = nullptr;
  obs::Histogram* m_first_block_seconds_ = nullptr;
};

}  // namespace net
}  // namespace tango

#endif  // TANGO_NET_POLLING_SERVER_H_
