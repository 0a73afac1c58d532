#include "net/polling_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace tango {
namespace net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Sends the whole buffer on a non-blocking socket, waiting for POLLOUT on
/// a full send buffer. A peer that stalls the write side for 10 s is
/// treated as dead — the worker must not be pinned forever by one client.
bool SendAllBytes(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t sent =
        ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{};
      p.fd = fd;
      p.events = POLLOUT;
      if (::poll(&p, 1, 10000) <= 0) return false;
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

/// Per-connection state. The poll thread owns `fd`, `admitted` and the
/// frame assembler; `mu` guards the request pipeline (pending queue, busy
/// flag, the in-flight control); `send_mu` serializes response frames and
/// fences `open` against a concurrent teardown. `stmts` needs no lock: one
/// session serves at most one request at a time, so only the worker holding
/// that request touches it.
struct PollingServer::Session {
  int fd = -1;
  uint64_t id = 0;
  bool admitted = false;
  FrameAssembler assembler;

  struct PendingRequest {
    Message request;
    QueryControlPtr control;
  };

  std::mutex mu;
  std::deque<PendingRequest> pending;
  bool busy = false;
  QueryControlPtr current_control;

  /// Cancels the in-flight request's control and every pending one. The
  /// caller holds `mu`.
  void CancelAllLocked() {
    if (current_control != nullptr) current_control->Cancel();
    for (PendingRequest& p : pending) {
      if (p.control != nullptr) p.control->Cancel();
    }
  }

  std::mutex send_mu;
  std::atomic<bool> open{true};

  std::map<uint32_t, Middleware::Prepared> stmts;
  uint32_t next_stmt_id = 1;
};

/// \brief The server's ResultSink: one execution streamed to its client as
/// SCHEMA, ROWBLOCK* and DONE (DESIGN.md §14).
///
/// Each root block is encoded straight into a ROWBLOCK frame (or several,
/// when one would exceed `kMaxFrameBytes`), and one block's frames are held
/// back until the next block arrives or DONE is sent. So SCHEMA leaves with
/// the first ROWBLOCK (a failure before any block is a lone ERROR, and a
/// degraded re-run's schema replaces one nobody saw), and a one-block reply
/// leaves in one send: SCHEMA, ROWBLOCK and DONE back to back. Per request
/// the server holds at most this one encoded block.
class PollingServer::ResultStream final : public Middleware::ResultSink {
 public:
  ResultStream(PollingServer* server, SessionPtr session,
               Clock::time_point request_start)
      : server_(server),
        session_(std::move(session)),
        request_start_(request_start) {}

  void OnSchema(const Schema& schema) override {
    Message message;
    message.type = MsgType::kSchema;
    message.columns.reserve(schema.num_columns());
    for (const Column& column : schema.columns()) {
      message.columns.emplace_back(column.QualifiedName(),
                                   static_cast<uint8_t>(column.type));
    }
    pending_ = EncodeMessage(message);
  }

  Status OnBlock(RowBlock* block) override {
    const Clock::time_point start = Clock::now();
    Status sent = Status::OK();
    if (rows_ > 0) sent = Send();
    if (sent.ok()) {
      Result<std::vector<uint8_t>> frames = EncodeRowBlockFrames(*block);
      if (frames.ok()) {
        rows_ += block->rows();
        Append(frames.MoveValueOrDie());
      } else {
        sent = frames.status();
      }
    }
    sink_seconds_ += std::chrono::duration<double>(Clock::now() - start).count();
    return sent;
  }

  /// Sends the held block (or, for an empty result, the schema) and DONE.
  /// DONE's elapsed time is the execution's without this sink's encoding
  /// and sending: execution, not shipping.
  Status Finish(const Middleware::Execution& result, const char* plan_source) {
    Message done;
    done.type = MsgType::kDone;
    done.rows = rows_;
    done.elapsed_seconds =
        std::max(0.0, result.elapsed_seconds - sink_seconds_);
    done.degraded = result.degraded;
    done.plan_source = plan_source;
    Append(EncodeMessage(done));
    return Send();
  }

 private:
  void Append(std::vector<uint8_t> frame) {
    if (pending_.empty()) {
      pending_ = std::move(frame);
    } else {
      pending_.insert(pending_.end(), frame.begin(), frame.end());
    }
  }

  Status Send() {
    if (!server_->SendBytes(session_, pending_)) {
      return Status::IOError("client gone");
    }
    pending_.clear();
    if (!first_sent_) {
      first_sent_ = true;
      server_->m_first_block_seconds_->Record(
          std::chrono::duration<double>(Clock::now() - request_start_)
              .count());
    }
    return Status::OK();
  }

  PollingServer* server_;
  SessionPtr session_;
  Clock::time_point request_start_;
  /// Encoded, not yet sent: SCHEMA until the first send, then the held
  /// ROWBLOCK.
  std::vector<uint8_t> pending_;
  uint64_t rows_ = 0;
  bool first_sent_ = false;
  double sink_seconds_ = 0;
};

PollingServer::PollingServer(dbms::Engine* engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      owned_metrics_(config_.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      middleware_(engine, [this] {
        Middleware::Config middleware = config_.middleware;
        middleware.metrics = metrics_;
        return middleware;
      }()) {
  if (config_.trace != nullptr) middleware_.set_trace_recorder(config_.trace);
  m_sessions_ = &metrics_->gauge("server.sessions", /*expect_zero=*/true);
  m_queue_depth_ =
      &metrics_->gauge("server.queue_depth", /*expect_zero=*/true);
  m_admitted_ = &metrics_->counter("server.sessions_admitted");
  m_rejected_ = &metrics_->counter("server.sessions_rejected");
  m_busy_ = &metrics_->counter("server.busy_rejections");
  m_requests_ = &metrics_->counter("server.requests");
  m_protocol_errors_ = &metrics_->counter("server.protocol_errors");
  m_request_seconds_ = &metrics_->histogram("server.request_seconds");
  m_first_block_seconds_ =
      &metrics_->histogram("server.first_block_seconds");
}

PollingServer::~PollingServer() { Stop(); }

Status PollingServer::Start() {
  if (running_.load()) return Status::Internal("server already running");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind/listen failed on " + config_.host + ":" +
                           std::to_string(config_.port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("pipe() failed");
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  // Statistics of the tables that exist, collected once, so the first
  // queries do not pay for them.
  std::vector<std::string> tables;
  for (const std::string& t : engine_->catalog().TableNames()) {
    if (t.rfind("TANGO_TMP", 0) != 0) tables.push_back(t);
  }
  if (!tables.empty()) (void)middleware_.CollectStatistics(tables);

  running_.store(true);
  stopping_.store(false);
  const size_t num_workers = config_.workers == 0 ? 1 : config_.workers;
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&PollingServer::WorkerLoop, this);
  }
  poll_thread_ = std::thread(&PollingServer::PollLoop, this);
  return Status::OK();
}

void PollingServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Wake the poll loop out of poll(2); it re-checks stopping_ and exits.
  (void)!::write(wake_pipe_[1], "x", 1);
  if (poll_thread_.joinable()) poll_thread_.join();

  // The poll thread is gone — sessions_ is now safe to walk from here.
  // Cancel every outstanding query so workers unwind promptly; their own
  // stopping_ check fails whatever is still queued with UNAVAILABLE.
  for (auto& [fd, session] : sessions_) {
    std::lock_guard<std::mutex> lock(session->mu);
    session->CancelAllLocked();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  std::vector<SessionPtr> remaining;
  remaining.reserve(sessions_.size());
  for (auto& [fd, session] : sessions_) remaining.push_back(session);
  for (auto& session : remaining) CloseSession(session);

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void PollingServer::PollLoop() {
  std::vector<pollfd> fds;
  while (!stopping_.load()) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, session] : sessions_) fds.push_back({fd, POLLIN, 0});

    const int rc = ::poll(fds.data(), fds.size(), 1000);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;
    if (rc == 0) continue;

    if (fds[0].revents != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) AcceptNewSessions();

    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const auto it = sessions_.find(fds[i].fd);
      if (it == sessions_.end()) continue;
      SessionPtr session = it->second;
      if (!ReadSession(session) || !session->open.load()) {
        CloseSession(session);
      }
    }
  }
}

void PollingServer::AcceptNewSessions() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: accepted everything pending.
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = next_session_id_++;
    sessions_[fd] = session;
    m_sessions_->Increment();
  }
}

bool PollingServer::ReadSession(const SessionPtr& session) {
  constexpr size_t kChunk = FrameAssembler::kReadBytes;
  for (;;) {
    uint8_t* room = session->assembler.Reserve(kChunk);
    const ssize_t n = ::recv(session->fd, room, kChunk, 0);
    if (n > 0) {
      session->assembler.Commit(static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kChunk) break;
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  for (;;) {
    const uint8_t* payload = nullptr;
    size_t len = 0;
    auto next = session->assembler.Next(&payload, &len);
    if (!next.ok()) {
      // Corrupt frame: the stream cannot be resynchronized. Tell the
      // client why (best effort) and drop the connection.
      m_protocol_errors_->Increment();
      SendFrame(session, ErrorMessage(next.status()));
      return false;
    }
    if (!next.ValueOrDie()) return true;  // need more bytes
    auto message = DecodeMessage(payload, len);
    if (!message.ok()) {
      m_protocol_errors_->Increment();
      SendFrame(session, ErrorMessage(message.status()));
      return false;
    }
    if (!DispatchMessage(session, message.MoveValueOrDie())) return false;
  }
}

bool PollingServer::DispatchMessage(const SessionPtr& session,
                                    Message message) {
  if (!session->admitted) {
    if (message.type != MsgType::kHello) {
      m_protocol_errors_->Increment();
      SendFrame(session, ErrorMessage(Status::InvalidArgument(
                             "expected HELLO, got " +
                             std::string(MsgTypeName(message.type)))));
      return false;
    }
    if (message.protocol_version != kProtocolVersion) {
      m_protocol_errors_->Increment();
      SendFrame(session, ErrorMessage(Status::InvalidArgument(
                             "protocol version mismatch: client " +
                             std::to_string(message.protocol_version) +
                             ", server " + std::to_string(kProtocolVersion))));
      return false;
    }
    // Admission: the session bound.
    if (admitted_count_ >= config_.max_sessions) {
      m_rejected_->Increment();
      Message rejected;
      rejected.type = MsgType::kRejected;
      rejected.text = "session limit reached (" +
                      std::to_string(config_.max_sessions) + ")";
      SendFrame(session, rejected);
      return false;
    }
    session->admitted = true;
    ++admitted_count_;
    m_admitted_->Increment();
    Message welcome;
    welcome.type = MsgType::kWelcome;
    welcome.protocol_version = kProtocolVersion;
    welcome.text = config_.server_name;
    return SendFrame(session, welcome);
  }

  switch (message.type) {
    case MsgType::kPrepare:
    case MsgType::kExecute:
    case MsgType::kQuery:
      EnqueueRequest(session, std::move(message));
      return true;
    case MsgType::kCancel: {
      std::lock_guard<std::mutex> lock(session->mu);
      session->CancelAllLocked();
      return true;
    }
    case MsgType::kGoodbye: {
      {
        std::lock_guard<std::mutex> lock(session->mu);
        session->CancelAllLocked();
      }
      Message bye;
      bye.type = MsgType::kBye;
      SendFrame(session, bye);
      return false;  // caller closes
    }
    default:
      m_protocol_errors_->Increment();
      SendFrame(session, ErrorMessage(Status::InvalidArgument(
                             std::string("unexpected message ") +
                             MsgTypeName(message.type))));
      return false;
  }
}

void PollingServer::EnqueueRequest(const SessionPtr& session,
                                   Message message) {
  m_requests_->Increment();

  // Admission: backpressure off the queue-depth gauge. The client hears
  // BUSY (transient) instead of silently queueing behind a saturated pool.
  if (static_cast<size_t>(m_queue_depth_->load()) >= config_.queue_limit) {
    m_busy_->Increment();
    Message busy;
    busy.type = MsgType::kBusy;
    busy.text = "server queue saturated (" +
                std::to_string(config_.queue_limit) + " requests)";
    SendFrame(session, busy);
    return;
  }

  // Arm the control now, not when a worker picks the request up: a CANCEL
  // decoded before the worker starts must still hit, and queue wait counts
  // against the deadline.
  QueryControlPtr control;
  if (message.type != MsgType::kPrepare) {
    control = std::make_shared<QueryControl>();
    if (message.deadline_seconds > 0) {
      control->SetDeadline(message.deadline_seconds);
    }
  }

  m_queue_depth_->Increment();
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->busy) {
      session->pending.push_back({std::move(message), std::move(control)});
    } else {
      session->busy = true;
      session->current_control = control;
      dispatch = true;
    }
  }
  if (dispatch) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back({session, std::move(message), std::move(control)});
    }
    queue_cv_.notify_one();
  }
}

void PollingServer::CloseSession(const SessionPtr& session) {
  size_t drained = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->CancelAllLocked();
    drained = session->pending.size();
    session->pending.clear();
  }
  if (drained > 0) m_queue_depth_->Decrement(static_cast<int64_t>(drained));

  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(session->send_mu);
    session->open.store(false);
    fd = session->fd;
    if (fd >= 0) {
      ::close(fd);
      session->fd = -1;
    }
  }
  if (fd >= 0 && sessions_.erase(fd) > 0) {
    m_sessions_->Decrement();
    if (session->admitted) --admitted_count_;
  }
}

void PollingServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load();
      });
      if (queue_.empty()) {
        if (stopping_.load()) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }

    ServeRequest(item);
    m_queue_depth_->Decrement();

    // In-order handoff: promote the session's next pending request, or
    // mark it idle. (CloseSession may have drained pending concurrently.)
    WorkItem next;
    bool have_next = false;
    {
      std::lock_guard<std::mutex> lock(item.session->mu);
      if (!item.session->pending.empty()) {
        auto& front = item.session->pending.front();
        next = WorkItem{item.session, std::move(front.request),
                        std::move(front.control)};
        item.session->pending.pop_front();
        item.session->current_control = next.control;
        have_next = true;
      } else {
        item.session->busy = false;
        item.session->current_control = nullptr;
      }
    }
    if (have_next) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(std::move(next));
      }
      queue_cv_.notify_one();
    }
  }
}

void PollingServer::ServeRequest(const WorkItem& item) {
  const Clock::time_point start = Clock::now();
  obs::SpanId span = obs::kNoSpan;
  if (config_.trace != nullptr) {
    span = config_.trace->StartSpan(
        std::string("server.") + MsgTypeName(item.request.type), "server");
  }

  Status status = Status::OK();
  if (stopping_.load()) {
    // Graceful shutdown: queued requests fail cleanly instead of running
    // against a dying server.
    status = Status::Unavailable("server shutting down");
    SendFrame(item.session, ErrorMessage(status));
  } else if (item.request.type == MsgType::kPrepare) {
    status = ServePrepare(item);
  } else {
    status = ServeExecute(item, start);
  }
  (void)status;

  if (config_.trace != nullptr) config_.trace->End(span);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  m_request_seconds_->Record(elapsed);
}

Status PollingServer::ServePrepare(const WorkItem& item) {
  auto prepared = middleware_.Prepare(item.request.text);
  if (!prepared.ok()) {
    SendFrame(item.session, ErrorMessage(prepared.status()));
    return prepared.status();
  }
  Message reply;
  reply.type = MsgType::kPrepared;
  reply.stmt_id = item.session->next_stmt_id++;
  reply.plan_source =
      Middleware::Prepared::SourceName(prepared.ValueOrDie().source);
  reply.fingerprint = prepared.ValueOrDie().fingerprint;
  item.session->stmts.emplace(reply.stmt_id, prepared.MoveValueOrDie());
  SendFrame(item.session, reply);
  return Status::OK();
}

Status PollingServer::ServeExecute(const WorkItem& item,
                                   Clock::time_point start) {
  const Middleware::Prepared* prepared = nullptr;
  Middleware::Prepared local;
  if (item.request.type == MsgType::kQuery) {
    // QUERY = Prepare + Execute on the worker, so DONE can report the plan
    // source (the cache's hit/miss provenance — "cached" on client B after
    // client A warmed the fingerprint).
    auto p = middleware_.Prepare(item.request.text);
    if (!p.ok()) {
      SendFrame(item.session, ErrorMessage(p.status()));
      return p.status();
    }
    local = p.MoveValueOrDie();
    prepared = &local;
  } else {
    const auto it = item.session->stmts.find(item.request.stmt_id);
    if (it == item.session->stmts.end()) {
      const Status status = Status::NotFound(
          "unknown statement id " + std::to_string(item.request.stmt_id));
      SendFrame(item.session, ErrorMessage(status));
      return status;
    }
    prepared = &it->second;
  }

  ResultStream stream(this, item.session, start);
  auto result = middleware_.Execute(*prepared, &stream, item.control);
  if (!result.ok()) {
    // After ROWBLOCKs too: the client drops the partial result. A gone
    // client (the stream's own failure) just misses this frame as well.
    SendFrame(item.session, ErrorMessage(result.status()));
    return result.status();
  }
  return stream.Finish(result.ValueOrDie(),
                       Middleware::Prepared::SourceName(prepared->source));
}

bool PollingServer::SendFrame(const SessionPtr& session,
                              const Message& message) {
  return SendBytes(session, EncodeMessage(message));
}

bool PollingServer::SendBytes(const SessionPtr& session,
                              const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(session->send_mu);
  if (!session->open.load() || session->fd < 0) return false;
  if (!SendAllBytes(session->fd, bytes.data(), bytes.size())) {
    // Peer gone: suppress further sends; the poll loop reaps the fd.
    session->open.store(false);
    return false;
  }
  return true;
}

}  // namespace net
}  // namespace tango
