#ifndef TANGO_NET_CLIENT_H_
#define TANGO_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "net/protocol.h"

namespace tango {
namespace net {

/// \brief Blocking TANGO client over the §14 wire protocol.
///
/// One Client is one session: Connect performs the HELLO/WELCOME
/// handshake, Prepare/Execute/Query run the request/response state machine,
/// Close says GOODBYE. Not thread-safe, with one deliberate exception:
/// `Cancel()` may be called from another thread while Execute/Query blocks
/// on the result stream — cancelling is the client's only way to interrupt
/// its own in-flight query.
///
/// Admission pushback surfaces as Status: a REJECTED handshake or a BUSY
/// reply both map to kUnavailable (transient — back off and retry), with
/// the server's reason as the message.
class Client {
 public:
  struct Config {
    /// Safety net on every blocking receive; 0 disables. A server that
    /// stops responding surfaces as kIOError instead of a hang.
    double recv_timeout_seconds = 30;
    std::string client_name = "tango-client";
  };

  Client() = default;
  explicit Client(Config config) : config_(std::move(config)) {}
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and handshakes. The server's name lands in `server_name()`.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  const std::string& server_name() const { return server_name_; }

  /// One column of a result schema as sent by the server.
  struct ResultColumn {
    std::string name;
    uint8_t type = 0;  // DataType
  };

  /// One executed query's full reply.
  struct QueryResult {
    std::vector<ResultColumn> columns;
    std::vector<Tuple> rows;
    double elapsed_seconds = 0;
    bool degraded = false;
    /// Plan provenance: "fresh" | "cached" | "reoptimized".
    std::string plan_source;
  };

  /// Server-side prepare; returns the statement id to Execute with.
  Result<uint32_t> Prepare(const std::string& tsql);
  /// Plan source / fingerprint of the last successful Prepare.
  const std::string& last_plan_source() const { return last_plan_source_; }
  uint64_t last_fingerprint() const { return last_fingerprint_; }

  /// Executes a prepared statement; `deadline_seconds` <= 0 means none.
  Result<QueryResult> Execute(uint32_t stmt_id, double deadline_seconds = 0);

  /// Prepare + Execute in one round trip.
  Result<QueryResult> Query(const std::string& tsql,
                            double deadline_seconds = 0);

  /// Best-effort cancel of the in-flight query (safe from another thread);
  /// the blocked Execute/Query then returns the server's kAborted error.
  Status Cancel();

  /// GOODBYE/BYE (best effort) + socket close. Idempotent.
  void Close();

 private:
  Status SendMessage(const Message& message);
  /// Receives the next frame and decodes it (BUSY becomes kUnavailable).
  Result<Message> Recv();
  /// Drives the EXECUTE/QUERY response stream to DONE.
  Result<QueryResult> CollectResult();

  Config config_;
  int fd_ = -1;
  FrameAssembler assembler_;
  std::string server_name_;
  std::string last_plan_source_;
  uint64_t last_fingerprint_ = 0;
};

}  // namespace net
}  // namespace tango

#endif  // TANGO_NET_CLIENT_H_
