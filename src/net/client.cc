#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>

namespace tango {
namespace net {

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::Internal("client already connected");

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IOError("socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad server host " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (config_.recv_timeout_seconds > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(config_.recv_timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (config_.recv_timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  Message hello;
  hello.type = MsgType::kHello;
  hello.protocol_version = kProtocolVersion;
  hello.text = config_.client_name;
  Status sent = SendMessage(hello);
  if (!sent.ok()) {
    Close();
    return sent;
  }

  auto reply = Recv();
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply.ValueOrDie().type == MsgType::kRejected) {
    Close();
    return Status::Unavailable("admission rejected: " + reply.ValueOrDie().text);
  }
  if (reply.ValueOrDie().type != MsgType::kWelcome) {
    Close();
    return Status::IOError(std::string("handshake expected WELCOME, got ") +
                           MsgTypeName(reply.ValueOrDie().type));
  }
  if (reply.ValueOrDie().protocol_version != kProtocolVersion) {
    Close();
    return Status::IOError("server speaks protocol version " +
                           std::to_string(reply.ValueOrDie().protocol_version));
  }
  server_name_ = reply.ValueOrDie().text;
  return Status::OK();
}

Result<uint32_t> Client::Prepare(const std::string& tsql) {
  if (fd_ < 0) return Status::Internal("client not connected");
  Message request;
  request.type = MsgType::kPrepare;
  request.text = tsql;
  TANGO_RETURN_IF_ERROR(SendMessage(request));

  auto reply = Recv();
  if (!reply.ok()) return reply.status();
  if (reply.ValueOrDie().type == MsgType::kError) return StatusFromError(reply.ValueOrDie());
  if (reply.ValueOrDie().type != MsgType::kPrepared) {
    return Status::IOError(std::string("expected PREPARED, got ") +
                           MsgTypeName(reply.ValueOrDie().type));
  }
  last_plan_source_ = reply.ValueOrDie().plan_source;
  last_fingerprint_ = reply.ValueOrDie().fingerprint;
  return reply.ValueOrDie().stmt_id;
}

Result<Client::QueryResult> Client::Execute(uint32_t stmt_id,
                                            double deadline_seconds) {
  if (fd_ < 0) return Status::Internal("client not connected");
  Message request;
  request.type = MsgType::kExecute;
  request.stmt_id = stmt_id;
  request.deadline_seconds = deadline_seconds;
  TANGO_RETURN_IF_ERROR(SendMessage(request));
  return CollectResult();
}

Result<Client::QueryResult> Client::Query(const std::string& tsql,
                                          double deadline_seconds) {
  if (fd_ < 0) return Status::Internal("client not connected");
  Message request;
  request.type = MsgType::kQuery;
  request.text = tsql;
  request.deadline_seconds = deadline_seconds;
  TANGO_RETURN_IF_ERROR(SendMessage(request));
  return CollectResult();
}

Status Client::Cancel() {
  if (fd_ < 0) return Status::Internal("client not connected");
  Message request;
  request.type = MsgType::kCancel;
  // Deliberately bypasses SendMessage's single-thread assumptions: a CANCEL
  // is one small frame, and write(2) on a stream socket is atomic enough
  // for it to interleave safely with the blocked requester thread.
  const std::vector<uint8_t> frame = EncodeMessage(request);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("cancel send failed");
  }
  return Status::OK();
}

void Client::Close() {
  if (fd_ < 0) return;
  Message goodbye;
  goodbye.type = MsgType::kGoodbye;
  if (SendMessage(goodbye).ok()) {
    // Wait for BYE so the server logs an orderly close; tolerate anything.
    (void)Recv();
  }
  ::close(fd_);
  fd_ = -1;
  assembler_ = FrameAssembler();
}

Status Client::SendMessage(const Message& message) {
  const std::vector<uint8_t> frame = EncodeMessage(message);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("send failed (server gone?)");
  }
  return Status::OK();
}

Result<Message> Client::Recv() {
  for (;;) {
    const uint8_t* payload = nullptr;
    size_t len = 0;
    auto next = assembler_.Next(&payload, &len);
    if (!next.ok()) return next.status();
    if (next.ValueOrDie()) {
      auto message = DecodeMessage(payload, len);
      if (!message.ok()) return message.status();
      if (message.ValueOrDie().type == MsgType::kBusy) {
        return Status::Unavailable("server busy: " +
                                   message.ValueOrDie().text);
      }
      return message;
    }
    uint8_t* room = assembler_.Reserve(FrameAssembler::kReadBytes);
    const ssize_t n = ::recv(fd_, room, FrameAssembler::kReadBytes, 0);
    if (n > 0) {
      assembler_.Commit(static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("client recv timeout");
    }
    return Status::IOError("recv failed");
  }
}

Result<Client::QueryResult> Client::CollectResult() {
  QueryResult result;
  bool saw_schema = false;
  for (;;) {
    auto message = Recv();
    if (!message.ok()) return message.status();
    switch (message.ValueOrDie().type) {
      case MsgType::kSchema:
        result.columns.clear();
        result.columns.reserve(message.ValueOrDie().columns.size());
        for (auto& [name, type] : message.ValueOrDie().columns) {
          result.columns.push_back({std::move(name), type});
        }
        saw_schema = true;
        break;
      case MsgType::kRowBlock: {
        RowBlock& block = message.ValueOrDie().block;
        Tuple row;
        for (size_t r = 0; r < block.rows(); ++r) {
          block.MoveRowTo(r, &row);
          result.rows.push_back(std::move(row));
        }
        break;
      }
      case MsgType::kDone:
        if (!saw_schema) {
          return Status::IOError("DONE before SCHEMA in result stream");
        }
        result.elapsed_seconds = message.ValueOrDie().elapsed_seconds;
        result.degraded = message.ValueOrDie().degraded;
        result.plan_source = message.ValueOrDie().plan_source;
        if (result.rows.size() != message.ValueOrDie().rows) {
          return Status::IOError(
              "result stream lost rows: got " +
              std::to_string(result.rows.size()) + ", DONE declared " +
              std::to_string(message.ValueOrDie().rows));
        }
        return result;
      case MsgType::kError:
        return StatusFromError(message.ValueOrDie());
      default:
        return Status::IOError(std::string("unexpected ") +
                               MsgTypeName(message.ValueOrDie().type) +
                               " in result stream");
    }
  }
}

}  // namespace net
}  // namespace tango
