#include "net/protocol.h"

#include <algorithm>
#include <cstring>

namespace tango {
namespace net {

namespace {

bool KnownType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kBye);
}

/// Appends one sealed ROWBLOCK frame to `w`, straight from the block,
/// without copying its rows into a Message.
void EncodeRowBlock(const RowBlock& block, WireWriter* w) {
  w->BeginFrame();
  w->PutU8(static_cast<uint8_t>(MsgType::kRowBlock));
  w->PutRowBlock(block);
  w->SealFrame();
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kPrepare: return "PREPARE";
    case MsgType::kExecute: return "EXECUTE";
    case MsgType::kQuery: return "QUERY";
    case MsgType::kCancel: return "CANCEL";
    case MsgType::kGoodbye: return "GOODBYE";
    case MsgType::kWelcome: return "WELCOME";
    case MsgType::kRejected: return "REJECTED";
    case MsgType::kPrepared: return "PREPARED";
    case MsgType::kSchema: return "SCHEMA";
    case MsgType::kRowBlock: return "ROWBLOCK";
    case MsgType::kDone: return "DONE";
    case MsgType::kError: return "ERROR";
    case MsgType::kBusy: return "BUSY";
    case MsgType::kBye: return "BYE";
  }
  return "UNKNOWN";
}

Result<std::vector<uint8_t>> EncodeRowBlockFrames(const RowBlock& block) {
  WireWriter whole;
  EncodeRowBlock(block, &whole);
  if (whole.size() - WireFrame::kHeaderBytes <= kMaxFrameBytes) {
    return whole.Take();
  }
  // Too big for one frame: cut the rows into consecutive runs whose frames
  // each fit, sizing every row exactly as PutRowBlock will encode it.
  constexpr size_t kHeaderBytes = 1 + 4 + 4;  // message type, rows, columns
  WireWriter frames;
  RowBlock piece;
  size_t bytes = kHeaderBytes;
  Tuple row;
  for (size_t r = 0; r < block.rows(); ++r) {
    size_t row_bytes = 0;
    for (size_t c = 0; c < block.columns(); ++c) {
      row_bytes += WireWriter::ValueSize(block.At(r, c));
    }
    if (kHeaderBytes + row_bytes > kMaxFrameBytes) {
      return Status::NotSupported(
          "a result row encodes to " +
          std::to_string(kHeaderBytes + row_bytes) +
          " bytes, over the protocol's " + std::to_string(kMaxFrameBytes) +
          "-byte frame limit");
    }
    if (bytes + row_bytes > kMaxFrameBytes) {
      EncodeRowBlock(piece, &frames);
      piece.Clear();
      bytes = kHeaderBytes;
    }
    block.CopyRowTo(r, &row);
    piece.AppendRow(std::move(row));
    bytes += row_bytes;
  }
  EncodeRowBlock(piece, &frames);
  return frames.Take();
}

std::vector<uint8_t> EncodeMessage(const Message& message) {
  WireWriter w;
  if (message.type == MsgType::kRowBlock) {
    EncodeRowBlock(message.block, &w);
    return w.Take();
  }
  w.BeginFrame();
  w.PutU8(static_cast<uint8_t>(message.type));
  switch (message.type) {
    case MsgType::kHello:
    case MsgType::kWelcome:
      w.PutU32(message.protocol_version);
      w.PutString(message.text);
      break;
    case MsgType::kPrepare:
      w.PutString(message.text);
      break;
    case MsgType::kExecute:
      w.PutU32(message.stmt_id);
      w.PutDouble(message.deadline_seconds);
      break;
    case MsgType::kQuery:
      w.PutString(message.text);
      w.PutDouble(message.deadline_seconds);
      break;
    case MsgType::kCancel:
    case MsgType::kGoodbye:
    case MsgType::kBye:
      break;
    case MsgType::kRejected:
    case MsgType::kBusy:
      w.PutString(message.text);
      break;
    case MsgType::kPrepared:
      w.PutU32(message.stmt_id);
      w.PutString(message.plan_source);
      w.PutI64(static_cast<int64_t>(message.fingerprint));
      break;
    case MsgType::kSchema:
      w.PutU32(static_cast<uint32_t>(message.columns.size()));
      for (const auto& [name, type] : message.columns) {
        w.PutString(name);
        w.PutU8(type);
      }
      break;
    case MsgType::kRowBlock:
      break;  // encoded by EncodeRowBlock above
    case MsgType::kDone:
      w.PutI64(static_cast<int64_t>(message.rows));
      w.PutDouble(message.elapsed_seconds);
      w.PutU8(message.degraded ? 1 : 0);
      w.PutString(message.plan_source);
      break;
    case MsgType::kError:
      w.PutU8(message.status_code);
      w.PutString(message.text);
      break;
  }
  w.SealFrame();
  return w.Take();
}

Result<Message> DecodeMessage(const uint8_t* payload, size_t len) {
  WireReader r(payload, len);
  auto type_byte = r.GetU8();
  if (!type_byte.ok()) return type_byte.status();
  if (!KnownType(type_byte.ValueOrDie())) {
    return Status::IOError("protocol: unknown message type " +
                           std::to_string(static_cast<int>(type_byte.ValueOrDie())));
  }
  Message m;
  m.type = static_cast<MsgType>(type_byte.ValueOrDie());

  // Reads a field or propagates the truncation as a clean status.
#define TANGO_NET_READ(target, expr)            \
  do {                                          \
    auto v_ = (expr);                           \
    if (!v_.ok()) return v_.status();           \
    (target) = v_.MoveValueOrDie();                  \
  } while (0)

  switch (m.type) {
    case MsgType::kHello:
    case MsgType::kWelcome:
      TANGO_NET_READ(m.protocol_version, r.GetU32());
      TANGO_NET_READ(m.text, r.GetString());
      break;
    case MsgType::kPrepare:
      TANGO_NET_READ(m.text, r.GetString());
      break;
    case MsgType::kExecute:
      TANGO_NET_READ(m.stmt_id, r.GetU32());
      TANGO_NET_READ(m.deadline_seconds, r.GetDouble());
      break;
    case MsgType::kQuery:
      TANGO_NET_READ(m.text, r.GetString());
      TANGO_NET_READ(m.deadline_seconds, r.GetDouble());
      break;
    case MsgType::kCancel:
    case MsgType::kGoodbye:
    case MsgType::kBye:
      break;
    case MsgType::kRejected:
    case MsgType::kBusy:
      TANGO_NET_READ(m.text, r.GetString());
      break;
    case MsgType::kPrepared: {
      TANGO_NET_READ(m.stmt_id, r.GetU32());
      TANGO_NET_READ(m.plan_source, r.GetString());
      int64_t fp = 0;
      TANGO_NET_READ(fp, r.GetI64());
      m.fingerprint = static_cast<uint64_t>(fp);
      break;
    }
    case MsgType::kSchema: {
      uint32_t ncols = 0;
      TANGO_NET_READ(ncols, r.GetU32());
      // Each column costs at least 5 bytes (length prefix + type tag); a
      // forged count past that cannot be satisfied by the payload.
      if (ncols > len / 5) {
        return Status::IOError("protocol: forged schema column count");
      }
      m.columns.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        std::string name;
        uint8_t type = 0;
        TANGO_NET_READ(name, r.GetString());
        TANGO_NET_READ(type, r.GetU8());
        m.columns.emplace_back(std::move(name), type);
      }
      break;
    }
    case MsgType::kRowBlock: {
      auto rows = r.GetRowBlock(&m.block);
      if (!rows.ok()) return rows.status();
      break;
    }
    case MsgType::kDone: {
      int64_t rows = 0;
      TANGO_NET_READ(rows, r.GetI64());
      if (rows < 0) return Status::IOError("protocol: negative row count");
      m.rows = static_cast<uint64_t>(rows);
      TANGO_NET_READ(m.elapsed_seconds, r.GetDouble());
      uint8_t degraded = 0;
      TANGO_NET_READ(degraded, r.GetU8());
      m.degraded = degraded != 0;
      TANGO_NET_READ(m.plan_source, r.GetString());
      break;
    }
    case MsgType::kError:
      TANGO_NET_READ(m.status_code, r.GetU8());
      TANGO_NET_READ(m.text, r.GetString());
      break;
  }
#undef TANGO_NET_READ

  if (!r.AtEnd()) {
    return Status::IOError("protocol: trailing bytes after " +
                           std::string(MsgTypeName(m.type)));
  }
  return m;
}

Message ErrorMessage(const Status& status) {
  Message m;
  m.type = MsgType::kError;
  m.status_code = static_cast<uint8_t>(status.code());
  m.text = status.message();
  return m;
}

Status StatusFromError(const Message& message) {
  return Status(static_cast<StatusCode>(message.status_code), message.text);
}

uint8_t* FrameAssembler::Reserve(size_t n) {
  if (buf_.size() - end_ < n) {
    // Out of room: move the unread bytes to the front first, so a
    // long-lived session's buffer grows only to its largest frame plus one
    // read, however many frames pass through it.
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    if (buf_.size() - end_ < n) buf_.resize(std::max(end_ + n, 2 * buf_.size()));
  }
  return buf_.data() + end_;
}

Result<bool> FrameAssembler::Next(const uint8_t** payload, size_t* len) {
  if (end_ - pos_ < WireFrame::kHeaderBytes) return false;

  uint32_t declared = 0;
  std::memcpy(&declared, buf_.data() + pos_, sizeof(declared));
  if (declared > kMaxFrameBytes) {
    return Status::IOError("protocol: frame length " +
                           std::to_string(declared) + " exceeds limit");
  }
  const size_t total = WireFrame::kHeaderBytes + declared;
  if (end_ - pos_ < total) return false;

  TANGO_RETURN_IF_ERROR(
      WireFrame::Check(buf_.data() + pos_, total, payload, len));
  pos_ += total;
  return true;
}

Result<bool> FrameAssembler::Next(std::vector<uint8_t>* payload) {
  const uint8_t* body = nullptr;
  size_t len = 0;
  TANGO_ASSIGN_OR_RETURN(const bool got, Next(&body, &len));
  if (got) payload->assign(body, body + len);
  return got;
}

}  // namespace net
}  // namespace tango
