#ifndef TANGO_NET_PROTOCOL_H_
#define TANGO_NET_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"
#include "common/wire.h"

namespace tango {
namespace net {

/// \brief TANGO's client wire protocol (DESIGN.md §14).
///
/// Every message crosses the socket as one CRC-32 WireFrame —
/// `[u32 payload_len][u32 crc32][payload]`, exactly the framing the
/// middleware already uses on the DBMS boundary — whose payload starts with
/// a one-byte message type. Result rows ride in the same column-packed
/// RowBlock encoding as the T^M drain, so a result block is serialized once
/// and framed once regardless of how many rows it carries.
///
/// Session state machine (server side):
///
///   accept → HANDSHAKE --Hello/Welcome--> READY
///   READY  --Prepare--> READY (stmt registered)
///   READY  --Execute/Query--> EXECUTING --Schema,RowBlock*,Done|Error--> READY
///   EXECUTING --Cancel--> (in-flight QueryControl cancelled) → READY
///   READY  --Goodbye/Bye--> CLOSED
///
/// Admission control speaks in-band: a server over its session bound
/// answers the Hello with `Rejected`; a saturated worker queue answers
/// Prepare/Execute/Query with `Busy` (transient — the client may back off
/// and retry, mirroring StatusCode::kUnavailable semantics).

/// Protocol revision; the handshake echoes it and the server refuses
/// mismatches rather than guessing at frame layouts.
inline constexpr uint32_t kProtocolVersion = 2;

/// Hard bound on one frame's payload. A forged length header can therefore
/// never drive a large allocation: the assembler rejects the frame before
/// buffering it. A result block that would encode past it is split across
/// frames (`EncodeRowBlockFrames`).
inline constexpr size_t kMaxFrameBytes = 1u << 22;  // 4 MiB

enum class MsgType : uint8_t {
  // Client -> server.
  kHello = 1,    // u32 version, string client_name
  kPrepare = 2,  // string tsql
  kExecute = 3,  // u32 stmt_id, f64 deadline_seconds (0 = none)
  kQuery = 4,    // string tsql, f64 deadline_seconds — Prepare+Execute
  kCancel = 5,   // no body; cancels the session's in-flight execution
  kGoodbye = 6,  // no body
  // Server -> client.
  kWelcome = 7,   // u32 version, string server_name
  kRejected = 8,  // string reason (admission: session bound)
  kPrepared = 9,  // u32 stmt_id, string plan_source, u64 fingerprint
  kSchema = 10,   // u32 ncols, then per column: string name, u8 type
  kRowBlock = 11, // one column-packed RowBlock (WireWriter::PutRowBlock)
  kDone = 12,     // u64 rows, f64 elapsed, u8 degraded, string plan_source
  kError = 13,    // u8 status_code, string message
  kBusy = 14,     // string reason (admission: worker queue saturated)
  kBye = 15,      // no body
};

const char* MsgTypeName(MsgType type);

/// One decoded protocol message. A tagged struct rather than a variant:
/// only the fields of the active `type` are meaningful, everything else
/// stays default-initialized. Kept flat so the fuzzer can round-trip any
/// message through one code path.
struct Message {
  MsgType type = MsgType::kHello;

  // kHello / kWelcome
  uint32_t protocol_version = 0;
  // kHello client_name, kWelcome server_name, kPrepare/kQuery tsql,
  // kRejected/kBusy reason, kError message.
  std::string text;

  // kExecute / kPrepared
  uint32_t stmt_id = 0;
  // kExecute / kQuery
  double deadline_seconds = 0;

  // kPrepared / kDone
  std::string plan_source;
  // kPrepared
  uint64_t fingerprint = 0;

  // kSchema: (column name, DataType as u8) pairs.
  std::vector<std::pair<std::string, uint8_t>> columns;

  // kRowBlock
  RowBlock block;

  // kDone
  uint64_t rows = 0;
  double elapsed_seconds = 0;
  bool degraded = false;

  // kError
  uint8_t status_code = 0;
};

/// Encodes `message` and seals it into one wire frame ready to send.
std::vector<uint8_t> EncodeMessage(const Message& message);

/// Encodes `block` as sealed ROWBLOCK frames, back to back, each within
/// `kMaxFrameBytes`, straight from the block without copying its rows into
/// a Message: one frame when the whole block fits, else consecutive runs
/// of its rows (the server's result stream encodes each root block this
/// way). Fails when a single row does not fit in a frame.
Result<std::vector<uint8_t>> EncodeRowBlockFrames(const RowBlock& block);

/// Decodes one frame payload (already CRC-checked by the assembler).
/// Every failure is a clean Status — truncated bodies, forged counts and
/// unknown types must never crash the server (wire_fuzz_test's contract).
Result<Message> DecodeMessage(const uint8_t* payload, size_t len);

/// Convenience for Status -> kError message and back.
Message ErrorMessage(const Status& status);
Status StatusFromError(const Message& message);

/// \brief Splits a TCP byte stream into CRC-checked frame payloads.
///
/// Both the server's per-session input path and the client `recv` straight
/// into the assembler's buffer (`Reserve`, then `Commit`); `Next` yields one
/// payload per complete frame, where it lies in that buffer. A frame whose
/// declared length exceeds `kMaxFrameBytes` or whose CRC does not match is
/// a protocol violation: `Next` returns an error and the connection must be
/// dropped (the stream cannot be resynchronized).
class FrameAssembler {
 public:
  /// Bytes one `recv` into the assembler asks for.
  static constexpr size_t kReadBytes = 64 * 1024;

  /// Room for `n` more bytes at the end of the buffer, for `recv` to write
  /// into; `Commit` keeps the first of them that were filled. Moves the
  /// unread bytes to the front before it grows the buffer.
  uint8_t* Reserve(size_t n);
  void Commit(size_t n) { end_ += n; }

  /// Copies `n` received bytes in.
  void Append(const uint8_t* data, size_t n) {
    if (n == 0) return;  // `data` may be null then (an empty vector's data())
    std::memcpy(Reserve(n), data, n);
    Commit(n);
  }

  /// True: `*payload` and `*len` point at the next frame's payload inside
  /// the buffer, valid until the next Reserve or Append. False: the
  /// buffered bytes do not yet form a complete frame (read more). Error:
  /// violation.
  Result<bool> Next(const uint8_t** payload, size_t* len);
  /// Same, with the payload copied into `*payload`.
  Result<bool> Next(std::vector<uint8_t>* payload);

  size_t buffered_bytes() const { return end_ - pos_; }

 private:
  /// Bytes `[pos_, end_)` are received and not yet handed out; bytes from
  /// `end_` to the vector's size are room.
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

}  // namespace net
}  // namespace tango

#endif  // TANGO_NET_PROTOCOL_H_
