#ifndef TANGO_DBMS_FAULT_H_
#define TANGO_DBMS_FAULT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace tango {
namespace dbms {

/// What the misbehaving environment does to one interaction.
enum class FaultKind {
  kNone,
  /// The statement round trip fails outright (server unreachable).
  kStatementFail,
  /// The statement succeeds but its server-side cursor dies mid-fetch.
  kCursorKill,
  /// A prefetch batch loses its tail on the link.
  kWireTruncate,
  /// A prefetch batch arrives with a flipped bit.
  kWireCorrupt,
  /// The round trip stalls (drives the deadline/timeout path).
  kLatencySpike,
  /// The server process dies before the WAL record at/after `wal_lsn`
  /// reaches the log buffer.
  kWalCrash,
  /// The WAL record at/after `wal_lsn` is torn: only a seeded prefix of its
  /// frame reaches the disk before the process dies.
  kWalTornWrite,
  /// The fsync at/after `wal_lsn` lies: only a seeded prefix of the pending
  /// log buffer persists before the process dies.
  kWalPartialFsync,
};

const char* FaultKindName(FaultKind kind);

/// When and how often a fault fires. Deterministic: statements crossing the
/// connection are numbered 0, 1, 2, ... from Arm(); the fault fires on every
/// matching event whose statement number is >= `statement_index` until
/// `times` firings have happened, then the injector disarms itself. With
/// `times` below the retry budget the query must recover; with `times` above
/// it the query must fail cleanly (or degrade to a fallback plan).
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  uint64_t statement_index = 0;
  /// For the cursor kinds: which prefetch batch of the faulted statement's
  /// cursor dies (0 = the first batch fetched).
  uint64_t batch_index = 0;
  /// Firings before the injector disarms; each re-issued statement (a retry)
  /// is a new event and consumes one firing.
  int times = 1;
  /// Only statements whose SQL contains this substring are faultable
  /// (empty = all). Lets a test target e.g. the TRANSFER^D CREATE without
  /// counting statement positions.
  std::string sql_substring;
  /// For the WAL kinds: the first log sequence number at which the fault may
  /// fire (0 = the very first logged record). Sweeping this over every lsn a
  /// workload produces yields the crash matrix.
  uint64_t wal_lsn = 0;
  double latency_seconds = 5e-3;
  /// Seeds the truncation point / flipped-bit choice.
  uint64_t seed = 0xfa017;
};

/// \brief Deterministic, seeded failure model for the middleware<->DBMS
/// boundary, consulted by `Connection` at every statement issue and by the
/// remote cursor at every prefetch batch.
///
/// Thread-safe: one injector may be attached to several Connections (and
/// to the engine) that are used from different threads.
class FaultInjector {
 public:
  /// Arms `plan` and resets the statement numbering.
  void Arm(FaultPlan plan);
  void Disarm();

  uint64_t statements_seen() const;
  uint64_t faults_fired() const;

  /// Outcome of the statement-issue hook.
  struct StatementDecision {
    Status inject;  // non-OK: fail the statement with this status
    double extra_latency_seconds = 0;
    /// The statement's result cursor should consult OnBatch.
    bool fault_result_cursor = false;
  };

  /// Called once per statement crossing the wire (Execute / ExecuteQuery /
  /// BulkLoad / InsertLoad), with the statement text for substring matching.
  StatementDecision OnStatement(const std::string& sql);

  /// What a faulted cursor does to one prefetch batch.
  enum class BatchFault { kNone, kKill, kTruncate, kCorrupt };

  /// Called by a faulted result cursor with its 0-based batch number; fires
  /// at most once per cursor (the caller stops consulting after a firing).
  BatchFault OnBatch(uint64_t batch_no);

  /// Seeded value driving the truncation point / bit choice; advances on
  /// every call so repeated corruptions differ deterministically.
  uint64_t NextSalt();

  /// Outcome of the WAL device hooks (mirrors storage::WalFault without a
  /// dbms -> storage dependency in this header's clients).
  struct WalDecision {
    enum class Action { kNone, kCrash, kTorn, kPartialFsync };
    Action action = Action::kNone;
    /// Bytes of the frame / pending buffer that survive (kTorn /
    /// kPartialFsync).
    uint64_t keep_bytes = 0;
  };

  /// Called by the engine's log-device adapter: once per WAL append
  /// (is_sync = false, lsn = the record's lsn, bytes = its framed size) and
  /// once per WAL sync (is_sync = true, lsn = the log end, bytes = the
  /// pending-buffer size). kWalCrash and kWalTornWrite fire on appends,
  /// kWalPartialFsync on syncs, each at the first event with
  /// lsn >= plan.wal_lsn.
  WalDecision OnWal(bool is_sync, uint64_t lsn, uint64_t bytes);

 private:
  bool ArmedLocked() const {
    return plan_.kind != FaultKind::kNone && fired_ < plan_.times;
  }
  uint64_t NextSaltLocked();

  mutable std::mutex mu_;
  FaultPlan plan_;
  uint64_t statements_ = 0;
  int fired_ = 0;
  uint64_t total_fired_ = 0;
  uint64_t salt_state_ = 0;
};

using FaultInjectorPtr = std::shared_ptr<FaultInjector>;

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_FAULT_H_
