#ifndef TANGO_EXEC_REPLAN_H_
#define TANGO_EXEC_REPLAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/cursor.h"
#include "common/status.h"
#include "common/value.h"

namespace tango {
namespace exec {

/// \brief Checkpoint installed on a transfer cursor by the plan compiler.
///
/// `planned_rows` is the *planning-time* estimate captured in CompiledNode
/// when the executing plan was compiled — NOT re-read from any shared state.
/// This anchors the replan trigger to the estimates of the plan actually
/// running: a feedback-corrected (or mid-query replanned) plan carries
/// corrected estimates, so it does not re-trigger on the same cardinality.
struct ReplanCheckpoint {
  /// Timing id of the transfer's CompiledNode (identifies the cut node).
  size_t timing_id = 0;
  /// Memo group key of the transfer (adapt::FeedbackStore observation key).
  uint64_t node_key = 0;
  /// Planning-time cardinality estimate of the transferred relation.
  double planned_rows = 0;
  /// 'M' for TRANSFER^M, 'D' for TRANSFER^D.
  char direction = 'M';
};

/// \brief A triggered mid-query replan: the checkpoint that fired, the exact
/// observed cardinality, and the fully materialized intermediate rows.
struct ReplanRequest {
  ReplanCheckpoint checkpoint;
  uint64_t actual_rows = 0;
  std::shared_ptr<const std::vector<Tuple>> rows;
};

/// \brief Per-execution arbiter for mid-query re-optimization.
///
/// Several transfers of one plan may observe a mis-estimate; exactly one
/// may win the replan. A transfer first calls Claim() — the winner
/// materializes its remainder, Fulfill()s the request, and unwinds the
/// cursor tree with StatusCode::kReplan; losers keep executing normally
/// from their retained buffer. Claim/Fulfill/Take lock, so the protocol
/// holds whichever thread each transfer runs on.
class ReplanMonitor {
 public:
  /// `qerror_bound` < 1 disables triggering entirely (Claim always fails).
  explicit ReplanMonitor(double qerror_bound) : bound_(qerror_bound) {}

  double bound() const { return bound_; }
  bool enabled() const { return bound_ >= 1.0; }

  /// True when the Q-error of `actual` vs `planned` exceeds the bound
  /// (both sides floored at one row, like obs::QError).
  bool ShouldTrigger(double planned, uint64_t actual) const {
    if (!enabled()) return false;
    const double est = planned < 1 ? 1 : planned;
    const double act = actual < 1 ? 1 : static_cast<double>(actual);
    const double q = est > act ? est / act : act / est;
    return q > bound_;
  }

  /// Atomically become THE replanning transfer of this execution. False when
  /// disabled or another transfer already claimed.
  bool Claim() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled() || claimed_) return false;
    claimed_ = true;
    return true;
  }

  /// Deposits the request; only the Claim() winner may call this.
  void Fulfill(ReplanRequest request) {
    std::lock_guard<std::mutex> lock(mu_);
    request_ = std::move(request);
  }

  bool triggered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return claimed_;
  }

  /// Takes the fulfilled request (empty when no transfer triggered, or the
  /// claimant died before fulfilling).
  std::optional<ReplanRequest> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::optional<ReplanRequest> out = std::move(request_);
    request_.reset();
    return out;
  }

 private:
  const double bound_;
  mutable std::mutex mu_;
  bool claimed_ = false;
  std::optional<ReplanRequest> request_;
};

/// \brief Leaf cursor over a materialized intermediate (Algorithm::kBufferM).
///
/// Serves the shared, immutable buffer a triggered transfer retained —
/// without copying it; rows are copied out per block like a cache hit in
/// TransferMCursor. Reusable: re-Init rewinds to the first row.
class BufferScanCursor : public Cursor {
 public:
  BufferScanCursor(Schema schema,
                   std::shared_ptr<const std::vector<Tuple>> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const override { return schema_; }

  Status Init() override {
    if (rows_ == nullptr) return Status::Internal("intermediate buffer gone");
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Tuple* row) override {
    if (pos_ >= rows_->size()) return false;
    *row = (*rows_)[pos_++];
    return true;
  }

  Result<size_t> NextBatch(RowBlock* block) override {
    block->Clear();
    while (pos_ < rows_->size() && !block->full()) {
      block->AppendRow((*rows_)[pos_++]);
    }
    return block->rows();
  }

 private:
  const Schema schema_;
  const std::shared_ptr<const std::vector<Tuple>> rows_;
  size_t pos_ = 0;
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_REPLAN_H_
