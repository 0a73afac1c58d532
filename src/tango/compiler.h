#ifndef TANGO_TANGO_COMPILER_H_
#define TANGO_TANGO_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/retry.h"
#include "dbms/connection.h"
#include "exec/instrument.h"
#include "exec/transfer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/phys.h"

namespace tango {

/// An execution-ready plan (Figure 5): a cursor tree whose DBMS-resident
/// fragments have been rendered to SQL, one record per instrumented cursor
/// (children before parents, so the root's is the last), plus the
/// temporary tables to drop when the query finishes.
struct CompiledPlan {
  std::shared_ptr<exec::TimingSink> timings;
  std::vector<std::string> temp_tables;
  /// Shared store for identical TRANSFER^M statements (§7 refinement).
  std::shared_ptr<exec::TransferCache> transfer_cache;
  /// Declared last on purpose: members destruct in reverse declaration
  /// order, and every InstrumentedCursor in the tree holds a raw pointer
  /// into `timings`, so `root` must be destroyed first.
  CursorPtr root;
};

/// The SQL the plan's TRANSFER^M records issue, in record order.
std::vector<std::string> SqlStatements(const exec::TimingSink& timings);

/// \brief Builds the execution-ready plan from an optimized physical plan:
/// middleware algorithms become exec:: cursors, maximal DBMS fragments are
/// rendered to SQL behind TRANSFER^M cursors, and TRANSFER^D nodes get
/// unique temporary table names ("the name of the table created must be
/// unique, and the table must be dropped at the end of the query", §3.2).
class PlanCompiler {
 public:
  explicit PlanCompiler(dbms::Connection* conn) : conn_(conn) {}

  /// Memory budget for each SORT^M before it spills runs to disk (the
  /// paper's "support very large relations" enhancement).
  void set_sort_memory_budget(size_t bytes) { sort_budget_ = bytes; }

  /// Cancellation/deadline token threaded into every compiled transfer
  /// cursor (null = never cancelled).
  void set_query_control(QueryControlPtr control) {
    control_ = std::move(control);
  }
  /// Retry discipline for the transfer operators.
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  /// Recovery observability shared with the transfer operators (may be
  /// null; not owned).
  void set_recovery_counters(RecoveryCounters* counters) {
    counters_ = counters;
  }
  /// Name prefix for TRANSFER^D temporary tables. The middleware passes a
  /// per-execution prefix so a table leaked by a crashed run can never
  /// collide with a later query's temp names.
  void set_temp_prefix(std::string prefix) { temp_prefix_ = std::move(prefix); }

  /// Registry the compiled plan's transfer/cache metrics land in (may be
  /// null; not owned).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  /// Trace recorder for the compiled plan: every instrumented operator gets
  /// a pre-allocated span (begun at its Init), parented under `parent` or —
  /// for non-root operators — its parent operator's span.
  void set_trace(obs::TraceRecorder* trace, obs::SpanId parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

  Result<CompiledPlan> Compile(const optimizer::PhysPlanPtr& plan);

 private:
  Result<CursorPtr> CompileNode(const optimizer::PhysPlanPtr& node,
                                CompiledPlan* out, size_t* timing_id);
  Result<CursorPtr> CompileTransferM(const optimizer::PhysPlanPtr& node,
                                     CompiledPlan* out, size_t* timing_id);

  /// Wraps `cursor` in an InstrumentedCursor whose record carries `node`
  /// and, when tracing, the operator's span.
  CursorPtr Instrument(CursorPtr cursor, const optimizer::PhysPlanPtr& node,
                       std::vector<size_t> child_ids, CompiledPlan* out,
                       size_t* timing_id);

  /// Metric/trace hooks for a transfer cursor whose operator span is
  /// `span`; all-null when neither metrics nor trace are attached.
  exec::TransferObservability TransferHooks(obs::SpanId span) const;

  dbms::Connection* conn_;
  int temp_counter_ = 0;
  size_t sort_budget_ = 32 << 20;
  QueryControlPtr control_;
  RetryPolicy retry_;
  RecoveryCounters* counters_ = nullptr;
  std::string temp_prefix_ = "TANGO_TMP_";
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanId trace_parent_ = obs::kNoSpan;
};

}  // namespace tango

#endif  // TANGO_TANGO_COMPILER_H_
