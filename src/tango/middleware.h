#ifndef TANGO_TANGO_MIDDLEWARE_H_
#define TANGO_TANGO_MIDDLEWARE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/feedback.h"
#include "adapt/plan_cache.h"
#include "common/cancel.h"
#include "common/retry.h"
#include "cost/cost_model.h"
#include "dbms/connection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "stats/stats.h"
#include "tango/compiler.h"
#include "tsql/tsql.h"

namespace tango {

/// \brief TANGO: the temporal middleware (Figure 1).
///
/// Wires together the components of the paper's architecture: the temporal
/// SQL parser, the Statistics Collector, the Cost Estimator, the optimizer,
/// the Translator-To-SQL, and the Execution Engine — all talking to the
/// conventional DBMS through its connections.
///
/// Thread-safe: one instance serves any number of concurrent callers (the
/// network server's whole worker pool), so the statistics, the cost model,
/// the observed cardinalities and the plan cache exist once. Each call that
/// talks to the DBMS runs on one dbms::Connection of its own, taken from an
/// idle list when the call starts and returned when it ends; a call never
/// holds two. The list hands out connection() whenever it is idle, so a
/// single-threaded caller always runs on it (its counters and fault
/// injector describe every call); concurrent calls get further connections,
/// opened on demand with Config::wire. The statistics and the cost model
/// each sit behind a mutex: an optimization prices on a copy of the model
/// taken with its version under that mutex, and feedback fits it under the
/// same mutex. connection(), cost_model() and set_trace_recorder are for
/// single-threaded setup (calibration, benches, tests).
class Middleware {
 public:
  struct Config {
    dbms::WireConfig wire;
    /// Use histograms from the DBMS catalog in selectivity estimation; off
    /// reproduces the paper's histogram-less optimizer runs (Query 2).
    bool use_histograms = true;
    /// §3.3 semantic temporal selectivity (off = straightforward method).
    bool semantic_temporal_selectivity = true;
    /// Update cost factors from measured execution times (the "adaptable"
    /// feedback loop).
    bool adapt = true;
    double feedback_alpha = 0.3;
    /// Memory each SORT^M may use before spilling runs to tmpfiles.
    size_t sort_memory_budget_bytes = 32 << 20;
    /// Rows per RowBlock: the cost model charges one per-block transfer
    /// overhead per `batch_size` rows, and the network server ships query
    /// results to its clients in blocks of this many rows.
    size_t batch_size = RowBlock::kDefaultCapacity;
    /// Retry discipline for transient wire/DBMS failures inside the
    /// transfer operators and the temp-table janitor.
    RetryPolicy retry;
    /// Drop orphaned TANGO_TMP_* tables (leaked by a crashed earlier run)
    /// when the middleware starts.
    bool sweep_orphans_on_start = true;
    /// Registry this middleware's metrics land in (wire, transfer, retry,
    /// janitor, query series). Null (default) = a private per-instance
    /// registry; pass obs::MetricsRegistry::Global() (or any shared
    /// registry) to aggregate across middleware instances. Not owned.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit Middleware(dbms::Engine* engine) : Middleware(engine, Config()) {}
  Middleware(dbms::Engine* engine, Config config)
      : engine_(engine),
        config_(config),
        owned_metrics_(config.metrics == nullptr
                           ? std::make_unique<obs::MetricsRegistry>()
                           : nullptr),
        metrics_(config.metrics != nullptr ? config.metrics
                                           : owned_metrics_.get()),
        connection_(engine, config.wire),
        recovery_(metrics_),
        plan_cache_(metrics_) {
    connection_.set_metrics(metrics_);
    cost_model_.set_batch_size(config_.batch_size);
    // Best-effort: an unreachable DBMS at startup must not prevent the
    // middleware from coming up (the sweep reruns on the next start).
    if (config_.sweep_orphans_on_start) (void)SweepOrphanTempTables();
  }

  /// The connection every call of a single-threaded caller runs on (see
  /// the class comment): setup, wire counters, fault injection.
  dbms::Connection& connection() { return connection_; }
  /// The shared cost model without its lock, for single-threaded setup
  /// (calibration, benches, tests) while no call is in flight.
  cost::CostModel& cost_model() { return cost_model_; }
  const Config& config() const { return config_; }
  /// How often the recovery machinery ran (retries, drops, leaks,
  /// downgrades); shared with the transfer operators and the janitor.
  const RecoveryCounters& recovery_counters() const { return recovery_; }

  /// The registry all of this middleware's metrics land in (per-instance by
  /// default; Config::metrics overrides).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// The fingerprinted plan cache (counters, invalidation — tests/benches).
  adapt::PlanCache& plan_cache() { return plan_cache_; }
  /// Observed per-node cardinalities recorded by instrumented executions.
  adapt::FeedbackStore& feedback_store() { return feedback_; }

  /// Attaches a span recorder: every subsequent execution records
  /// optimize/compile/execute spans, per-operator spans and transfer
  /// retries into it. Null detaches. Not owned; must outlive any execution
  /// started while attached.
  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Drops TANGO_TMP_* tables left behind by a previous run that died
  /// before its janitor could clean up, then asks the DBMS to reclaim WAL
  /// segments and snapshots superseded by the latest checkpoint (orphaned
  /// durable garbage after a crash). Returns the first drop failure
  /// (already-swept tables stay counted in recovery_counters).
  Status SweepOrphanTempTables();

  /// Statistics Collector: pulls base-relation statistics from the DBMS
  /// catalog for the given tables (or re-pulls everything already known).
  Status CollectStatistics(const std::vector<std::string>& tables);

  /// Write-churn staleness check: compares each table's live modification
  /// epoch (bumped by every INSERT/UPDATE/bulk load on the DBMS side)
  /// against the epoch its cached statistics were collected at. Only drifted
  /// tables are touched: they are re-ANALYZEd on the DBMS (unless
  /// `analyze_first` is false), re-collected, and their cached plans
  /// invalidated. Tables with no cached statistics are collected fresh.
  /// Returns the number of tables refreshed.
  Result<size_t> RefreshStatisticsIfStale(
      const std::vector<std::string>& tables, bool analyze_first = true);

  /// Access to collected statistics (tests, benches).
  Result<stats::RelStats> TableStatistics(const std::string& table);

  /// A fully optimized query, ready to execute.
  struct Prepared {
    algebra::OpPtr initial_plan;
    optimizer::PhysPlanPtr plan;
    size_t num_classes = 0;
    size_t num_elements = 0;
    size_t num_physical = 0;
    /// Where the plan came from: kFresh = optimized and inserted, kCached =
    /// rebound from a cached entry, kReoptimized = the entry was stale
    /// (Q-error exceeded the bound) and was re-optimized with observed
    /// cardinalities injected.
    enum class Source { kFresh, kCached, kReoptimized };
    Source source = Source::kFresh;
    /// "fresh", "cached" or "reoptimized": EXPLAIN's provenance line and
    /// the wire's plan_source.
    static const char* SourceName(Source source);
    /// Parameterized-query fingerprint.
    uint64_t fingerprint = 0;
    /// The cache entry backing this plan; executions record cardinality
    /// feedback against it.
    adapt::PlanCache::EntryPtr cache_entry;
  };

  /// Parses, plans, and optimizes a temporal-SQL query.
  Result<Prepared> Prepare(const std::string& tsql_text);

  /// Optimizes an already-built initial logical plan (benches use this to
  /// study specific algebra shapes). `restriction` confines processing to
  /// one site — used internally for degraded fallback plans.
  Result<Prepared> PrepareLogical(
      const algebra::OpPtr& initial_plan,
      optimizer::SiteRestriction restriction = optimizer::SiteRestriction::kNone);

  /// Result of executing a plan.
  struct Execution {
    Schema schema;
    /// The result rows (in-process overloads; empty when streamed to a
    /// ResultSink).
    std::vector<Tuple> rows;
    /// Root drain time, the sink's own time included.
    double elapsed_seconds = 0;
    /// One record per executed operator, children before parents (the
    /// root's is the last): plan node, SQL, span and measured actuals.
    exec::TimingSink timings;
    /// The TRANSFER^M records' SQL, in record order.
    std::vector<std::string> sql_statements;
    /// True when the result came from a degraded (site-restricted) fallback
    /// plan after the chosen plan exhausted its retry budget.
    bool degraded = false;
    /// Non-OK when a temp table could not be dropped even with retries (the
    /// rows are still valid; the leak is also counted and the startup sweep
    /// will reclaim the table).
    Status cleanup_status;
  };

  /// \brief Receives a result as the root cursor produces it.
  ///
  /// Every execution drains its root into one: the in-process overloads
  /// pass a sink that appends to Execution::rows, the network server one
  /// that encodes each block into a ROWBLOCK frame (DESIGN.md §14). An
  /// execution announces the root's schema, then hands over each non-empty
  /// root block in order. A degraded re-run announces its schema again,
  /// which can only happen before any block reached the sink.
  class ResultSink {
   public:
    virtual ~ResultSink() = default;
    virtual void OnSchema(const Schema& schema) = 0;
    /// The sink may move rows out of `block`. A failure (the client is
    /// gone) stops the execution and becomes its result.
    virtual Status OnBlock(RowBlock* block) = 0;
  };

  /// Compiles and executes a physical plan: runs the cursor tree, drops the
  /// temporary tables (guaranteed — retried, in reverse creation order,
  /// even when execution failed), and (when configured) feeds measured
  /// times back into the cost factors. `control` carries the query's
  /// deadline/cancellation token.
  Result<Execution> Execute(const optimizer::PhysPlanPtr& plan,
                            const QueryControlPtr& control = nullptr);

  /// Like above, but can also degrade: when the plan fails with an
  /// exhausted transient error, the query is re-planned with the failing
  /// transfer direction forbidden (DBMS-only for T^M trouble, middleware-
  /// only for T^D trouble) and re-executed once; the downgrade is recorded
  /// in recovery_counters and Execution::degraded.
  Result<Execution> Execute(const Prepared& prepared,
                            const QueryControlPtr& control = nullptr);

  /// Streams the result into `sink` instead of Execution::rows (which
  /// stays empty). Degrades like the overload above, but only while the
  /// sink has been handed no block: after that a re-run would repeat rows
  /// the sink already has, so the failure is returned.
  Result<Execution> Execute(const Prepared& prepared, ResultSink* sink,
                            const QueryControlPtr& control = nullptr);

  /// Prepare + Execute in one call (with degradation).
  Result<Execution> Query(const std::string& tsql_text,
                          const QueryControlPtr& control = nullptr);

  /// Human-readable explanation of a prepared query: the initial algebra,
  /// the chosen physical plan with estimated costs, and the SQL each
  /// TRANSFER^M would send — without executing anything.
  Result<std::string> Explain(const Prepared& prepared);

  /// EXPLAIN ANALYZE's data form: executes the prepared plan without
  /// degradation, so the execution's records describe the chosen plan;
  /// each record's plan node carries the estimates beside its actuals.
  Result<Execution> Analyze(const Prepared& prepared,
                            const QueryControlPtr& control = nullptr);

  /// EXPLAIN ANALYZE: executes the prepared plan and renders its records
  /// as a tree — est vs actual rows, Q-error, estimated cost vs measured
  /// self/inclusive time, site — plus query totals.
  Result<std::string> ExplainAnalyze(const Prepared& prepared,
                                     const QueryControlPtr& control = nullptr);

 private:
  /// One compile-and-run of a physical plan, with the janitor guarding its
  /// temp tables: the root is drained into `sink`. No degradation (that is
  /// the Prepared overload's job). `provenance` (optional) identifies the
  /// cache entry and fingerprint the execution's observed cardinalities are
  /// recorded against; `reached_sink` (optional) is set once a block has
  /// been handed to the sink, failure or not.
  Result<Execution> ExecuteOnce(const optimizer::PhysPlanPtr& plan,
                                const QueryControlPtr& control,
                                ResultSink* sink,
                                const Prepared* provenance = nullptr,
                                bool* reached_sink = nullptr);

  /// The optimization pipeline proper (what PrepareLogical was before the
  /// plan cache): memo + top-down physical planning priced by `model`, with
  /// `overrides` (observed cardinalities by memo group key) injected over
  /// the §3.3 estimates when non-null.
  Result<Prepared> OptimizeLogical(const cost::CostModel& model,
                                   const algebra::OpPtr& initial_plan,
                                   optimizer::SiteRestriction restriction,
                                   const std::map<uint64_t, double>* overrides);

  /// One call's connection (see the class comment); its deleter puts it
  /// back on the idle list.
  struct ReturnConnection {
    Middleware* mw;
    void operator()(dbms::Connection* conn) const;
  };
  using ConnectionLease = std::unique_ptr<dbms::Connection, ReturnConnection>;
  /// connection_ when it is idle, else another idle connection, else a new
  /// one.
  ConnectionLease LeaseConnection();

  /// Records one execution's per-node estimate-vs-actual cardinalities
  /// against the provenance's fingerprint and marks the cache entry stale
  /// when the worst Q-error exceeds adapt::PlanCache::kStaleQError.
  void RecordCardinalityFeedback(const exec::TimingSink& timings,
                                 const Prepared& provenance);

  /// Plan-relevant configuration dimensions of the cache key.
  std::string PlanConfigKey(optimizer::SiteRestriction restriction) const;

  /// Applies the performance feedback of one execution to the cost factors:
  /// cost::CostModel::Fit over every record with more than 1 us of self
  /// time.
  void ApplyFeedback(const exec::TimingSink& timings);

  stats::RelStats StripHistograms(stats::RelStats rel) const;

  dbms::Engine* engine_;
  Config config_;
  /// Owns the per-instance registry when Config::metrics is null; declared
  /// before every member that holds counters from it.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  dbms::Connection connection_;
  /// Guards the idle list and the connections opened besides connection_.
  std::mutex connections_mu_;
  /// Idle connections; connection_, while idle, is the last.
  std::vector<dbms::Connection*> idle_connections_{&connection_};
  std::vector<std::unique_ptr<dbms::Connection>> more_connections_;
  std::mutex cost_mu_;
  cost::CostModel cost_model_;
  std::mutex stats_mu_;
  std::map<std::string, stats::RelStats> table_stats_;
  RecoveryCounters recovery_;
  adapt::PlanCache plan_cache_;
  adapt::FeedbackStore feedback_;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace tango

#endif  // TANGO_TANGO_MIDDLEWARE_H_
