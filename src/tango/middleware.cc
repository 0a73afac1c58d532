#include "tango/middleware.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "adapt/fingerprint.h"

namespace tango {

namespace {

/// The EXPLAIN / EXPLAIN ANALYZE cache-provenance line. Counters are read
/// live from the entry, so an ExplainAnalyze run reports the execution it
/// just performed.
std::string ProvenanceLine(const Middleware::Prepared& prepared) {
  std::string out = "plan: ";
  out += Middleware::Prepared::SourceName(prepared.source);
  if (prepared.cache_entry != nullptr) {
    out += ", executions=" +
           std::to_string(prepared.cache_entry->executions.load(
               std::memory_order_relaxed));
    out += ", reoptimized=" +
           std::to_string(prepared.cache_entry->reoptimized.load(
               std::memory_order_relaxed));
  }
  return out + "\n";
}

std::string FormatSeconds(double seconds) {
  char buf[48];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

/// EXPLAIN ANALYZE's tree, one line per record, children indented under
/// their parents, root first:
///   TAGGR^M [M] rows est=6 act=34 q=5.67 batches=1 cost=1234us self=0.2ms ...
/// TRANSFER^D produces no tuples (it loads them into the DBMS during
/// Init), so its actual-rows, Q-error and batch columns render as "-".
void RenderRecord(const exec::TimingSink& records, size_t id, int depth,
                  std::string* out) {
  const exec::AlgorithmTiming& t = records[id];
  const optimizer::PhysPlan& p = *t.plan;
  const long long est_rows = std::llround(p.est_cardinality);
  char buf[160];
  if (p.algorithm == optimizer::Algorithm::kTransferD) {
    std::snprintf(buf, sizeof(buf), " rows est=%lld act=- q=- batches=-",
                  est_rows);
  } else {
    std::snprintf(buf, sizeof(buf),
                  " rows est=%lld act=%llu q=%.2f batches=%llu", est_rows,
                  static_cast<unsigned long long>(t.rows),
                  adapt::QError(p.est_cardinality, static_cast<double>(t.rows)),
                  static_cast<unsigned long long>(t.batches));
  }
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += t.label;
  *out += p.site == optimizer::Site::kMiddleware ? " [M]" : " [D]";
  *out += buf;
  std::snprintf(buf, sizeof(buf), " cost=%.0fus self=%s incl=%s\n", p.cost,
                FormatSeconds(exec::SelfSeconds(records, id)).c_str(),
                FormatSeconds(t.inclusive_seconds).c_str());
  *out += buf;
  for (size_t child : t.child_ids) RenderRecord(records, child, depth + 1, out);
}

/// Numbers every execution in the process. An execution names its temp
/// tables TANGO_TMP_<n>_<k>, so no two executions share a name: not two
/// calls of one middleware, nor two middlewares over one engine.
std::atomic<uint64_t> execution_seq{0};

/// The in-process sink: moves every root row into a vector.
class AppendRows final : public Middleware::ResultSink {
 public:
  explicit AppendRows(std::vector<Tuple>* rows) : rows_(rows) {}

  void OnSchema(const Schema&) override {}

  Status OnBlock(RowBlock* block) override {
    MoveRowsInto(block, rows_);
    return Status::OK();
  }

 private:
  std::vector<Tuple>* rows_;
};

/// \brief RAII janitor for one execution's temporary tables (§3.2: "the
/// table must be dropped at the end of the query").
///
/// Drops happen in reverse creation order (later tables may only exist
/// because earlier ones do), each drop is retried on transient failures,
/// and every outcome is counted — a failed drop is a recorded leak, never a
/// silent one. The guard ignores the query's own cancellation token:
/// cleanup must run precisely when the query is dying.
class TempTableGuard {
 public:
  TempTableGuard(dbms::Connection* conn, std::vector<std::string> tables,
                 RetryPolicy policy, RecoveryCounters* counters)
      : conn_(conn),
        tables_(std::move(tables)),
        policy_(policy),
        counters_(counters) {}

  ~TempTableGuard() { DropAll(); }

  TempTableGuard(const TempTableGuard&) = delete;
  TempTableGuard& operator=(const TempTableGuard&) = delete;

  /// Idempotent; the destructor is only the backstop for early returns.
  /// Returns the first permanent drop failure.
  Status DropAll() {
    if (done_) return first_failure_;
    done_ = true;
    for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
      const Status s = DropOne(*it);
      if (!s.ok() && first_failure_.ok()) first_failure_ = s;
    }
    return first_failure_;
  }

 private:
  Status DropOne(const std::string& table) {
    RetryState retry(policy_);
    while (true) {
      const Status s = conn_->Execute("DROP TABLE " + table).status();
      if (s.ok()) {
        ++counters_->temp_tables_dropped;
        return Status::OK();
      }
      // Never created (the fault hit before its CREATE): nothing to leak.
      if (s.code() == StatusCode::kNotFound) return Status::OK();
      if (retry.ShouldRetry(s)) {
        ++counters_->drop_retries;
        if (retry.Backoff(nullptr).ok()) continue;
      }
      ++counters_->temp_table_drop_failures;
      ++counters_->temp_tables_leaked;
      return Status(s.code(),
                    "temp table " + table + " could not be dropped: " +
                        s.message());
    }
  }

  dbms::Connection* conn_;
  std::vector<std::string> tables_;
  RetryPolicy policy_;
  RecoveryCounters* counters_;
  bool done_ = false;
  Status first_failure_;
};

}  // namespace

const char* Middleware::Prepared::SourceName(Source source) {
  switch (source) {
    case Source::kFresh: return "fresh";
    case Source::kCached: return "cached";
    case Source::kReoptimized: return "reoptimized";
  }
  return "unknown";
}

Middleware::ConnectionLease Middleware::LeaseConnection() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  if (idle_connections_.empty()) {
    more_connections_.push_back(
        std::make_unique<dbms::Connection>(engine_, config_.wire));
    more_connections_.back()->set_metrics(metrics_);
    return ConnectionLease(more_connections_.back().get(), {this});
  }
  dbms::Connection* conn = idle_connections_.back();
  idle_connections_.pop_back();
  return ConnectionLease(conn, {this});
}

void Middleware::ReturnConnection::operator()(dbms::Connection* conn) const {
  std::lock_guard<std::mutex> lock(mw->connections_mu_);
  // connection_ goes last, where the next lease takes it first.
  std::vector<dbms::Connection*>& idle = mw->idle_connections_;
  idle.insert(conn == &mw->connection_ ? idle.end() : idle.begin(), conn);
}

Status Middleware::CollectStatistics(const std::vector<std::string>& tables) {
  const ConnectionLease conn = LeaseConnection();
  for (const std::string& t : tables) {
    TANGO_ASSIGN_OR_RETURN(dbms::TableStats raw, conn->GetTableStats(t));
    TANGO_ASSIGN_OR_RETURN(Schema schema, conn->GetTableSchema(t));
    stats::RelStats rel = stats::FromTableStats(raw, schema);
    if (!config_.use_histograms) rel = StripHistograms(std::move(rel));
    std::lock_guard<std::mutex> lock(stats_mu_);
    table_stats_[ToUpper(t)] = std::move(rel);
  }
  // The stats cached plans were costed under are gone; drop those plans.
  plan_cache_.InvalidateTables(tables);
  return Status::OK();
}

stats::RelStats Middleware::StripHistograms(stats::RelStats rel) const {
  for (stats::ColumnInfo& c : rel.columns) c.histogram = stats::Histogram();
  return rel;
}

Result<stats::RelStats> Middleware::TableStatistics(const std::string& table) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  const auto it = table_stats_.find(ToUpper(table));
  if (it == table_stats_.end()) {
    return Status::NotFound("no statistics collected for " + ToUpper(table));
  }
  return it->second;
}

Result<Middleware::Prepared> Middleware::Prepare(const std::string& tsql_text) {
  // Schema provider backed by the DBMS catalog. The lease ends with the
  // parse: the optimizer collects a table's statistics on first use.
  Result<algebra::OpPtr> initial = [&] {
    const ConnectionLease conn = LeaseConnection();
    tsql::Parser::SchemaProvider provider =
        [&conn](const std::string& table) -> Result<Schema> {
      return conn->GetTableSchema(table);
    };
    return tsql::Parser::Parse(tsql_text, provider);
  }();
  TANGO_RETURN_IF_ERROR(initial.status());
  return PrepareLogical(initial.ValueOrDie());
}

Result<Middleware::Prepared> Middleware::PrepareLogical(
    const algebra::OpPtr& initial_plan,
    optimizer::SiteRestriction restriction) {
  // Parameterize: literal sites become ordered slots (Expr::param_id) while
  // keeping their values in place, so optimization sees true selectivities
  // and the produced plan can be rebound to other literals of the same
  // shape.
  obs::ScopedSpan lookup_span(trace_, "adapt.lookup", "adapt");
  const adapt::ParameterizedQuery pq = adapt::ParameterizeQuery(initial_plan);
  adapt::PlanKey key;
  key.fingerprint = pq.hash;
  key.canon = pq.canon;
  key.config_key = PlanConfigKey(restriction);
  // Looked up and, on a miss, optimized at one version of the cost model:
  // a copy taken under the lock, after Version() folded in every write.
  uint64_t cost_version = 0;
  cost::CostModel model;
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    cost_version = cost_model_.Version();
    model = cost_model_;
  }

  adapt::PlanCache::EntryPtr entry = plan_cache_.Lookup(key, cost_version);
  if (entry != nullptr) {
    const std::shared_ptr<const adapt::CachedPlan> cached = entry->plan();
    if (cached != nullptr && !entry->stale.load(std::memory_order_acquire)) {
      Prepared prepared;
      prepared.initial_plan =
          adapt::BindLogicalParams(cached->initial_plan, pq.params);
      prepared.plan = adapt::BindPhysParams(cached->plan, pq.params);
      prepared.num_classes = cached->num_classes;
      prepared.num_elements = cached->num_elements;
      prepared.num_physical = cached->num_physical;
      prepared.source = Prepared::Source::kCached;
      prepared.fingerprint = pq.hash;
      prepared.cache_entry = entry;
      return prepared;
    }
  }

  // Miss, or a stale entry (an execution's Q-error exceeded the bound):
  // optimize the tagged plan — with the observed cardinalities injected
  // over the §3.3 estimates when this fingerprint has executed before —
  // and (re)install the result.
  const bool reoptimizing = entry != nullptr;
  const std::map<uint64_t, double> overrides = feedback_.OverridesFor(pq.hash);
  Result<Prepared> fresh_or = [&] {
    if (!reoptimizing) {
      return OptimizeLogical(model, pq.plan, restriction,
                             overrides.empty() ? nullptr : &overrides);
    }
    obs::ScopedSpan reoptimize_span(trace_, "adapt.reoptimize", "adapt");
    ++metrics_->counter("reoptimize.count");
    return OptimizeLogical(model, pq.plan, restriction,
                           overrides.empty() ? nullptr : &overrides);
  }();
  TANGO_RETURN_IF_ERROR(fresh_or.status());
  Prepared fresh = fresh_or.MoveValueOrDie();

  adapt::CachedPlan payload;
  payload.initial_plan = pq.plan;
  payload.plan = fresh.plan;
  payload.num_classes = fresh.num_classes;
  payload.num_elements = fresh.num_elements;
  payload.num_physical = fresh.num_physical;
  payload.tables = adapt::ReferencedTables(pq.plan);
  payload.cost_version = cost_version;
  if (reoptimizing) {
    entry->Refresh(std::move(payload));
    fresh.source = Prepared::Source::kReoptimized;
  } else {
    entry = plan_cache_.Insert(key, std::move(payload));
    fresh.source = Prepared::Source::kFresh;
  }
  fresh.fingerprint = pq.hash;
  fresh.cache_entry = entry;
  return fresh;
}

Result<Middleware::Prepared> Middleware::OptimizeLogical(
    const cost::CostModel& model, const algebra::OpPtr& initial_plan,
    optimizer::SiteRestriction restriction,
    const std::map<uint64_t, double>* overrides) {
  obs::ScopedSpan optimize_span(trace_, "optimize", "query");
  optimizer::Optimizer::Options opts;
  opts.semantic_temporal_selectivity = config_.semantic_temporal_selectivity;
  opts.site_restriction = restriction;
  opts.cardinality_overrides = overrides;
  optimizer::Optimizer opt(&model, opts);
  // Statistics are collected on a table's first use.
  opt.set_scan_stats_provider(
      [this](const std::string& table) -> Result<stats::RelStats> {
        Result<stats::RelStats> known = TableStatistics(table);
        if (known.ok()) return known;
        TANGO_RETURN_IF_ERROR(CollectStatistics({table}));
        return TableStatistics(table);
      });
  TANGO_ASSIGN_OR_RETURN(optimizer::Optimizer::Optimized result,
                         opt.Optimize(initial_plan));
  Prepared prepared;
  prepared.initial_plan = initial_plan;
  prepared.plan = std::move(result.plan);
  prepared.num_classes = result.num_classes;
  prepared.num_elements = result.num_elements;
  prepared.num_physical = result.num_physical;
  return prepared;
}

Result<Middleware::Execution> Middleware::ExecuteOnce(
    const optimizer::PhysPlanPtr& plan, const QueryControlPtr& control,
    ResultSink* sink, const Prepared* provenance, bool* reached_sink) {
  // Declared first so the span closes after every other interval of this
  // execution (compile, operators, retries).
  obs::ScopedSpan execute_span(trace_, "execute", "query");
  obs::Gauge& active =
      metrics_->gauge("query.active", /*expect_zero_at_exit=*/true);
  active.Increment();
  struct ActiveGuard {
    obs::Gauge* gauge;
    ~ActiveGuard() { gauge->Decrement(); }
  } active_guard{&active};
  ++metrics_->counter("query.executions");

  // Declared before everything holding the connection, so it is returned
  // after the cursors and the janitor are gone.
  const ConnectionLease conn = LeaseConnection();
  PlanCompiler compiler(conn.get());
  compiler.set_sort_memory_budget(config_.sort_memory_budget_bytes);
  compiler.set_query_control(control);
  compiler.set_retry_policy(config_.retry);
  compiler.set_recovery_counters(&recovery_);
  compiler.set_temp_prefix("TANGO_TMP_" + std::to_string(++execution_seq) +
                           "_");
  compiler.set_metrics(metrics_);
  compiler.set_trace(trace_, execute_span.id());
  Result<CompiledPlan> compiled_or = [&] {
    obs::ScopedSpan compile_span(trace_, "compile", "query", execute_span.id());
    return compiler.Compile(plan);
  }();
  if (!compiled_or.ok()) {
    ++metrics_->counter("query.failures");
    return compiled_or.status();
  }
  CompiledPlan compiled = compiled_or.MoveValueOrDie();

  // The temporary tables must be dropped at the end of the query (§3.2) no
  // matter how execution ends — the guard's destructor covers every exit.
  TempTableGuard janitor(conn.get(), compiled.temp_tables, config_.retry,
                         &recovery_);

  // The one root drain: block by block into the sink, which either keeps
  // the rows (in process) or ships them (the server). A sink failure stops
  // the drain like an operator failure.
  const Schema schema = compiled.root->schema();
  sink->OnSchema(schema);
  uint64_t result_rows = 0;
  const auto start = std::chrono::steady_clock::now();
  Status drained = compiled.root->Init();
  RowBlock block(config_.batch_size);
  while (drained.ok()) {
    Result<size_t> n = compiled.root->NextBatch(&block);
    if (!n.ok()) {
      drained = n.status();
      break;
    }
    if (n.ValueOrDie() == 0) break;
    result_rows += n.ValueOrDie();
    if (reached_sink != nullptr) *reached_sink = true;
    drained = sink->OnBlock(&block);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Tear the cursor tree down before cleanup: after a cancelled or failed
  // drain a TRANSFER^M may still hold its server-side cursor open over a
  // temp table, and destroying the tree releases it. Past this point the
  // janitor's DROPs cannot pull a table out from under a live cursor.
  compiled.root.reset();

  const Status cleanup = janitor.DropAll();
  if (!drained.ok()) {
    ++metrics_->counter("query.failures");
    return drained;
  }

  Execution exec;
  exec.schema = schema;
  exec.elapsed_seconds = std::chrono::duration<double>(elapsed).count();
  exec.timings = std::move(*compiled.timings);
  exec.sql_statements = SqlStatements(exec.timings);
  exec.cleanup_status = cleanup;
  metrics_->histogram("query.latency_seconds").Record(exec.elapsed_seconds);
  // Vectorization observability: rows that reached the (batched) root drain
  // and RowBlocks produced across all operators of this plan.
  metrics_->counter("exec.batch.rows").Increment(result_rows);
  uint64_t plan_batches = 0;
  for (const exec::AlgorithmTiming& t : exec.timings) {
    plan_batches += t.batches;
  }
  metrics_->counter("exec.batch.blocks").Increment(plan_batches);

  if (config_.adapt) ApplyFeedback(exec.timings);
  if (provenance != nullptr && provenance->cache_entry != nullptr) {
    RecordCardinalityFeedback(exec.timings, *provenance);
  }
  return exec;
}

void Middleware::RecordCardinalityFeedback(const exec::TimingSink& timings,
                                           const Prepared& provenance) {
  std::vector<adapt::Observation> observations;
  observations.reserve(timings.size());
  for (const exec::AlgorithmTiming& t : timings) {
    const optimizer::PhysPlan& p = *t.plan;
    // TRANSFER^D sinks rows into a temp table; its record does not observe
    // the group's output cardinality. Synthetic nodes carry no key.
    if (p.feedback_key == 0 ||
        p.algorithm == optimizer::Algorithm::kTransferD) {
      continue;
    }
    observations.push_back({p.feedback_key, p.est_cardinality, t.rows});
  }
  const double worst =
      feedback_.Record(provenance.fingerprint, observations);
  adapt::PlanCache::Entry& entry = *provenance.cache_entry;
  entry.executions.fetch_add(1, std::memory_order_relaxed);
  if (worst > adapt::PlanCache::kStaleQError &&
      !entry.stale.exchange(true, std::memory_order_acq_rel)) {
    ++metrics_->counter("reoptimize.stale_marks");
  }
}

Result<Middleware::Execution> Middleware::Execute(
    const optimizer::PhysPlanPtr& plan, const QueryControlPtr& control) {
  std::vector<Tuple> rows;
  AppendRows sink(&rows);
  TANGO_ASSIGN_OR_RETURN(Execution exec, ExecuteOnce(plan, control, &sink));
  exec.rows = std::move(rows);
  return exec;
}

Result<Middleware::Execution> Middleware::Execute(
    const Prepared& prepared, const QueryControlPtr& control) {
  std::vector<Tuple> rows;
  AppendRows sink(&rows);
  TANGO_ASSIGN_OR_RETURN(Execution exec, Execute(prepared, &sink, control));
  exec.rows = std::move(rows);
  return exec;
}

Result<Middleware::Execution> Middleware::Execute(
    const Prepared& prepared, ResultSink* sink,
    const QueryControlPtr& control) {
  bool reached_sink = false;
  Result<Execution> first =
      ExecuteOnce(prepared.plan, control, sink, &prepared, &reached_sink);
  if (first.ok()) return first;
  // Past the first block the sink holds rows of this attempt (a client may
  // already have them): a re-run would repeat them, so the failure stands.
  if (reached_sink) return first;
  // Degrade only on an exhausted retry budget (kUnavailable). kTimeout and
  // kAborted mean the query's deadline/cancellation governs — re-running a
  // bigger plan cannot help a dead query.
  const Status& failure = first.status();
  if (failure.code() != StatusCode::kUnavailable) return first;
  if (control != nullptr && !control->Check().ok()) return first;

  // A failing T^D direction means the DBMS cannot accept middleware data:
  // plan middleware-only (no temp tables at all). Anything else is T^M /
  // statement trouble on the result path: fall back to the paper's initial
  // shape, everything in the DBMS with one T^M on top.
  using optimizer::SiteRestriction;
  const bool td_failed =
      failure.message().find("TRANSFER^D") != std::string::npos;
  const SiteRestriction preferred = td_failed
                                        ? SiteRestriction::kMiddlewareOnly
                                        : SiteRestriction::kDbmsOnly;
  const SiteRestriction alternate = td_failed
                                        ? SiteRestriction::kDbmsOnly
                                        : SiteRestriction::kMiddlewareOnly;
  Result<Prepared> fallback =
      PrepareLogical(prepared.initial_plan, preferred);
  if (!fallback.ok()) {
    // E.g. COALESCE/DIFF queries cannot be planned DBMS-only.
    fallback = PrepareLogical(prepared.initial_plan, alternate);
  }
  if (!fallback.ok()) return first;

  ++recovery_.downgrades;
  Result<Execution> second = ExecuteOnce(fallback.ValueOrDie().plan, control,
                                         sink, &fallback.ValueOrDie());
  if (!second.ok()) return second;
  Execution degraded = second.MoveValueOrDie();
  degraded.degraded = true;
  return degraded;
}

Status Middleware::SweepOrphanTempTables() {
  const ConnectionLease conn = LeaseConnection();
  TANGO_ASSIGN_OR_RETURN(std::vector<std::string> orphans,
                         conn->ListTables("TANGO_TMP_"));
  Status first_failure;
  for (const std::string& t : orphans) {
    const Status s = conn->Execute("DROP TABLE " + t).status();
    if (s.ok() || s.code() == StatusCode::kNotFound) {
      ++recovery_.orphans_swept;
    } else if (first_failure.ok()) {
      first_failure = s;
    }
  }
  // Durable garbage: WAL segments and snapshot files wholly covered by the
  // latest checkpoint. Best effort, like the drops — a crashed engine (or a
  // volatile one, which reclaims nothing) must not fail the sweep.
  const Result<size_t> reclaimed = conn->ReclaimWalSegments();
  if (reclaimed.ok() && reclaimed.ValueOrDie() > 0) {
    recovery_.wal_segments_reclaimed.Increment(reclaimed.ValueOrDie());
  }
  return first_failure;
}

Result<size_t> Middleware::RefreshStatisticsIfStale(
    const std::vector<std::string>& tables, bool analyze_first) {
  std::vector<std::string> stale;
  {
    const ConnectionLease conn = LeaseConnection();
    for (const std::string& t : tables) {
      const std::string key = ToUpper(t);
      const Result<stats::RelStats> cached = TableStatistics(key);
      if (cached.ok()) {
        TANGO_ASSIGN_OR_RETURN(const dbms::TableStats live,
                               conn->GetTableStats(key));
        if (live.epoch == cached.ValueOrDie().source_epoch) continue;
      }
      if (analyze_first) {
        TANGO_RETURN_IF_ERROR(conn->Execute("ANALYZE " + key).status());
      }
      stale.push_back(key);
    }
  }
  // CollectStatistics re-pulls and invalidates cached plans; untouched
  // (still fresh) tables keep their statistics and plans.
  if (!stale.empty()) TANGO_RETURN_IF_ERROR(CollectStatistics(stale));
  return stale.size();
}

Result<std::string> Middleware::Explain(const Prepared& prepared) {
  const ConnectionLease conn = LeaseConnection();
  PlanCompiler compiler(conn.get());
  TANGO_ASSIGN_OR_RETURN(CompiledPlan compiled, compiler.Compile(prepared.plan));
  // Compilation creates the T^D temporaries' names only; nothing executed —
  // but any temp tables were not created either (that happens in Init), so
  // there is nothing to drop.
  std::string out = ProvenanceLine(prepared);
  out += "initial plan:\n" + prepared.initial_plan->ToString();
  out += "\nchosen physical plan (" + std::to_string(prepared.num_classes) +
         " classes, " + std::to_string(prepared.num_elements) +
         " elements, " + std::to_string(prepared.num_physical) +
         " physical combinations):\n";
  out += prepared.plan->ToString();
  out += "\nSQL sent to the DBMS:\n";
  for (const std::string& sql : SqlStatements(*compiled.timings)) {
    out += "  " + sql + "\n";
  }
  return out;
}

Result<Middleware::Execution> Middleware::Query(const std::string& tsql_text,
                                                const QueryControlPtr& control) {
  TANGO_ASSIGN_OR_RETURN(Prepared prepared, Prepare(tsql_text));
  return Execute(prepared, control);
}

Result<Middleware::Execution> Middleware::Analyze(
    const Prepared& prepared, const QueryControlPtr& control) {
  std::vector<Tuple> rows;
  AppendRows sink(&rows);
  TANGO_ASSIGN_OR_RETURN(Execution exec,
                         ExecuteOnce(prepared.plan, control, &sink, &prepared));
  exec.rows = std::move(rows);
  return exec;
}

Result<std::string> Middleware::ExplainAnalyze(const Prepared& prepared,
                                               const QueryControlPtr& control) {
  TANGO_ASSIGN_OR_RETURN(Execution exec, Analyze(prepared, control));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "elapsed=%.3fms", exec.elapsed_seconds * 1e3);
  std::string out = "EXPLAIN ANALYZE rows=" + std::to_string(exec.rows.size()) +
                    " " + buf + "\n";
  out += ProvenanceLine(prepared);
  RenderRecord(exec.timings, exec.timings.size() - 1, 0, &out);
  return out;
}

void Middleware::ApplyFeedback(const exec::TimingSink& timings) {
  std::lock_guard<std::mutex> lock(cost_mu_);
  for (size_t id = 0; id < timings.size(); ++id) {
    const double self_us = exec::SelfSeconds(timings, id) * 1e6;
    if (self_us <= 1) continue;
    cost_model_.Fit(*timings[id].plan, self_us, config_.feedback_alpha);
  }
}

std::string Middleware::PlanConfigKey(
    optimizer::SiteRestriction restriction) const {
  return std::string("hist=") + (config_.use_histograms ? "1" : "0") +
         "|sem=" + (config_.semantic_temporal_selectivity ? "1" : "0") +
         "|restrict=" + std::to_string(static_cast<int>(restriction));
}

}  // namespace tango
