#include "tango/compiler.h"

#include <algorithm>
#include <map>

#include "exec/basic.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "exec/taggr.h"
#include "exec/transfer.h"
#include "sqlgen/translator.h"

namespace tango {

namespace {

using optimizer::Algorithm;
using optimizer::PhysPlan;
using optimizer::PhysPlanPtr;

/// Collects the TRANSFER^D nodes inside a DBMS fragment (not descending
/// into their middleware subtrees).
void CollectTransferDs(const PhysPlanPtr& node, std::vector<PhysPlanPtr>* out) {
  if (node->algorithm == Algorithm::kTransferD) {
    out->push_back(node);
    return;
  }
  for (const auto& c : node->children) CollectTransferDs(c, out);
}

Result<std::vector<size_t>> ResolveAll(const Schema& schema,
                                       const std::vector<std::string>& attrs) {
  std::vector<size_t> out;
  for (const std::string& a : attrs) {
    TANGO_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(a));
    out.push_back(idx);
  }
  return out;
}

}  // namespace

std::vector<std::string> SqlStatements(const exec::TimingSink& timings) {
  std::vector<std::string> out;
  for (const exec::AlgorithmTiming& t : timings) {
    if (!t.sql.empty()) out.push_back(t.sql);
  }
  return out;
}

CursorPtr PlanCompiler::Instrument(CursorPtr cursor, const PhysPlanPtr& node,
                                   std::vector<size_t> child_ids,
                                   CompiledPlan* out, size_t* timing_id) {
  exec::TimingSink& records = *out->timings;
  const char* label = optimizer::AlgorithmName(node->algorithm);
  auto instrumented = std::make_unique<exec::InstrumentedCursor>(
      std::move(cursor), label, &records, std::move(child_ids));
  *timing_id = instrumented->id();
  exec::AlgorithmTiming& record = records[*timing_id];
  record.plan = node;
  if (trace_ != nullptr) {
    record.span = trace_->Allocate(label, "operator", trace_parent_,
                                   static_cast<int64_t>(*timing_id));
    // Compiled bottom-up: re-parent the children's spans (allocated against
    // the execute span) under this operator so spans mirror the plan tree.
    for (size_t child : record.child_ids) {
      trace_->SetParent(records[child].span, record.span);
    }
    instrumented->set_trace(trace_);
  }
  return instrumented;
}

exec::TransferObservability PlanCompiler::TransferHooks(
    obs::SpanId span) const {
  exec::TransferObservability hooks;
  if (metrics_ != nullptr) {
    hooks.rows_to_middleware = &metrics_->counter("transfer.rows_to_middleware");
    hooks.rows_to_dbms = &metrics_->counter("transfer.rows_to_dbms");
    hooks.cache_hits = &metrics_->counter("transfer_cache.hits");
    hooks.cache_misses = &metrics_->counter("transfer_cache.misses");
  }
  hooks.trace = trace_;
  hooks.span = span;
  return hooks;
}

Result<CompiledPlan> PlanCompiler::Compile(const optimizer::PhysPlanPtr& plan) {
  CompiledPlan out;
  out.timings = std::make_shared<exec::TimingSink>();
  out.transfer_cache = std::make_shared<exec::TransferCache>();
  size_t timing_id = 0;
  TANGO_ASSIGN_OR_RETURN(out.root, CompileNode(plan, &out, &timing_id));
  // §7 refinement: a statement occurring more than once in the plan is
  // transferred once and served from the shared store afterwards.
  std::map<std::string, int> counts;
  for (const std::string& sql : SqlStatements(*out.timings)) counts[sql] += 1;
  for (const auto& [sql, n] : counts) {
    if (n > 1) out.transfer_cache->MarkShared(sql);
  }
  return out;
}

Result<CursorPtr> PlanCompiler::CompileTransferM(const PhysPlanPtr& node,
                                                 CompiledPlan* out,
                                                 size_t* timing_id) {
  const PhysPlan& fragment = *node->children[0];

  // Compile the middleware subtrees feeding the fragment's TRANSFER^D
  // leaves, assigning each a unique temp table.
  std::vector<PhysPlanPtr> tds;
  CollectTransferDs(node->children[0], &tds);
  std::map<const PhysPlan*, std::string> td_tables;
  std::vector<CursorPtr> dependencies;
  std::vector<size_t> dep_ids;
  for (const PhysPlanPtr& td : tds) {
    const std::string name = temp_prefix_ + std::to_string(++temp_counter_);
    td_tables[td.get()] = name;
    out->temp_tables.push_back(name);
    size_t child_id = 0;
    TANGO_ASSIGN_OR_RETURN(CursorPtr child,
                           CompileNode(td->children[0], out, &child_id));
    auto cursor = std::make_unique<exec::TransferDCursor>(
        conn_, name, sqlgen::ColumnAliases(td->op->schema), std::move(child),
        control_, retry_, counters_);
    exec::TransferDCursor* raw_td = cursor.get();
    size_t td_id = 0;
    dependencies.push_back(
        Instrument(std::move(cursor), td, {child_id}, out, &td_id));
    raw_td->set_observability(TransferHooks((*out->timings)[td_id].span));
    dep_ids.push_back(td_id);
  }

  sqlgen::Translator translator(td_tables);
  TANGO_ASSIGN_OR_RETURN(sqlgen::RenderedSql rendered,
                         translator.Render(fragment));

  auto cursor = std::make_unique<exec::TransferMCursor>(
      conn_, rendered.sql, node->op->schema, std::move(dependencies),
      out->transfer_cache, control_, retry_, counters_);
  exec::TransferMCursor* raw_tm = cursor.get();
  CursorPtr instrumented =
      Instrument(std::move(cursor), node, dep_ids, out, timing_id);
  exec::AlgorithmTiming& record = (*out->timings)[*timing_id];
  record.sql = std::move(rendered.sql);
  raw_tm->set_observability(TransferHooks(record.span));
  return instrumented;
}

Result<CursorPtr> PlanCompiler::CompileNode(const PhysPlanPtr& plan,
                                            CompiledPlan* out,
                                            size_t* timing_id) {
  const PhysPlan& node = *plan;
  if (node.algorithm == Algorithm::kTransferM) {
    return CompileTransferM(plan, out, timing_id);
  }
  if (optimizer::IsDbmsAlgorithm(node.algorithm) ||
      node.algorithm == Algorithm::kTransferD) {
    return Status::Internal(
        std::string("DBMS algorithm outside a TRANSFER^M fragment: ") +
        optimizer::AlgorithmName(node.algorithm));
  }

  // Middleware algorithms: compile children first.
  std::vector<CursorPtr> children;
  std::vector<size_t> child_ids;
  for (const auto& c : node.children) {
    size_t id = 0;
    TANGO_ASSIGN_OR_RETURN(CursorPtr cursor, CompileNode(c, out, &id));
    children.push_back(std::move(cursor));
    child_ids.push_back(id);
  }
  const Schema& child_schema =
      node.children.empty() ? node.op->schema : node.children[0]->op->schema;

  CursorPtr cursor;
  switch (node.algorithm) {
    case Algorithm::kFilterM: {
      TANGO_ASSIGN_OR_RETURN(ExprPtr pred,
                             Bind(node.op->predicate, child_schema));
      cursor = std::make_unique<exec::FilterCursor>(std::move(children[0]),
                                                    std::move(pred));
      break;
    }
    case Algorithm::kProjectM: {
      std::vector<ExprPtr> exprs;
      for (const algebra::ProjectItem& item : node.op->items) {
        TANGO_ASSIGN_OR_RETURN(ExprPtr bound, Bind(item.expr, child_schema));
        exprs.push_back(std::move(bound));
      }
      cursor = std::make_unique<exec::ProjectCursor>(
          std::move(children[0]), std::move(exprs), node.op->schema);
      break;
    }
    case Algorithm::kSortM: {
      std::vector<SortKey> keys;
      for (const algebra::SortSpec& s : node.op->sort_keys) {
        TANGO_ASSIGN_OR_RETURN(size_t idx, child_schema.IndexOf(s.attr));
        keys.push_back({idx, s.ascending});
      }
      cursor = std::make_unique<exec::SortCursor>(
          std::move(children[0]), std::move(keys), sort_budget_);
      break;
    }
    case Algorithm::kMergeJoinM: {
      const Schema& ls = node.children[0]->op->schema;
      const Schema& rs = node.children[1]->op->schema;
      std::vector<size_t> lkeys, rkeys;
      for (const auto& [l, r] : node.op->join_attrs) {
        TANGO_ASSIGN_OR_RETURN(size_t li, ls.IndexOf(l));
        TANGO_ASSIGN_OR_RETURN(size_t ri, rs.IndexOf(r));
        lkeys.push_back(li);
        rkeys.push_back(ri);
      }
      cursor = std::make_unique<exec::MergeJoinCursor>(
          std::move(children[0]), std::move(children[1]), std::move(lkeys),
          std::move(rkeys));
      break;
    }
    case Algorithm::kTJoinM: {
      const Schema& ls = node.children[0]->op->schema;
      const Schema& rs = node.children[1]->op->schema;
      std::vector<size_t> lkeys, rkeys;
      for (const auto& [l, r] : node.op->join_attrs) {
        TANGO_ASSIGN_OR_RETURN(size_t li, ls.IndexOf(l));
        TANGO_ASSIGN_OR_RETURN(size_t ri, rs.IndexOf(r));
        lkeys.push_back(li);
        rkeys.push_back(ri);
      }
      TANGO_ASSIGN_OR_RETURN(size_t lt1, algebra::T1Index(ls));
      TANGO_ASSIGN_OR_RETURN(size_t lt2, algebra::T2Index(ls));
      TANGO_ASSIGN_OR_RETURN(size_t rt1, algebra::T1Index(rs));
      TANGO_ASSIGN_OR_RETURN(size_t rt2, algebra::T2Index(rs));
      std::vector<size_t> left_out, right_out;
      for (size_t i = 0; i < ls.num_columns(); ++i) {
        if (i != lt1 && i != lt2) left_out.push_back(i);
      }
      std::vector<size_t> excluded = {rt1, rt2};
      excluded.insert(excluded.end(), rkeys.begin(), rkeys.end());
      for (size_t i = 0; i < rs.num_columns(); ++i) {
        if (std::find(excluded.begin(), excluded.end(), i) == excluded.end()) {
          right_out.push_back(i);
        }
      }
      cursor = std::make_unique<exec::TemporalJoinCursor>(
          std::move(children[0]), std::move(children[1]), std::move(lkeys),
          std::move(rkeys), lt1, lt2, rt1, rt2, std::move(left_out),
          std::move(right_out), node.op->schema);
      break;
    }
    case Algorithm::kTAggrM: {
      TANGO_ASSIGN_OR_RETURN(std::vector<size_t> group_cols,
                             ResolveAll(child_schema, node.op->group_by));
      TANGO_ASSIGN_OR_RETURN(size_t t1, algebra::T1Index(child_schema));
      TANGO_ASSIGN_OR_RETURN(size_t t2, algebra::T2Index(child_schema));
      std::vector<exec::TAggrSpec> specs;
      for (const algebra::AggItem& a : node.op->aggs) {
        exec::TAggrSpec spec;
        spec.func = a.func;
        spec.star = a.arg.empty();
        if (!spec.star) {
          TANGO_ASSIGN_OR_RETURN(spec.arg, child_schema.IndexOf(a.arg));
        }
        specs.push_back(spec);
      }
      cursor = std::make_unique<exec::TemporalAggregationCursor>(
          std::move(children[0]), std::move(group_cols), t1, t2,
          std::move(specs), node.op->schema);
      break;
    }
    case Algorithm::kDupElimM:
      cursor = std::make_unique<exec::DupElimCursor>(std::move(children[0]));
      break;
    case Algorithm::kCoalesceM: {
      TANGO_ASSIGN_OR_RETURN(size_t t1, algebra::T1Index(child_schema));
      TANGO_ASSIGN_OR_RETURN(size_t t2, algebra::T2Index(child_schema));
      cursor = std::make_unique<exec::CoalesceCursor>(std::move(children[0]),
                                                      t1, t2);
      break;
    }
    case Algorithm::kDiffM:
      cursor = std::make_unique<exec::DifferenceCursor>(std::move(children[0]),
                                                        std::move(children[1]));
      break;
    default:
      return Status::Internal(
          std::string("unexpected algorithm in middleware part: ") +
          optimizer::AlgorithmName(node.algorithm));
  }
  return Instrument(std::move(cursor), plan, std::move(child_ids), out,
                    timing_id);
}

}  // namespace tango
