#include "dbms/planner.h"

#include <algorithm>
#include <map>
#include <optional>

#include "exec/basic.h"
#include "exec/join.h"
#include "exec/sort.h"

namespace tango {
namespace dbms {

namespace {

/// Selectivity below which an available index is preferred over a full scan.
constexpr double kIndexScanThreshold = 0.25;

/// Re-qualifies a child's schema with a range-variable alias (used for
/// subqueries in FROM: `(SELECT ...) A`).
class AliasOp : public Cursor {
 public:
  AliasOp(CursorPtr child, const std::string& alias)
      : child_(std::move(child)), schema_(child_->schema().WithQualifier(alias)) {}

  Status Init() override { return child_->Init(); }
  Result<size_t> NextBatch(RowBlock* block) override {
    return child_->NextBatch(block);
  }
  const Schema& schema() const override { return schema_; }

 private:
  CursorPtr child_;
  Schema schema_;
};

bool IsColumnRef(const ExprPtr& e) {
  return e != nullptr && e->kind == Expr::Kind::kColumn;
}

bool IsLiteral(const ExprPtr& e) {
  return e != nullptr && e->kind == Expr::Kind::kLiteral;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

/// A `col op literal` conjunct usable for index range selection.
struct IndexableConjunct {
  size_t column;     // column index in the table schema
  BinaryOp op;       // kEq, kLt, kLe, kGt, kGe with the column on the left
  Value literal;
};

/// Recognizes `col op literal` / `literal op col` against `schema`.
bool MatchIndexable(const ExprPtr& e, const Schema& schema,
                    IndexableConjunct* out) {
  if (e == nullptr || e->kind != Expr::Kind::kBinary) return false;
  BinaryOp op = e->binary_op;
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
      op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return false;
  }
  ExprPtr col = e->children[0], lit = e->children[1];
  if (IsLiteral(col) && IsColumnRef(lit)) {
    std::swap(col, lit);
    op = FlipComparison(op);
  }
  if (!IsColumnRef(col) || !IsLiteral(lit)) return false;
  auto idx = schema.IndexOf(col->table, col->name);
  if (!idx.ok()) return false;
  out->column = idx.ValueOrDie();
  out->op = op;
  out->literal = lit->literal;
  return true;
}

std::vector<SortKey> AllColumnsAsc(const Schema& schema) {
  std::vector<SortKey> keys;
  keys.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) keys.push_back({i, true});
  return keys;
}

/// Replaces aggregate nodes with bound references into the aggregation
/// output, and group-key column references with their output positions.
Result<ExprPtr> RewriteOverAggOutput(const ExprPtr& e, const Schema& input,
                                     const std::vector<size_t>& group_cols,
                                     const std::vector<AggSpec>& aggs,
                                     const std::vector<ExprPtr>& agg_originals) {
  if (e->kind == Expr::Kind::kAggregate) {
    for (size_t j = 0; j < agg_originals.size(); ++j) {
      if (e->Equals(*agg_originals[j])) {
        return Expr::BoundColumn(static_cast<int>(group_cols.size() + j),
                                 aggs[j].name);
      }
    }
    return Status::Internal("aggregate not collected");
  }
  if (e->kind == Expr::Kind::kColumn) {
    TANGO_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(e->table, e->name));
    for (size_t g = 0; g < group_cols.size(); ++g) {
      if (group_cols[g] == idx) {
        return Expr::BoundColumn(static_cast<int>(g), e->name);
      }
    }
    return Status::InvalidArgument("column " + e->name +
                                   " is not in the GROUP BY list");
  }
  auto out = std::make_shared<Expr>(*e);
  out->children.clear();
  for (const ExprPtr& c : e->children) {
    TANGO_ASSIGN_OR_RETURN(
        ExprPtr r, RewriteOverAggOutput(c, input, group_cols, aggs, agg_originals));
    out->children.push_back(std::move(r));
  }
  return ExprPtr(out);
}

/// Whether the arm groups or aggregates (and so plans a GroupAggOp).
bool Aggregates(const sql::SelectStmt& stmt) {
  if (!stmt.group_by.empty() || stmt.having != nullptr) return true;
  for (const sql::SelectItem& item : stmt.items) {
    if (!item.star && ContainsAggregate(item.expr)) return true;
  }
  return false;
}

void CollectColumnRefs(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumn) {
    out->push_back(e.get());
    return;
  }
  for (const ExprPtr& c : e->children) CollectColumnRefs(c, out);
}

/// Whether the column reference `ref` could name `col`: the same name, and
/// the same qualifier when the reference has one. `Schema::IndexOf` resolves
/// a reference to one of exactly these columns, or reports ambiguity among
/// them.
bool MayName(const Expr& ref, const Column& col) {
  return ToUpper(ref.name) == col.name &&
         (ref.table.empty() || ToUpper(ref.table) == col.table);
}

std::vector<size_t> Positions(const std::vector<uint8_t>& marks) {
  std::vector<size_t> out;
  for (size_t i = 0; i < marks.size(); ++i) {
    if (marks[i] != 0) out.push_back(i);
  }
  return out;
}

void CollectAggNodes(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kAggregate) {
    for (const ExprPtr& seen : *out) {
      if (seen->Equals(*e)) return;
    }
    out->push_back(e);
    return;
  }
  for (const ExprPtr& c : e->children) CollectAggNodes(c, out);
}

}  // namespace

std::vector<std::vector<size_t>> RequiredColumns(
    const sql::SelectStmt& arm, const std::vector<Schema>& inputs) {
  std::vector<std::vector<uint8_t>> read(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    read[i].assign(inputs[i].num_columns(), 0);
  }
  std::vector<const Expr*> refs;
  for (const sql::SelectItem& item : arm.items) {
    if (!item.star) {
      CollectColumnRefs(item.expr, &refs);
      continue;
    }
    const std::string qualifier = ToUpper(item.star_qualifier);
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (size_t c = 0; c < inputs[i].num_columns(); ++c) {
        if (qualifier.empty() || inputs[i].column(c).table == qualifier) {
          read[i][c] = 1;
        }
      }
    }
  }
  CollectColumnRefs(arm.where, &refs);
  for (const ExprPtr& g : arm.group_by) CollectColumnRefs(g, &refs);
  CollectColumnRefs(arm.having, &refs);
  // A UNION chain's ORDER BY names the union's output columns, not the
  // inputs of its first arm.
  if (arm.union_next == nullptr) {
    for (const sql::OrderItem& o : arm.order_by) {
      CollectColumnRefs(o.expr, &refs);
    }
  }
  for (const Expr* ref : refs) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (size_t c = 0; c < inputs[i].num_columns(); ++c) {
        if (MayName(*ref, inputs[i].column(c))) read[i][c] = 1;
      }
    }
  }
  std::vector<std::vector<size_t>> out;
  out.reserve(read.size());
  for (const std::vector<uint8_t>& marks : read) out.push_back(Positions(marks));
  return out;
}

std::shared_ptr<const sql::SelectStmt> PruneSubquery(
    const sql::SelectStmt& sub, const Schema& schema,
    const std::vector<size_t>& required) {
  if (sub.union_next != nullptr || sub.distinct) return nullptr;
  for (const sql::SelectItem& item : sub.items) {
    if (item.star) return nullptr;
  }
  if (sub.group_by.empty() && Aggregates(sub)) return nullptr;
  // Without stars, output column j is item j.
  std::vector<uint8_t> keep(sub.items.size(), 0);
  for (const size_t j : required) keep[j] = 1;
  std::vector<const Expr*> order_refs;
  for (const sql::OrderItem& o : sub.order_by) {
    CollectColumnRefs(o.expr, &order_refs);
  }
  for (size_t j = 0; j < keep.size(); ++j) {
    for (const Expr* ref : order_refs) {
      if (MayName(*ref, schema.column(j))) keep[j] = 1;
    }
  }
  const std::vector<size_t> kept = Positions(keep);
  if (kept.size() == sub.items.size()) return nullptr;
  auto pruned = std::make_shared<sql::SelectStmt>(sub);
  pruned->items.clear();
  if (kept.empty()) {
    // Nothing reads it (COUNT(*) over it, say): one item keeps its rows.
    pruned->items.push_back(sub.items.front());
  }
  for (const size_t j : kept) pruned->items.push_back(sub.items[j]);
  return pruned;
}

Result<CursorPtr> Planner::PlanSelect(const sql::SelectStmt& stmt) {
  // Plan the UNION chain.
  std::vector<CursorPtr> arms;
  bool all_union_all = true;
  const sql::SelectStmt* arm = &stmt;
  while (arm != nullptr) {
    TANGO_ASSIGN_OR_RETURN(CursorPtr planned, PlanArm(*arm));
    arms.push_back(std::move(planned));
    if (arm->union_next != nullptr && !arm->union_all) all_union_all = false;
    arm = arm->union_next.get();
  }
  CursorPtr cur;
  if (arms.size() == 1) {
    cur = std::move(arms[0]);
  } else {
    // Union compatibility: same arity.
    const size_t arity = arms[0]->schema().num_columns();
    for (const CursorPtr& a : arms) {
      if (a->schema().num_columns() != arity) {
        return Status::InvalidArgument("UNION arms have different arity");
      }
    }
    cur = std::make_unique<UnionAllOp>(std::move(arms));
    if (!all_union_all) {
      auto keys = AllColumnsAsc(cur->schema());
      cur = std::make_unique<exec::SortCursor>(std::move(cur), std::move(keys));
      cur = std::make_unique<exec::DupElimCursor>(std::move(cur));
    }
    TANGO_ASSIGN_OR_RETURN(cur, ApplyOrderBy(stmt, std::move(cur)));
  }
  return cur;
}

Result<CursorPtr> Planner::PlanArm(const sql::SelectStmt& stmt) {
  std::vector<ExprPtr> residuals;
  TANGO_ASSIGN_OR_RETURN(CursorPtr cur, PlanJoins(stmt, &residuals));
  if (!residuals.empty()) {
    TANGO_ASSIGN_OR_RETURN(ExprPtr pred,
                           Bind(Expr::AndAll(residuals), cur->schema()));
    cur = std::make_unique<exec::FilterCursor>(std::move(cur),
                                               std::move(pred));
  }

  // Aggregation or plain projection.
  std::vector<ExprPtr> select_exprs;
  Schema out_schema;
  if (Aggregates(stmt)) {
    TANGO_ASSIGN_OR_RETURN(
        cur, PlanAggregation(stmt, std::move(cur), &select_exprs, &out_schema));
  } else {
    // Expand stars and bind items against the join output.
    const Schema& in = cur->schema();
    for (const sql::SelectItem& item : stmt.items) {
      if (item.star) {
        for (size_t i = 0; i < in.num_columns(); ++i) {
          const Column& c = in.column(i);
          if (!item.star_qualifier.empty() && c.table != item.star_qualifier) {
            continue;
          }
          select_exprs.push_back(Expr::BoundColumn(static_cast<int>(i), c.name));
          out_schema.AddColumn(c);
        }
        continue;
      }
      TANGO_ASSIGN_OR_RETURN(ExprPtr bound, Bind(item.expr, in));
      Column col;
      col.name = !item.alias.empty()
                     ? item.alias
                     : (item.expr->kind == Expr::Kind::kColumn ? item.expr->name
                                                               : item.expr->ToString());
      TANGO_ASSIGN_OR_RETURN(col.type, InferType(bound, in));
      select_exprs.push_back(std::move(bound));
      out_schema.AddColumn(col);
    }
  }
  // ORDER BY handling for a standalone SELECT (union chains are ordered by
  // PlanSelect over the union result). Columns may reference either the
  // projected output or, as standard SQL allows, pre-projection columns.
  const bool order_here = !stmt.order_by.empty() && stmt.union_next == nullptr;
  bool order_in_output = order_here;
  if (order_here) {
    for (const sql::OrderItem& item : stmt.order_by) {
      if (!IsColumnRef(item.expr) ||
          !out_schema.IndexOf(item.expr->table, item.expr->name).ok()) {
        order_in_output = false;
        break;
      }
    }
    if (!order_in_output) {
      // Sort below the projection (invalid under DISTINCT, whose dedup sort
      // would destroy the order anyway).
      if (stmt.distinct) {
        return Status::NotSupported(
            "ORDER BY of non-projected columns with DISTINCT");
      }
      std::vector<SortKey> keys;
      for (const sql::OrderItem& item : stmt.order_by) {
        if (!IsColumnRef(item.expr)) {
          return Status::NotSupported("ORDER BY supports column references only");
        }
        TANGO_ASSIGN_OR_RETURN(
            size_t idx, cur->schema().IndexOf(item.expr->table, item.expr->name));
        keys.push_back({idx, item.ascending});
      }
      cur = std::make_unique<exec::SortCursor>(std::move(cur), std::move(keys));
    }
  }

  cur = std::make_unique<exec::ProjectCursor>(
      std::move(cur), std::move(select_exprs), std::move(out_schema));

  if (stmt.distinct) {
    auto keys = AllColumnsAsc(cur->schema());
    cur = std::make_unique<exec::SortCursor>(std::move(cur), std::move(keys));
    cur = std::make_unique<exec::DupElimCursor>(std::move(cur));
  }
  if (order_in_output) {
    TANGO_ASSIGN_OR_RETURN(cur, ApplyOrderBy(stmt, std::move(cur)));
  }
  return cur;
}

Result<std::vector<Planner::FromInput>> Planner::PlanFromInputs(
    const sql::SelectStmt& stmt) {
  if (stmt.from.empty()) return Status::InvalidArgument("empty FROM");
  std::vector<FromInput> inputs(stmt.from.size());
  std::vector<Schema> full;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const sql::TableRef& ref = stmt.from[i];
    FromInput& in = inputs[i];
    if (ref.subquery != nullptr) {
      // Planned whole first: its output names drive the analysis, and an
      // item in error fails the statement even if the arm never reads it.
      TANGO_ASSIGN_OR_RETURN(in.subquery, PlanSelect(*ref.subquery));
      in.qualifier = ref.alias;
      full.push_back(in.subquery->schema().WithQualifier(ref.alias));
    } else {
      TANGO_ASSIGN_OR_RETURN(in.table, catalog_->GetTable(ref.table));
      in.qualifier = ref.alias.empty() ? ref.table : ref.alias;
      full.push_back(in.table->schema().WithQualifier(in.qualifier));
    }
  }
  const std::vector<std::vector<size_t>> required =
      RequiredColumns(stmt, full);
  for (size_t i = 0; i < inputs.size(); ++i) {
    FromInput& in = inputs[i];
    if (in.table != nullptr) {
      in.columns = required[i];
      for (const size_t c : in.columns) in.schema.AddColumn(full[i].column(c));
      continue;
    }
    const auto pruned = PruneSubquery(*stmt.from[i].subquery,
                                      in.subquery->schema(), required[i]);
    if (pruned != nullptr) {
      TANGO_ASSIGN_OR_RETURN(in.subquery, PlanSelect(*pruned));
    }
    in.schema = in.subquery->schema().WithQualifier(in.qualifier);
  }
  return inputs;
}

Result<CursorPtr> Planner::PlanJoins(const sql::SelectStmt& stmt,
                                     std::vector<ExprPtr>* residuals) {
  // Each FROM entry narrowed to the columns this arm reads; conjunct
  // classification and binding run over the narrowed schemas.
  TANGO_ASSIGN_OR_RETURN(std::vector<FromInput> inputs, PlanFromInputs(stmt));
  std::vector<Schema> ref_schemas;
  ref_schemas.reserve(inputs.size());
  for (const FromInput& in : inputs) ref_schemas.push_back(in.schema);

  // Classify WHERE conjuncts: single-ref (pushed), join-level, unresolved.
  std::vector<std::vector<ExprPtr>> pushed(stmt.from.size());
  std::vector<std::vector<ExprPtr>> join_level(stmt.from.size());
  for (const ExprPtr& conjunct : SplitConjuncts(stmt.where)) {
    size_t bind_count = 0;
    size_t bind_ref = 0;
    for (size_t i = 0; i < ref_schemas.size(); ++i) {
      if (Bind(conjunct, ref_schemas[i]).ok()) {
        ++bind_count;
        bind_ref = i;
      }
    }
    if (bind_count == 1) {
      pushed[bind_ref].push_back(conjunct);
      continue;
    }
    if (bind_count > 1) {
      std::vector<std::string> cols;
      CollectColumns(conjunct, &cols);
      if (cols.empty()) {
        pushed[0].push_back(conjunct);  // constant predicate
        continue;
      }
      return Status::InvalidArgument("ambiguous column reference in: " +
                                     conjunct->ToString());
    }
    // Smallest prefix of refs the conjunct resolves in.
    Schema acc = ref_schemas[0];
    bool placed = false;
    for (size_t k = 1; k < ref_schemas.size(); ++k) {
      acc = Schema::Concat(acc, ref_schemas[k]);
      if (Bind(conjunct, acc).ok()) {
        join_level[k].push_back(conjunct);
        placed = true;
        break;
      }
    }
    if (!placed) residuals->push_back(conjunct);
  }

  // Plan the first ref and fold in the rest left-deep.
  auto plan_ref = [&](size_t i) -> Result<CursorPtr> {
    return PlanTableRef(std::move(inputs[i]), pushed[i]);
  };
  TANGO_ASSIGN_OR_RETURN(CursorPtr cur, plan_ref(0));

  for (size_t i = 1; i < stmt.from.size(); ++i) {
    // Split this level's conjuncts into equi-join keys and residual.
    std::vector<ExprPtr> equis, others;
    std::vector<std::string> left_cols, right_cols;
    for (const ExprPtr& c : join_level[i]) {
      bool is_equi = false;
      if (c->kind == Expr::Kind::kBinary && c->binary_op == BinaryOp::kEq &&
          IsColumnRef(c->children[0]) && IsColumnRef(c->children[1])) {
        const ExprPtr& a = c->children[0];
        const ExprPtr& b = c->children[1];
        const bool a_left = Bind(a, cur->schema()).ok();
        const bool a_right = Bind(a, ref_schemas[i]).ok();
        const bool b_left = Bind(b, cur->schema()).ok();
        const bool b_right = Bind(b, ref_schemas[i]).ok();
        if (a_left && !a_right && b_right && !b_left) {
          left_cols.push_back(a->table.empty() ? a->name : a->table + "." + a->name);
          right_cols.push_back(b->table.empty() ? b->name : b->table + "." + b->name);
          is_equi = true;
        } else if (b_left && !b_right && a_right && !a_left) {
          left_cols.push_back(b->table.empty() ? b->name : b->table + "." + b->name);
          right_cols.push_back(a->table.empty() ? a->name : a->table + "." + a->name);
          is_equi = true;
        }
      }
      if (is_equi) {
        equis.push_back(c);
      } else {
        others.push_back(c);
      }
    }

    const Schema joined = Schema::Concat(cur->schema(), ref_schemas[i]);
    ExprPtr residual = nullptr;
    if (!others.empty()) {
      TANGO_ASSIGN_OR_RETURN(residual, Bind(Expr::AndAll(others), joined));
    }

    const SessionConfig::JoinMethod method = config_->forced_join;

    if (!equis.empty() && method == SessionConfig::JoinMethod::kNestedLoop &&
        inputs[i].table != nullptr) {
      // Index nested-loop: probe the inner base table's index.
      const Table* table = inputs[i].table;
      // Find an equi pair whose inner column has an index.
      int chosen = -1;
      size_t inner_col = 0;
      for (size_t e = 0; e < equis.size(); ++e) {
        auto inner_idx = table->schema().IndexOf(right_cols[e]);
        if (!inner_idx.ok()) {
          // right_cols may carry the alias qualifier; retry unqualified.
          const size_t dot = right_cols[e].find('.');
          if (dot != std::string::npos) {
            inner_idx = table->schema().IndexOf(right_cols[e].substr(dot + 1));
          }
        }
        if (inner_idx.ok() && table->HasIndex(inner_idx.ValueOrDie())) {
          chosen = static_cast<int>(e);
          inner_col = inner_idx.ValueOrDie();
          break;
        }
      }
      if (chosen >= 0) {
        TANGO_ASSIGN_OR_RETURN(size_t outer_key,
                               cur->schema().IndexOf(left_cols[chosen]));
        // Remaining equis + pushed conjuncts of the inner + others become
        // the residual (evaluated on the joined schema).
        std::vector<ExprPtr> res = others;
        for (size_t e = 0; e < equis.size(); ++e) {
          if (static_cast<int>(e) != chosen) res.push_back(equis[e]);
        }
        for (const ExprPtr& p : pushed[i]) res.push_back(p);
        ExprPtr bound_res = nullptr;
        if (!res.empty()) {
          TANGO_ASSIGN_OR_RETURN(bound_res, Bind(Expr::AndAll(res), joined));
        }
        cur = std::make_unique<IndexNestedLoopJoinOp>(
            std::move(cur), table, inputs[i].qualifier, outer_key, inner_col,
            inputs[i].columns, bound_res);
        continue;
      }
      // No usable index: fall through to block nested loop below.
    }

    TANGO_ASSIGN_OR_RETURN(CursorPtr right, plan_ref(i));

    if (equis.empty() || method == SessionConfig::JoinMethod::kNestedLoop) {
      std::vector<ExprPtr> all = equis;
      all.insert(all.end(), others.begin(), others.end());
      ExprPtr pred = nullptr;
      if (!all.empty()) {
        TANGO_ASSIGN_OR_RETURN(pred, Bind(Expr::AndAll(all), joined));
      }
      cur = std::make_unique<NestedLoopJoinOp>(std::move(cur), std::move(right),
                                               std::move(pred));
      continue;
    }

    // Resolve key columns on both sides.
    std::vector<size_t> lkeys, rkeys;
    for (size_t e = 0; e < equis.size(); ++e) {
      TANGO_ASSIGN_OR_RETURN(size_t lk, cur->schema().IndexOf(left_cols[e]));
      TANGO_ASSIGN_OR_RETURN(size_t rk, right->schema().IndexOf(right_cols[e]));
      lkeys.push_back(lk);
      rkeys.push_back(rk);
    }

    if (method == SessionConfig::JoinMethod::kMerge) {
      std::vector<SortKey> lsort, rsort;
      for (size_t e = 0; e < lkeys.size(); ++e) {
        lsort.push_back({lkeys[e], true});
        rsort.push_back({rkeys[e], true});
      }
      cur = std::make_unique<exec::SortCursor>(std::move(cur),
                                               std::move(lsort));
      right = std::make_unique<exec::SortCursor>(std::move(right),
                                                 std::move(rsort));
      cur = std::make_unique<exec::MergeJoinCursor>(
          std::move(cur), std::move(right), std::move(lkeys), std::move(rkeys),
          std::move(residual));
    } else {
      // kAuto / kHash: hash join, building on the accumulated left side.
      cur = std::make_unique<HashJoinOp>(std::move(cur), std::move(right),
                                         std::move(lkeys), std::move(rkeys),
                                         std::move(residual));
      // HashJoinOp probes with the right input but emits left ++ right, so
      // downstream binding is unaffected.
    }
  }
  return cur;
}

Result<CursorPtr> Planner::PlanTableRef(FromInput input,
                                        std::vector<ExprPtr> pushed) {
  if (input.table == nullptr) {
    CursorPtr cur =
        std::make_unique<AliasOp>(std::move(input.subquery), input.qualifier);
    if (!pushed.empty()) {
      TANGO_ASSIGN_OR_RETURN(ExprPtr pred,
                             Bind(Expr::AndAll(pushed), cur->schema()));
      cur = std::make_unique<exec::FilterCursor>(std::move(cur),
                                                 std::move(pred));
    }
    return cur;
  }
  return PlanBaseTable(input.table, input.qualifier, std::move(input.columns),
                       std::move(pushed));
}

Result<CursorPtr> Planner::PlanBaseTable(const Table* table,
                                         const std::string& alias,
                                         std::vector<size_t> columns,
                                         std::vector<ExprPtr> pushed) {
  const Schema qualified = table->schema().WithQualifier(alias);

  // Gather indexable conjuncts per indexed column.
  struct Range {
    std::optional<Value> lo, hi;
    bool lo_inc = true, hi_inc = true;
    double selectivity = 1.0;
  };
  std::map<size_t, Range> ranges;
  for (const ExprPtr& c : pushed) {
    IndexableConjunct ic;
    if (!MatchIndexable(c, qualified, &ic)) continue;
    if (!table->HasIndex(ic.column)) continue;
    Range& r = ranges[ic.column];
    switch (ic.op) {
      case BinaryOp::kEq:
        r.lo = ic.literal;
        r.hi = ic.literal;
        r.lo_inc = r.hi_inc = true;
        break;
      case BinaryOp::kLt:
      case BinaryOp::kLe:
        if (!r.hi.has_value() || ic.literal < *r.hi) {
          r.hi = ic.literal;
          r.hi_inc = ic.op == BinaryOp::kLe;
        }
        break;
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        if (!r.lo.has_value() || ic.literal > *r.lo) {
          r.lo = ic.literal;
          r.lo_inc = ic.op == BinaryOp::kGe;
        }
        break;
      default:
        break;
    }
    const double sel =
        EstimateColumnSelectivity(table, ic.column, ic.op, ic.literal);
    r.selectivity = std::min(r.selectivity, sel);
  }

  // Pick the most selective indexed range under the threshold.
  int best_col = -1;
  double best_sel = kIndexScanThreshold;
  for (const auto& [col, range] : ranges) {
    if (range.selectivity < best_sel) {
      best_sel = range.selectivity;
      best_col = static_cast<int>(col);
    }
  }

  // Either scan evaluates the conjuncts itself, on the encoded rows, and
  // decodes only `columns` of the rows that pass.
  std::vector<ExprPtr> bound;
  bound.reserve(pushed.size());
  for (const ExprPtr& c : pushed) {
    TANGO_ASSIGN_OR_RETURN(ExprPtr b, Bind(c, qualified));
    bound.push_back(std::move(b));
  }
  if (best_col < 0) {
    return CursorPtr(std::make_unique<TableScanOp>(
        table, alias, std::move(bound), std::move(columns)));
  }
  // The index scan tests every pushed conjunct again: correct regardless of
  // which ones the index range already enforces.
  const Range& r = ranges[static_cast<size_t>(best_col)];
  return CursorPtr(std::make_unique<IndexScanOp>(
      table, static_cast<size_t>(best_col), alias, r.lo, r.lo_inc, r.hi,
      r.hi_inc, std::move(bound), std::move(columns)));
}

double Planner::EstimateColumnSelectivity(const Table* table, size_t column,
                                          BinaryOp op,
                                          const Value& literal) const {
  const TableStats& stats = table->stats();
  if (!stats.analyzed || stats.cardinality <= 0 ||
      column >= stats.columns.size()) {
    // Without statistics assume equality is selective, ranges are not.
    return op == BinaryOp::kEq ? 0.01 : 1.0;
  }
  const ColumnStats& cs = stats.columns[column];
  if (op == BinaryOp::kEq) {
    return cs.num_distinct > 0 ? 1.0 / cs.num_distinct : 1.0;
  }
  if (!literal.is_numeric()) return 0.5;
  const double a = literal.AsDouble();
  double frac_less;
  if (!cs.histogram.empty()) {
    frac_less = cs.histogram.EstimateLess(a) / stats.cardinality;
  } else if (cs.min.is_numeric() && cs.max.is_numeric() &&
             cs.max.AsDouble() > cs.min.AsDouble()) {
    frac_less = (a - cs.min.AsDouble()) /
                (cs.max.AsDouble() - cs.min.AsDouble());
  } else {
    return 0.5;
  }
  frac_less = std::clamp(frac_less, 0.0, 1.0);
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      return frac_less;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return 1.0 - frac_less;
    default:
      return 0.5;
  }
}

Result<CursorPtr> Planner::PlanAggregation(const sql::SelectStmt& stmt,
                                           CursorPtr input,
                                           std::vector<ExprPtr>* select_exprs,
                                           Schema* out_schema) {
  const Schema& in = input->schema();

  // Group columns must be plain column references.
  std::vector<size_t> group_cols;
  for (const ExprPtr& g : stmt.group_by) {
    if (!IsColumnRef(g)) {
      return Status::NotSupported("GROUP BY supports column references only");
    }
    TANGO_ASSIGN_OR_RETURN(size_t idx, in.IndexOf(g->table, g->name));
    group_cols.push_back(idx);
  }

  // Collect distinct aggregate nodes from the select list and HAVING.
  std::vector<ExprPtr> agg_nodes;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      return Status::NotSupported("SELECT * with aggregation");
    }
    CollectAggNodes(item.expr, &agg_nodes);
  }
  if (stmt.having != nullptr) CollectAggNodes(stmt.having, &agg_nodes);

  std::vector<AggSpec> aggs;
  for (size_t j = 0; j < agg_nodes.size(); ++j) {
    AggSpec spec;
    spec.func = agg_nodes[j]->agg;
    spec.name = "AGG" + std::to_string(j);
    if (!agg_nodes[j]->agg_star) {
      TANGO_ASSIGN_OR_RETURN(spec.arg, Bind(agg_nodes[j]->children[0], in));
    }
    aggs.push_back(std::move(spec));
  }

  // Sort by group columns, then aggregate.
  CursorPtr cur = std::move(input);
  if (!group_cols.empty()) {
    std::vector<SortKey> keys;
    for (size_t c : group_cols) keys.push_back({c, true});
    cur = std::make_unique<exec::SortCursor>(std::move(cur), std::move(keys));
  }
  cur = std::make_unique<GroupAggOp>(std::move(cur), group_cols, aggs);

  // HAVING over the aggregate output.
  if (stmt.having != nullptr) {
    TANGO_ASSIGN_OR_RETURN(
        ExprPtr pred,
        RewriteOverAggOutput(stmt.having, in, group_cols, aggs, agg_nodes));
    cur = std::make_unique<exec::FilterCursor>(std::move(cur),
                                               std::move(pred));
  }

  // Select expressions over the aggregate output.
  for (const sql::SelectItem& item : stmt.items) {
    TANGO_ASSIGN_OR_RETURN(
        ExprPtr e,
        RewriteOverAggOutput(item.expr, in, group_cols, aggs, agg_nodes));
    Column col;
    col.name = !item.alias.empty()
                   ? item.alias
                   : (item.expr->kind == Expr::Kind::kColumn
                          ? item.expr->name
                          : item.expr->ToString());
    TANGO_ASSIGN_OR_RETURN(col.type, InferType(e, cur->schema()));
    select_exprs->push_back(std::move(e));
    out_schema->AddColumn(col);
  }
  return cur;
}

Result<CursorPtr> Planner::ApplyOrderBy(const sql::SelectStmt& stmt,
                                        CursorPtr input) {
  if (stmt.order_by.empty()) return input;
  std::vector<SortKey> keys;
  for (const sql::OrderItem& item : stmt.order_by) {
    if (!IsColumnRef(item.expr)) {
      return Status::NotSupported("ORDER BY supports column references only");
    }
    TANGO_ASSIGN_OR_RETURN(
        size_t idx, input->schema().IndexOf(item.expr->table, item.expr->name));
    keys.push_back({idx, item.ascending});
  }
  return CursorPtr(
      std::make_unique<exec::SortCursor>(std::move(input), std::move(keys)));
}

}  // namespace dbms
}  // namespace tango
