#include "optimizer/memo.h"

#include <algorithm>

#include "adapt/fingerprint.h"

namespace tango {
namespace optimizer {

namespace {

/// Lightweight child stand-in exposing only a group's schema (enough for
/// factory validation and statistics derivation).
algebra::OpPtr Placeholder(size_t group_id, const Schema& schema) {
  auto op = std::make_shared<algebra::Op>();
  op->kind = algebra::OpKind::kScan;
  op->table = "$G" + std::to_string(group_id);
  op->alias = op->table;
  op->schema = schema;
  return op;
}

/// The memo's identity of an expression: its node's exact Describe() and
/// its child groups.
std::string ExprKey(const algebra::Op& op,
                    const std::vector<size_t>& children) {
  std::string key = op.Describe();
  for (size_t g : children) key.append("|").append(std::to_string(g));
  return key;
}

/// True when the conjunct matches half of the Overlaps pattern: an upper
/// bound on T1 or a lower bound on T2.
bool IsTemporalWindowConjunct(const ExprPtr& c, const Schema& schema) {
  if (c->kind != Expr::Kind::kBinary) return false;
  ExprPtr col = c->children[0];
  ExprPtr lit = c->children[1];
  BinaryOp op = c->binary_op;
  if (col->kind == Expr::Kind::kLiteral && lit->kind == Expr::Kind::kColumn) {
    std::swap(col, lit);
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (col->kind != Expr::Kind::kColumn || lit->kind != Expr::Kind::kLiteral) {
    return false;
  }
  auto idx = schema.IndexOf(col->table, col->name);
  if (!idx.ok()) return false;
  const std::string& name = schema.column(idx.ValueOrDie()).name;
  if (name == "T1") return op == BinaryOp::kLt || op == BinaryOp::kLe;
  if (name == "T2") return op == BinaryOp::kGt || op == BinaryOp::kGe;
  return false;
}

}  // namespace

Result<size_t> Memo::CopyIn(const algebra::OpPtr& plan) {
  if (plan->kind == algebra::OpKind::kTransferM ||
      plan->kind == algebra::OpKind::kTransferD) {
    return Status::InvalidArgument(
        "transfers are physical here; strip them before CopyIn");
  }
  std::vector<size_t> children;
  for (const algebra::OpPtr& c : plan->children) {
    TANGO_ASSIGN_OR_RETURN(size_t g, CopyIn(c));
    children.push_back(g);
  }
  return Insert(plan, std::move(children), kNewGroup);
}

algebra::OpPtr Memo::MakePatternOp(const algebra::OpPtr& op,
                                   const std::vector<size_t>& children) const {
  auto pattern = std::make_shared<algebra::Op>(*op);
  pattern->children.clear();
  for (size_t g : children) {
    pattern->children.push_back(Placeholder(g, groups_[g].schema));
  }
  return pattern;
}

Result<stats::RelStats> Memo::DeriveStats(const algebra::OpPtr& op,
                                          const std::vector<size_t>& children) {
  if (op->kind == algebra::OpKind::kScan) {
    if (!scan_stats_) {
      return Status::InvalidArgument("no scan statistics provider configured");
    }
    return scan_stats_(op->table);
  }
  std::vector<const stats::RelStats*> child_stats;
  child_stats.reserve(children.size());
  for (size_t g : children) child_stats.push_back(&groups_[g].stats);
  return stats::Derive(*MakePatternOp(op, children), child_stats,
                       options_.semantic_temporal_selectivity);
}

Result<size_t> Memo::Insert(const algebra::OpPtr& op,
                            std::vector<size_t> children, size_t target) {
  const std::string key = ExprKey(*op, children);

  size_t group_id = target;
  if (target == kNewGroup) {
    const auto it = expr_index_.find(key);
    if (it != expr_index_.end()) return it->second;  // reuse existing class
    TANGO_ASSIGN_OR_RETURN(stats::RelStats stats, DeriveStats(op, children));
    Group g;
    g.schema = op->schema;
    g.stats = std::move(stats);
    std::vector<uint64_t> child_keys;
    child_keys.reserve(children.size());
    for (size_t c : children) child_keys.push_back(groups_[c].key);
    g.key = adapt::NodeKey(*op, child_keys);
    // Cardinality feedback: an observed actual for this group replaces the
    // derived estimate before any parent group derives from it (CopyIn and
    // the rules both create groups bottom-up).
    if (overrides_ != nullptr) {
      const auto ov = overrides_->find(g.key);
      if (ov != overrides_->end()) {
        g.stats.cardinality = std::max(1.0, ov->second);
      }
    }
    groups_.push_back(std::move(g));
    group_id = groups_.size() - 1;
  } else {
    // In-group dedup: do not add the same element twice.
    for (const MExpr& e : groups_[target].exprs) {
      if (ExprKey(*e.op, e.children) == key) return target;
    }
  }
  MExpr expr;
  expr.op = MakePatternOp(op, children);
  expr.children = std::move(children);
  groups_[group_id].exprs.push_back(std::move(expr));
  expr_index_.emplace(key, group_id);
  ++generated_;
  return group_id;
}

size_t Memo::num_exprs() const {
  size_t n = 0;
  for (const Group& g : groups_) n += g.exprs.size();
  return n;
}

Result<size_t> Memo::Explore() {
  const size_t before = generated_;
  for (size_t pass = 0; pass < kMaxPasses; ++pass) {
    const size_t pass_start = generated_;
    const size_t group_count = groups_.size();
    for (size_t g = 0; g < group_count; ++g) {
      const size_t expr_count = groups_[g].exprs.size();
      for (size_t e = 0; e < expr_count; ++e) {
        TANGO_RETURN_IF_ERROR(ApplyRulesToExpr(g, e).status());
      }
    }
    if (generated_ == pass_start) break;  // saturated
  }
  return generated_ - before;
}

Result<size_t> Memo::ApplyRulesToExpr(size_t group_id, size_t expr_index) {
  // Copy: rule applications may reallocate the expr vector.
  const MExpr e = groups_[group_id].exprs[expr_index];
  size_t produced = 0;
  switch (e.op->kind) {
    case algebra::OpKind::kSelect: {
      TANGO_ASSIGN_OR_RETURN(size_t a, RuleSelectMerge(group_id, e));
      TANGO_ASSIGN_OR_RETURN(size_t b, RuleSelectPushdownJoin(group_id, e));
      TANGO_ASSIGN_OR_RETURN(size_t c, RuleSelectPushdownTAggr(group_id, e));
      TANGO_ASSIGN_OR_RETURN(size_t d, RuleSelectProjectCommute(group_id, e));
      TANGO_ASSIGN_OR_RETURN(size_t f, RuleSelectCoalesceCommute(group_id, e));
      produced = a + b + c + d + f;
      break;
    }
    case algebra::OpKind::kProject: {
      TANGO_ASSIGN_OR_RETURN(produced,
                             RuleIdentityProjectCollapse(group_id, e));
      break;
    }
    case algebra::OpKind::kJoin:
    case algebra::OpKind::kProduct: {
      TANGO_ASSIGN_OR_RETURN(produced, RuleJoinCommute(group_id, e));
      break;
    }
    default:
      break;
  }
  return produced;
}

// Heuristic group 3 (operator fusion): σ_P(σ_Q(r)) -> σ_{P AND Q}(r).
Result<size_t> Memo::RuleSelectMerge(size_t group_id, const MExpr& e) {
  const size_t before = generated_;
  const size_t child = e.children[0];
  const size_t n = groups_[child].exprs.size();
  for (size_t i = 0; i < n; ++i) {
    const MExpr f = groups_[child].exprs[i];
    if (f.op->kind != algebra::OpKind::kSelect) continue;
    const size_t grandchild = f.children[0];
    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr merged,
        algebra::Select(Placeholder(grandchild, groups_[grandchild].schema),
                        Expr::And(f.op->predicate, e.op->predicate)));
    TANGO_RETURN_IF_ERROR(Insert(merged, {grandchild}, group_id).status());
  }
  return generated_ - before;
}

// Heuristic group 4 (reduce arguments to expensive operations): push the
// movable conjuncts of a selection below a join / temporal join / product;
// window (Overlaps) conjuncts are replicated into both temporal-join inputs
// while staying on top (they reduce, not replace).
Result<size_t> Memo::RuleSelectPushdownJoin(size_t group_id, const MExpr& e) {
  const size_t before = generated_;
  const size_t child = e.children[0];
  const size_t n = groups_[child].exprs.size();
  for (size_t i = 0; i < n; ++i) {
    const MExpr f = groups_[child].exprs[i];
    const auto kind = f.op->kind;
    if (kind != algebra::OpKind::kJoin && kind != algebra::OpKind::kTJoin &&
        kind != algebra::OpKind::kProduct) {
      continue;
    }
    const size_t lg = f.children[0];
    const size_t rg = f.children[1];
    const Schema& ls = groups_[lg].schema;
    const Schema& rs = groups_[rg].schema;

    std::vector<ExprPtr> keep, to_left, to_right, replicate;
    for (const ExprPtr& c : SplitConjuncts(e.op->predicate)) {
      const bool temporal_window =
          kind == algebra::OpKind::kTJoin &&
          IsTemporalWindowConjunct(c, e.op->schema);
      if (temporal_window) {
        // The output period is the intersection; surviving result tuples
        // come only from inputs overlapping the window, so the window
        // conjunct is replicated below and kept on top.
        keep.push_back(c);
        replicate.push_back(c);
        continue;
      }
      const bool in_left = ColumnsResolveIn(c, ls);
      const bool in_right = ColumnsResolveIn(c, rs);
      if (in_left && !in_right) {
        to_left.push_back(c);
      } else if (in_right && !in_left) {
        to_right.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (to_left.empty() && to_right.empty() && replicate.empty()) continue;

    // A group already filtered by the same predicate is not re-filtered
    // (prevents replication loops).
    auto filtered_group = [&](size_t g, std::vector<ExprPtr> conjuncts)
        -> Result<size_t> {
      if (conjuncts.empty()) return g;
      const ExprPtr pred = Expr::AndAll(conjuncts);
      for (const MExpr& existing : groups_[g].exprs) {
        if (existing.op->kind == algebra::OpKind::kSelect &&
            existing.op->predicate->Equals(*pred)) {
          return g;  // already pushed; avoid stacking the same filter
        }
      }
      TANGO_ASSIGN_OR_RETURN(
          algebra::OpPtr sel,
          algebra::Select(Placeholder(g, groups_[g].schema), pred));
      return Insert(sel, {g}, kNewGroup);
    };

    std::vector<ExprPtr> left_conj = to_left;
    std::vector<ExprPtr> right_conj = to_right;
    for (const ExprPtr& c : replicate) {
      // Window conjuncts reference the output T1/T2, which exist in both
      // inputs under the same names.
      if (ColumnsResolveIn(c, ls)) left_conj.push_back(c);
      if (ColumnsResolveIn(c, rs)) right_conj.push_back(c);
    }
    TANGO_ASSIGN_OR_RETURN(size_t new_left, filtered_group(lg, left_conj));
    TANGO_ASSIGN_OR_RETURN(size_t new_right, filtered_group(rg, right_conj));
    if (new_left == lg && new_right == rg) continue;

    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr join,
        algebra::WithChildren(
            *f.op, {Placeholder(new_left, groups_[new_left].schema),
                    Placeholder(new_right, groups_[new_right].schema)}));
    if (keep.empty()) {
      TANGO_RETURN_IF_ERROR(
          Insert(join, {new_left, new_right}, group_id).status());
    } else {
      TANGO_ASSIGN_OR_RETURN(size_t join_group,
                             Insert(join, {new_left, new_right}, kNewGroup));
      TANGO_ASSIGN_OR_RETURN(
          algebra::OpPtr sel,
          algebra::Select(Placeholder(join_group, groups_[join_group].schema),
                          Expr::AndAll(keep)));
      TANGO_RETURN_IF_ERROR(Insert(sel, {join_group}, group_id).status());
    }
  }
  return generated_ - before;
}

// Selection vs temporal aggregation: group-attribute conjuncts commute
// below ξ^T; window conjuncts are replicated below (reducing the argument —
// the difference between the paper's Query 2 Plans 1 and 5).
Result<size_t> Memo::RuleSelectPushdownTAggr(size_t group_id, const MExpr& e) {
  const size_t before = generated_;
  const size_t child = e.children[0];
  const size_t n = groups_[child].exprs.size();
  for (size_t i = 0; i < n; ++i) {
    const MExpr f = groups_[child].exprs[i];
    if (f.op->kind != algebra::OpKind::kTAggregate) continue;
    const size_t arg = f.children[0];
    const Schema& as = groups_[arg].schema;

    std::vector<ExprPtr> keep, move_down, replicate;
    for (const ExprPtr& c : SplitConjuncts(e.op->predicate)) {
      if (IsTemporalWindowConjunct(c, e.op->schema)) {
        keep.push_back(c);
        replicate.push_back(c);
        continue;
      }
      // Group-attribute conjuncts commute with the aggregation.
      std::vector<std::string> cols;
      CollectColumns(c, &cols);
      bool group_only = !cols.empty();
      for (const std::string& col : cols) {
        bool is_group = false;
        for (const std::string& g : f.op->group_by) {
          auto gi = as.IndexOf(g);
          auto ci = e.op->schema.IndexOf(col);
          if (gi.ok() && ci.ok() &&
              as.column(gi.ValueOrDie()).name ==
                  e.op->schema.column(ci.ValueOrDie()).name) {
            is_group = true;
            break;
          }
        }
        if (!is_group) {
          group_only = false;
          break;
        }
      }
      if (group_only) {
        move_down.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (move_down.empty() && replicate.empty()) continue;

    std::vector<ExprPtr> below = move_down;
    for (const ExprPtr& c : replicate) {
      if (ColumnsResolveIn(c, as)) below.push_back(c);
    }
    if (below.empty()) continue;
    const ExprPtr below_pred = Expr::AndAll(below);
    bool already = false;
    for (const MExpr& existing : groups_[arg].exprs) {
      if (existing.op->kind == algebra::OpKind::kSelect &&
          existing.op->predicate->Equals(*below_pred)) {
        already = true;
        break;
      }
    }
    if (already) continue;

    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr sel,
        algebra::Select(Placeholder(arg, as), below_pred));
    TANGO_ASSIGN_OR_RETURN(size_t sel_group, Insert(sel, {arg}, kNewGroup));
    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr agg,
        algebra::WithChildren(
            *f.op, {Placeholder(sel_group, groups_[sel_group].schema)}));
    if (keep.empty()) {
      TANGO_RETURN_IF_ERROR(Insert(agg, {sel_group}, group_id).status());
    } else {
      TANGO_ASSIGN_OR_RETURN(size_t agg_group,
                             Insert(agg, {sel_group}, kNewGroup));
      TANGO_ASSIGN_OR_RETURN(
          algebra::OpPtr top,
          algebra::Select(Placeholder(agg_group, groups_[agg_group].schema),
                          Expr::AndAll(keep)));
      TANGO_RETURN_IF_ERROR(Insert(top, {agg_group}, group_id).status());
    }
  }
  return generated_ - before;
}

// Rule E1 (left-to-right): σ_P(π(r)) -> π(σ_P'(r)) when every column P
// references is a plain pass-through of the projection.
Result<size_t> Memo::RuleSelectProjectCommute(size_t group_id, const MExpr& e) {
  const size_t before = generated_;
  const size_t child = e.children[0];
  const size_t n = groups_[child].exprs.size();
  for (size_t i = 0; i < n; ++i) {
    const MExpr f = groups_[child].exprs[i];
    if (f.op->kind != algebra::OpKind::kProject) continue;
    const size_t arg = f.children[0];
    const Schema& as = groups_[arg].schema;

    // Rewrite P's columns through the projection items.
    std::function<ExprPtr(const ExprPtr&)> rewrite =
        [&](const ExprPtr& x) -> ExprPtr {
      if (x == nullptr) return nullptr;
      if (x->kind == Expr::Kind::kColumn) {
        for (const algebra::ProjectItem& item : f.op->items) {
          if (item.name == x->name &&
              item.expr->kind == Expr::Kind::kColumn) {
            return Expr::Column(item.expr->table, item.expr->name);
          }
        }
        return nullptr;  // not a pass-through
      }
      auto copy = std::make_shared<Expr>(*x);
      copy->children.clear();
      for (const ExprPtr& c : x->children) {
        ExprPtr r = rewrite(c);
        if (r == nullptr) return nullptr;
        copy->children.push_back(std::move(r));
      }
      return copy;
    };
    const ExprPtr rewritten = rewrite(e.op->predicate);
    if (rewritten == nullptr) continue;
    if (!ColumnsResolveIn(rewritten, as)) continue;

    TANGO_ASSIGN_OR_RETURN(algebra::OpPtr sel,
                           algebra::Select(Placeholder(arg, as), rewritten));
    TANGO_ASSIGN_OR_RETURN(size_t sel_group, Insert(sel, {arg}, kNewGroup));
    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr proj,
        algebra::WithChildren(
            *f.op, {Placeholder(sel_group, groups_[sel_group].schema)}));
    TANGO_RETURN_IF_ERROR(Insert(proj, {sel_group}, group_id).status());
  }
  return generated_ - before;
}

// Vassilakis's coalesce/selection scheme (the paper's §6: "when introducing
// coalescing to our framework, this scheme can be adopted in the form of
// transformation rules"): a selection on non-period attributes commutes
// below coalescing — value-equivalent tuples either all pass or all fail,
// so filtering first shrinks the coalescing input. Period predicates do NOT
// commute (coalescing changes T1/T2) and are left in place.
Result<size_t> Memo::RuleSelectCoalesceCommute(size_t group_id,
                                               const MExpr& e) {
  const size_t before = generated_;
  const size_t child = e.children[0];
  const size_t n = groups_[child].exprs.size();
  for (size_t i = 0; i < n; ++i) {
    const MExpr f = groups_[child].exprs[i];
    if (f.op->kind != algebra::OpKind::kCoalesce) continue;
    std::vector<std::string> cols;
    CollectColumns(e.op->predicate, &cols);
    bool period_free = true;
    for (const std::string& col : cols) {
      const size_t dot = col.rfind('.');
      const std::string bare = dot == std::string::npos ? col
                                                        : col.substr(dot + 1);
      if (bare == "T1" || bare == "T2") {
        period_free = false;
        break;
      }
    }
    if (!period_free) continue;
    const size_t arg = f.children[0];
    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr sel,
        algebra::Select(Placeholder(arg, groups_[arg].schema),
                        e.op->predicate));
    TANGO_ASSIGN_OR_RETURN(size_t sel_group, Insert(sel, {arg}, kNewGroup));
    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr coal,
        algebra::Coalesce(Placeholder(sel_group, groups_[sel_group].schema)));
    TANGO_RETURN_IF_ERROR(Insert(coal, {sel_group}, group_id).status());
  }
  return generated_ - before;
}

// Rule T9: a projection on all attributes (identity) is redundant; the
// child's expressions join this class. Names and positions must match, but
// qualifiers need not: the adopted expressions are relabeled with this
// class's schema, so dropping the π never changes the qualifiers a parent
// or a client sees.
Result<size_t> Memo::RuleIdentityProjectCollapse(size_t group_id,
                                                 const MExpr& e) {
  const size_t before = generated_;
  const size_t child = e.children[0];
  const Schema& cs = groups_[child].schema;
  if (e.op->items.size() != cs.num_columns()) return 0;
  for (size_t i = 0; i < e.op->items.size(); ++i) {
    const algebra::ProjectItem& item = e.op->items[i];
    if (item.expr->kind != Expr::Kind::kColumn) return 0;
    if (item.name != cs.column(i).name) return 0;
    // The reference must resolve to position i — a projection that merely
    // carries the same *names* in a different column order is a reorder,
    // not an identity (e.g. the restoring projection of rule E2).
    auto idx = cs.IndexOf(item.expr->table, item.expr->name);
    if (!idx.ok() || idx.ValueOrDie() != i) return 0;
  }
  // Adopt the child's expressions (approximate group merge).
  const size_t n = groups_[child].exprs.size();
  for (size_t i = 0; i < n; ++i) {
    const MExpr f = groups_[child].exprs[i];
    auto relabeled = std::make_shared<algebra::Op>(*f.op);
    relabeled->schema = groups_[group_id].schema;
    TANGO_RETURN_IF_ERROR(Insert(relabeled, f.children, group_id).status());
  }
  return generated_ - before;
}

// Rule E2 (commutativity) for equijoins and products, with a restoring
// projection so the positional output schema is preserved.
Result<size_t> Memo::RuleJoinCommute(size_t group_id, const MExpr& e) {
  const size_t before = generated_;
  const size_t lg = e.children[0];
  const size_t rg = e.children[1];
  // Apply commutativity only once per join: re-commuting the product would
  // create mutually-referencing projection classes.
  if (commute_products_.count(ExprKey(*e.op, e.children)) != 0) return 0;
  std::vector<std::pair<std::string, std::string>> swapped;
  for (const auto& [l, r] : e.op->join_attrs) swapped.emplace_back(r, l);

  Result<algebra::OpPtr> commuted =
      e.op->kind == algebra::OpKind::kJoin
          ? algebra::Join(Placeholder(rg, groups_[rg].schema),
                          Placeholder(lg, groups_[lg].schema), swapped)
          : algebra::Product(Placeholder(rg, groups_[rg].schema),
                             Placeholder(lg, groups_[lg].schema));
  if (!commuted.ok()) return generated_ - before;
  commute_products_.insert(ExprKey(*commuted.ValueOrDie(), {rg, lg}));
  TANGO_ASSIGN_OR_RETURN(size_t cg,
                         Insert(commuted.ValueOrDie(), {rg, lg}, kNewGroup));

  // π restoring the original column order (left columns first again).
  std::vector<algebra::ProjectItem> items;
  const Schema& out = e.op->schema;
  const Schema& cs = groups_[cg].schema;
  const size_t right_cols = groups_[rg].schema.num_columns();
  for (size_t i = 0; i < out.num_columns(); ++i) {
    // Column i of the original output lives at position
    // (i + right_cols) % total in the commuted output.
    const size_t j = (i + right_cols) % cs.num_columns();
    items.push_back({Expr::Column(cs.column(j).table, cs.column(j).name),
                     out.column(i).name, out.column(i).table});
  }
  auto proj = algebra::Project(Placeholder(cg, cs), items);
  if (!proj.ok()) return generated_ - before;
  TANGO_RETURN_IF_ERROR(Insert(proj.ValueOrDie(), {cg}, group_id).status());
  return generated_ - before;
}

std::string Memo::ToString() const {
  std::string out;
  for (size_t g = 0; g < groups_.size(); ++g) {
    out += "class " + std::to_string(g) + " " + groups_[g].schema.ToString() +
           "\n";
    for (const MExpr& e : groups_[g].exprs) {
      out += "  " + e.op->Describe() + " (";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(e.children[i]);
      }
      out += ")\n";
    }
  }
  return out;
}

}  // namespace optimizer
}  // namespace tango
