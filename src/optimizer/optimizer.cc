#include "optimizer/optimizer.h"

#include <algorithm>

namespace tango {
namespace optimizer {

namespace {

/// Normalizes an attribute reference for order comparison: qualifiers are
/// stripped, so "B.POSID" and "POSID" denote the same order column. (In a
/// self-join both sides carry the name; orders on such columns are treated
/// as interchangeable, a deliberate simplification.)
std::string BareName(const std::string& attr) {
  const size_t dot = attr.rfind('.');
  return dot == std::string::npos ? attr : attr.substr(dot + 1);
}

algebra::SortSpec Spec(const std::string& attr, bool asc = true) {
  return {BareName(ToUpper(attr)), asc};
}

std::vector<algebra::SortSpec> NormalizeOrder(
    const std::vector<algebra::SortSpec>& order) {
  std::vector<algebra::SortSpec> out;
  out.reserve(order.size());
  for (const algebra::SortSpec& s : order) out.push_back(Spec(s.attr, s.ascending));
  return out;
}

/// All columns of a schema as an ascending order (DUPELIM^M / DIFF^M inputs).
std::vector<algebra::SortSpec> AllColumnsOrder(const Schema& schema) {
  std::vector<algebra::SortSpec> out;
  for (const Column& c : schema.columns()) out.push_back({c.name, true});
  return out;
}

std::shared_ptr<algebra::Op> SyntheticOp(algebra::OpKind kind,
                                         const Schema& schema) {
  auto op = std::make_shared<algebra::Op>();
  op->kind = kind;
  op->schema = schema;
  return op;
}

/// One flag per output column of an operator: does its consumer read it?
using ColumnSet = std::vector<bool>;

Status AddColumn(const Schema& schema, const std::string& reference,
                 ColumnSet* set) {
  TANGO_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(reference));
  (*set)[i] = true;
  return Status::OK();
}

Status AddColumns(const Schema& schema, const ExprPtr& expr, ColumnSet* set) {
  std::vector<std::string> references;
  CollectColumns(expr, &references);
  for (const std::string& r : references) {
    TANGO_RETURN_IF_ERROR(AddColumn(schema, r, set));
  }
  return Status::OK();
}

/// A scan plus any σ directly over it.
bool IsBaseAccess(const algebra::Op* op) {
  while (op->kind == algebra::OpKind::kSelect) op = op->children[0].get();
  return op->kind == algebra::OpKind::kScan;
}

/// π over the columns of `access` that `read` flags, qualifiers kept. When
/// it flags none, the first numeric column (the narrowest: numbers are 9
/// bytes wide), or else the first column, carries the rows.
Result<algebra::OpPtr> NarrowAccess(const algebra::OpPtr& access,
                                    ColumnSet read) {
  const Schema& schema = access->schema;
  if (std::find(read.begin(), read.end(), false) == read.end()) return access;
  if (std::find(read.begin(), read.end(), true) == read.end()) {
    const auto& columns = schema.columns();
    const auto numeric =
        std::find_if(columns.begin(), columns.end(), [](const Column& c) {
          return c.type != DataType::kString;
        });
    read[numeric == columns.end() ? 0 : numeric - columns.begin()] = true;
  }
  std::vector<algebra::ProjectItem> items;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (!read[i]) continue;
    const Column& c = schema.column(i);
    items.push_back({Expr::Column(c.table, c.name), c.name, c.table});
  }
  return algebra::Project(access, std::move(items));
}

/// Rebuilds `op` with its base-table accesses narrowed to what is read
/// above them; `read` flags the columns of `op` its consumer reads.
Result<algebra::OpPtr> Narrow(const algebra::OpPtr& op, ColumnSet read,
                              bool consumer_is_project) {
  if (IsBaseAccess(op.get())) {
    if (consumer_is_project) return op;
    return NarrowAccess(op, std::move(read));
  }
  std::vector<ColumnSet> child_reads;
  for (const algebra::OpPtr& c : op->children) {
    child_reads.emplace_back(c->schema.num_columns(), false);
  }
  switch (op->kind) {
    case algebra::OpKind::kSelect:
      child_reads[0] = std::move(read);
      TANGO_RETURN_IF_ERROR(AddColumns(op->children[0]->schema, op->predicate,
                                       &child_reads[0]));
      break;
    case algebra::OpKind::kSort:
      child_reads[0] = std::move(read);
      for (const algebra::SortSpec& k : op->sort_keys) {
        TANGO_RETURN_IF_ERROR(
            AddColumn(op->children[0]->schema, k.attr, &child_reads[0]));
      }
      break;
    case algebra::OpKind::kProject:
      for (const algebra::ProjectItem& item : op->items) {
        TANGO_RETURN_IF_ERROR(AddColumns(op->children[0]->schema, item.expr,
                                         &child_reads[0]));
      }
      break;
    case algebra::OpKind::kJoin:
    case algebra::OpKind::kProduct: {
      const size_t left_columns = child_reads[0].size();
      for (size_t i = 0; i < read.size(); ++i) {
        if (!read[i]) continue;
        if (i < left_columns) {
          child_reads[0][i] = true;
        } else {
          child_reads[1][i - left_columns] = true;
        }
      }
      for (const auto& [l, r] : op->join_attrs) {
        TANGO_RETURN_IF_ERROR(
            AddColumn(op->children[0]->schema, l, &child_reads[0]));
        TANGO_RETURN_IF_ERROR(
            AddColumn(op->children[1]->schema, r, &child_reads[1]));
      }
      break;
    }
    case algebra::OpKind::kTJoin: {
      // algebra::TJoin's layout: the left input's columns but T1/T2, the
      // right's but T1/T2 and its join attributes, then the intersected
      // T1, T2. Both periods and all join attributes are read.
      ColumnSet dropped[2];
      for (size_t side = 0; side < 2; ++side) {
        const Schema& in = op->children[side]->schema;
        dropped[side].assign(in.num_columns(), false);
        for (const char* period : {"T1", "T2"}) {
          TANGO_ASSIGN_OR_RETURN(size_t i, in.IndexOf(period));
          dropped[side][i] = child_reads[side][i] = true;
        }
      }
      for (const auto& [l, r] : op->join_attrs) {
        TANGO_RETURN_IF_ERROR(
            AddColumn(op->children[0]->schema, l, &child_reads[0]));
        TANGO_ASSIGN_OR_RETURN(size_t ri, op->children[1]->schema.IndexOf(r));
        dropped[1][ri] = child_reads[1][ri] = true;
      }
      size_t out = 0;
      for (size_t side = 0; side < 2; ++side) {
        for (size_t i = 0; i < dropped[side].size(); ++i) {
          if (!dropped[side][i] && read[out++]) child_reads[side][i] = true;
        }
      }
      break;
    }
    case algebra::OpKind::kTAggregate: {
      const Schema& in = op->children[0]->schema;
      for (const std::string& g : op->group_by) {
        TANGO_RETURN_IF_ERROR(AddColumn(in, g, &child_reads[0]));
      }
      for (const algebra::AggItem& a : op->aggs) {
        if (!a.arg.empty()) {
          TANGO_RETURN_IF_ERROR(AddColumn(in, a.arg, &child_reads[0]));
        }
      }
      TANGO_RETURN_IF_ERROR(AddColumn(in, "T1", &child_reads[0]));
      TANGO_RETURN_IF_ERROR(AddColumn(in, "T2", &child_reads[0]));
      break;
    }
    default:  // rdup, coal and − read every column
      for (ColumnSet& set : child_reads) set.assign(set.size(), true);
      break;
  }
  std::vector<algebra::OpPtr> children;
  bool changed = false;
  for (size_t i = 0; i < op->children.size(); ++i) {
    TANGO_ASSIGN_OR_RETURN(
        algebra::OpPtr child,
        Narrow(op->children[i], std::move(child_reads[i]),
               op->kind == algebra::OpKind::kProject));
    changed = changed || child != op->children[i];
    children.push_back(std::move(child));
  }
  if (!changed) return op;
  return algebra::WithChildren(*op, std::move(children));
}

}  // namespace

Result<algebra::OpPtr> NarrowBaseAccesses(const algebra::OpPtr& plan) {
  return Narrow(plan, ColumnSet(plan->schema.num_columns(), true), false);
}

PhysPlanPtr Optimizer::MakeNode(Algorithm alg, algebra::OpPtr op, Site site,
                                std::vector<algebra::SortSpec> order,
                                const Group& group,
                                std::vector<PhysPlanPtr> children) const {
  auto node = std::make_shared<PhysPlan>();
  node->algorithm = alg;
  node->op = std::move(op);
  node->site = site;
  node->order = std::move(order);
  node->est_cardinality = group.stats.cardinality;
  node->est_bytes = group.stats.size();
  node->feedback_key = group.key;
  node->children = std::move(children);
  node->cost = model_->Price(model_->SelfTerms(*node));
  for (const PhysPlanPtr& c : node->children) node->cost += c->cost;
  return node;
}

Result<Optimizer::Optimized> Optimizer::Optimize(algebra::OpPtr initial_plan) {
  // The initial plan carries the Figure 4a top-level T^M; strip it — the
  // root requirement {site = middleware} expresses the same thing.
  while (initial_plan->kind == algebra::OpKind::kTransferM ||
         initial_plan->kind == algebra::OpKind::kTransferD) {
    initial_plan = initial_plan->children[0];
  }
  if (options_.site_restriction != SiteRestriction::kMiddlewareOnly) {
    TANGO_ASSIGN_OR_RETURN(initial_plan, NarrowBaseAccesses(initial_plan));
  }

  Memo::Options mopts;
  mopts.semantic_temporal_selectivity = options_.semantic_temporal_selectivity;
  Memo memo(mopts);
  memo.set_scan_stats_provider(scan_stats_);
  memo.set_cardinality_overrides(options_.cardinality_overrides);
  TANGO_ASSIGN_OR_RETURN(size_t root, memo.CopyIn(initial_plan));
  TANGO_RETURN_IF_ERROR(memo.Explore().status());

  winners_.clear();
  in_progress_.clear();
  PhysProps root_props;
  root_props.site = Site::kMiddleware;
  TANGO_ASSIGN_OR_RETURN(PhysPlanPtr plan,
                         FindBest(&memo, root, root_props, false, false));
  if (plan == nullptr) {
    return Status::Internal("no physical plan found for the query");
  }
  Optimized out;
  out.plan = std::move(plan);
  out.num_classes = memo.num_groups();
  out.num_elements = memo.num_exprs();
  out.num_physical = winners_.size();
  return out;
}

Result<PhysPlanPtr> Optimizer::FindBest(Memo* memo, size_t group,
                                        const PhysProps& props,
                                        bool no_transfer_m,
                                        bool no_transfer_d) {
  CacheKey key{group, props.Key(), no_transfer_m, no_transfer_d};
  const auto cached = winners_.find(key);
  if (cached != winners_.end()) return cached->second;
  if (!in_progress_.insert(key).second) {
    return PhysPlanPtr(nullptr);  // cycle: treat as unplannable here
  }

  const Group& g = memo->group(group);
  PhysPlanPtr best = nullptr;
  auto consider = [&best](const PhysPlanPtr& candidate) {
    if (candidate == nullptr) return;
    if (best == nullptr || candidate->cost < best->cost) best = candidate;
  };

  for (const MExpr& e : g.exprs) {
    TANGO_ASSIGN_OR_RETURN(PhysPlanPtr p, PlanExpr(memo, group, e, props));
    consider(p);
  }

  // ---- enforcers ----
  // Degraded-mode planning suppresses the enforcers that would move work to
  // the forbidden site: no SORT^M under kDbmsOnly, no SORT^D under
  // kMiddlewareOnly, and no TRANSFER^D under either (a restricted plan must
  // not depend on the failing transfer direction). TRANSFER^M is always
  // available — it is the only bridge to where the data lives.
  const SiteRestriction restriction = options_.site_restriction;
  if (props.site == Site::kMiddleware) {
    if (!props.order.empty() && restriction != SiteRestriction::kDbmsOnly) {
      // SORT^M over the unordered middleware winner (rules T1-T3 introduce
      // these sorts in the paper; T10/T11 remove them when redundant, which
      // here corresponds to an element above already delivering the order).
      PhysProps base{Site::kMiddleware, {}};
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr child,
          FindBest(memo, group, base, no_transfer_m, no_transfer_d));
      if (child != nullptr) {
        auto sort_op = SyntheticOp(algebra::OpKind::kSort, g.schema);
        sort_op->sort_keys = props.order;
        consider(MakeNode(Algorithm::kSortM, sort_op, Site::kMiddleware,
                          props.order, g, {child}));
      }
    }
    if (!no_transfer_m) {
      // TRANSFER^M over the DBMS winner; preserves the fragment's order
      // (rule T6 is of type ->L). The immediate T^D enforcer is suppressed
      // below it (rule T7: T^M(T^D(r)) -> r).
      PhysProps inner{Site::kDbms, props.order};
      TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                             FindBest(memo, group, inner, false, true));
      if (child != nullptr) {
        consider(MakeNode(Algorithm::kTransferM,
                          SyntheticOp(algebra::OpKind::kTransferM, g.schema),
                          Site::kMiddleware, child->order, g, {child}));
      }
    }
  } else {
    if (!props.order.empty() && restriction != SiteRestriction::kMiddlewareOnly) {
      // SORT^D at the top of a DBMS fragment (rendered as ORDER BY).
      PhysProps base{Site::kDbms, {}};
      TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                             FindBest(memo, group, base, no_transfer_m, false));
      if (child != nullptr) {
        auto sort_op = SyntheticOp(algebra::OpKind::kSort, g.schema);
        sort_op->sort_keys = props.order;
        consider(MakeNode(Algorithm::kSortD, sort_op, Site::kDbms, props.order,
                          g, {child}));
      }
    } else if (!no_transfer_d && restriction == SiteRestriction::kNone) {
      // TRANSFER^D over the middleware winner; a loaded table carries no
      // order. The immediate T^M enforcer is suppressed below (rule T8).
      PhysProps inner{Site::kMiddleware, {}};
      TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                             FindBest(memo, group, inner, true, false));
      if (child != nullptr) {
        consider(MakeNode(Algorithm::kTransferD,
                          SyntheticOp(algebra::OpKind::kTransferD, g.schema),
                          Site::kDbms, {}, g, {child}));
      }
    }
  }

  in_progress_.erase(key);
  winners_[key] = best;
  return best;
}

Result<PhysPlanPtr> Optimizer::PlanExpr(Memo* memo, size_t group,
                                        const MExpr& e,
                                        const PhysProps& props) {
  // Degraded-mode planning: under kDbmsOnly no algorithm runs in the
  // middleware (the T^M enforcer alone satisfies the root requirement);
  // under kMiddlewareOnly the DBMS only scans base relations.
  if (options_.site_restriction == SiteRestriction::kDbmsOnly &&
      props.site == Site::kMiddleware) {
    return PhysPlanPtr(nullptr);
  }
  if (options_.site_restriction == SiteRestriction::kMiddlewareOnly &&
      props.site == Site::kDbms && e.op->kind != algebra::OpKind::kScan) {
    return PhysPlanPtr(nullptr);
  }
  const Group& g = memo->group(group);

  switch (e.op->kind) {
    case algebra::OpKind::kScan: {
      if (props.site != Site::kDbms || !props.order.empty()) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kScanD, e.op, Site::kDbms, {}, g, {});
    }

    case algebra::OpKind::kSelect: {
      if (props.site == Site::kMiddleware) {
        PhysProps cp{Site::kMiddleware, props.order};  // filter preserves order
        TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                               FindBest(memo, e.children[0], cp, false, false));
        if (child == nullptr) return PhysPlanPtr(nullptr);
        return MakeNode(Algorithm::kFilterM, e.op, Site::kMiddleware,
                        child->order, g, {child});
      }
      if (!props.order.empty()) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr child,
          FindBest(memo, e.children[0], {Site::kDbms, {}}, false, false));
      if (child == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kSelectD, e.op, Site::kDbms, {}, g, {child});
    }

    case algebra::OpKind::kProject: {
      if (props.site == Site::kMiddleware) {
        // Map the required order through the projection items to the child.
        std::vector<algebra::SortSpec> child_order;
        for (const algebra::SortSpec& s : props.order) {
          bool mapped = false;
          for (const algebra::ProjectItem& item : e.op->items) {
            if (BareName(item.name) == s.attr &&
                item.expr->kind == Expr::Kind::kColumn) {
              child_order.push_back(Spec(item.expr->name, s.ascending));
              mapped = true;
              break;
            }
          }
          if (!mapped) return PhysPlanPtr(nullptr);  // order on a computed column
        }
        PhysProps cp{Site::kMiddleware, child_order};
        TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                               FindBest(memo, e.children[0], cp, false, false));
        if (child == nullptr) return PhysPlanPtr(nullptr);
        return MakeNode(Algorithm::kProjectM, e.op, Site::kMiddleware,
                        props.order, g, {child});
      }
      if (!props.order.empty()) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr child,
          FindBest(memo, e.children[0], {Site::kDbms, {}}, false, false));
      if (child == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kProjectD, e.op, Site::kDbms, {}, g, {child});
    }

    case algebra::OpKind::kSort: {
      const std::vector<algebra::SortSpec> keys = NormalizeOrder(e.op->sort_keys);
      if (!OrderSatisfies(props.order, keys)) return PhysPlanPtr(nullptr);
      PhysPlanPtr best = nullptr;
      // Variant 1: actually sort (SORT^M / SORT^D) over an unordered child.
      {
        PhysProps cp{props.site, {}};
        TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                               FindBest(memo, e.children[0], cp, false, false));
        if (child != nullptr) {
          const bool mw = props.site == Site::kMiddleware;
          best = MakeNode(mw ? Algorithm::kSortM : Algorithm::kSortD, e.op,
                          props.site, keys, g, {child});
        }
      }
      // Variant 2: sort elimination (rules T10/T11): the child already
      // delivers the keys.
      {
        PhysProps cp{props.site, keys};
        TANGO_ASSIGN_OR_RETURN(PhysPlanPtr child,
                               FindBest(memo, e.children[0], cp, false, false));
        if (child != nullptr && (best == nullptr || child->cost < best->cost)) {
          return child;
        }
      }
      return best;
    }

    case algebra::OpKind::kJoin:
    case algebra::OpKind::kTJoin: {
      const bool temporal = e.op->kind == algebra::OpKind::kTJoin;
      if (props.site == Site::kMiddleware) {
        std::vector<algebra::SortSpec> lorder, rorder;
        for (const auto& [l, r] : e.op->join_attrs) {
          lorder.push_back(Spec(l));
          rorder.push_back(Spec(r));
        }
        if (!OrderSatisfies(props.order, lorder)) return PhysPlanPtr(nullptr);
        TANGO_ASSIGN_OR_RETURN(
            PhysPlanPtr left,
            FindBest(memo, e.children[0], {Site::kMiddleware, lorder}, false,
                     false));
        TANGO_ASSIGN_OR_RETURN(
            PhysPlanPtr right,
            FindBest(memo, e.children[1], {Site::kMiddleware, rorder}, false,
                     false));
        if (left == nullptr || right == nullptr) return PhysPlanPtr(nullptr);
        return MakeNode(temporal ? Algorithm::kTJoinM : Algorithm::kMergeJoinM,
                        e.op, Site::kMiddleware, lorder, g, {left, right});
      }
      if (!props.order.empty()) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr left,
          FindBest(memo, e.children[0], {Site::kDbms, {}}, false, false));
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr right,
          FindBest(memo, e.children[1], {Site::kDbms, {}}, false, false));
      if (left == nullptr || right == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(temporal ? Algorithm::kTJoinD : Algorithm::kJoinD, e.op,
                      Site::kDbms, {}, g, {left, right});
    }

    case algebra::OpKind::kTAggregate: {
      if (props.site == Site::kMiddleware) {
        std::vector<algebra::SortSpec> in_order, out_order;
        for (const std::string& gb : e.op->group_by) {
          in_order.push_back(Spec(gb));
          out_order.push_back(Spec(gb));
        }
        in_order.push_back(Spec("T1"));
        out_order.push_back(Spec("T1"));
        if (!OrderSatisfies(props.order, out_order)) return PhysPlanPtr(nullptr);
        TANGO_ASSIGN_OR_RETURN(
            PhysPlanPtr child,
            FindBest(memo, e.children[0], {Site::kMiddleware, in_order},
                     false, false));
        if (child == nullptr) return PhysPlanPtr(nullptr);
        return MakeNode(Algorithm::kTAggrM, e.op, Site::kMiddleware, out_order,
                        g, {child});
      }
      if (!props.order.empty()) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr child,
          FindBest(memo, e.children[0], {Site::kDbms, {}}, false, false));
      if (child == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kTAggrD, e.op, Site::kDbms, {}, g, {child});
    }

    case algebra::OpKind::kDupElim: {
      if (props.site == Site::kMiddleware) {
        const auto order = AllColumnsOrder(g.schema);
        if (!OrderSatisfies(props.order, order)) return PhysPlanPtr(nullptr);
        TANGO_ASSIGN_OR_RETURN(
            PhysPlanPtr child,
            FindBest(memo, e.children[0], {Site::kMiddleware, order}, false,
                     false));
        if (child == nullptr) return PhysPlanPtr(nullptr);
        return MakeNode(Algorithm::kDupElimM, e.op, Site::kMiddleware, order,
                        g, {child});
      }
      if (!props.order.empty()) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr child,
          FindBest(memo, e.children[0], {Site::kDbms, {}}, false, false));
      if (child == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kDistinctD, e.op, Site::kDbms, {}, g, {child});
    }

    case algebra::OpKind::kCoalesce: {
      if (props.site != Site::kMiddleware) return PhysPlanPtr(nullptr);  // middleware-only
      std::vector<algebra::SortSpec> order;
      for (const Column& c : g.schema.columns()) {
        if (c.name == "T1" || c.name == "T2") continue;
        order.push_back({c.name, true});
      }
      order.push_back({"T1", true});
      if (!OrderSatisfies(props.order, order)) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr child,
          FindBest(memo, e.children[0], {Site::kMiddleware, order}, false,
                   false));
      if (child == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kCoalesceM, e.op, Site::kMiddleware, order, g,
                      {child});
    }

    case algebra::OpKind::kDifference: {
      if (props.site != Site::kMiddleware) return PhysPlanPtr(nullptr);  // middleware-only
      const auto order = AllColumnsOrder(g.schema);
      if (!OrderSatisfies(props.order, order)) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr left,
          FindBest(memo, e.children[0], {Site::kMiddleware, order}, false,
                   false));
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr right,
          FindBest(memo, e.children[1], {Site::kMiddleware, order}, false,
                   false));
      if (left == nullptr || right == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kDiffM, e.op, Site::kMiddleware, order, g,
                      {left, right});
    }

    case algebra::OpKind::kProduct: {
      if (props.site != Site::kDbms || !props.order.empty()) return PhysPlanPtr(nullptr);
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr left,
          FindBest(memo, e.children[0], {Site::kDbms, {}}, false, false));
      TANGO_ASSIGN_OR_RETURN(
          PhysPlanPtr right,
          FindBest(memo, e.children[1], {Site::kDbms, {}}, false, false));
      if (left == nullptr || right == nullptr) return PhysPlanPtr(nullptr);
      return MakeNode(Algorithm::kProductD, e.op, Site::kDbms, {}, g,
                      {left, right});
    }

    case algebra::OpKind::kTransferM:
    case algebra::OpKind::kTransferD:
      return Status::Internal("transfers cannot appear as memo elements");
  }
  return Status::Internal("unreachable");
}

}  // namespace optimizer
}  // namespace tango
