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

}  // namespace

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
