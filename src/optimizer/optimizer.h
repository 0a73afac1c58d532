#ifndef TANGO_OPTIMIZER_OPTIMIZER_H_
#define TANGO_OPTIMIZER_OPTIMIZER_H_

#include <map>
#include <memory>
#include <string>

#include "cost/cost_model.h"
#include "optimizer/memo.h"
#include "optimizer/phys.h"

namespace tango {
namespace optimizer {

/// Confines processing to one site for degraded (fallback) plans.
///
/// When a transfer operator exhausts its retry budget at run time, the
/// middleware re-plans the query under a restriction that avoids the failed
/// transfer direction: kDbmsOnly is the paper's Figure 4a shape (everything
/// in the DBMS, one T^M on top) and needs no T^D; kMiddlewareOnly pulls
/// base relations up with T^M over plain scans and does all processing in
/// the middleware, so no temp tables are created in the DBMS.
enum class SiteRestriction {
  kNone,
  kDbmsOnly,
  kMiddlewareOnly,
};

/// Heuristic group 4 ("reduce the arguments of expensive operations")
/// applied to attributes. Derives top-down the columns each operator's
/// consumer reads and puts a narrowing π over every base-table access (a
/// scan plus any σ directly over it) that carries more, so the narrower
/// widths reach `size(r)` and every transfer's price. The π keeps each
/// column's range-variable qualifier. An access whose consumer is a π is
/// left alone, and one whose columns are all unread keeps its narrowest
/// column so that its row count survives.
Result<algebra::OpPtr> NarrowBaseAccesses(const algebra::OpPtr& plan);

/// \brief TANGO's query optimizer: Volcano-style exploration of the memo
/// followed by top-down physical planning with site and order properties.
///
/// The initial plan assigns all processing to the DBMS with a single T^M on
/// top (Figure 4a); here that is expressed as the root requirement
/// {site = middleware}. Transfers and sorts are property enforcers, which
/// realizes the paper's heuristics T1–T8 and the sort rules T10–T12 (see
/// DESIGN.md §5 for the mapping); the remaining rules (selection pushdown /
/// fusion, E1/E2, T9) run as memo transformations.
class Optimizer {
 public:
  struct Options {
    /// §3.3 semantic estimation of temporal predicates (off = the
    /// straightforward method the paper shows being ~40x off).
    bool semantic_temporal_selectivity = true;
    /// Confine processing to one site (degraded-mode planning). Queries
    /// using middleware-only algorithms (COALESCE, temporal DIFFERENCE)
    /// cannot be planned under kDbmsOnly; Optimize then fails cleanly and
    /// the caller may try the other restriction.
    SiteRestriction site_restriction = SiteRestriction::kNone;
    /// Observed cardinalities (memo group key -> rows) from the adaptive
    /// feedback loop, injected over the §3.3 estimates. Not owned; may be
    /// null (no feedback).
    const std::map<uint64_t, double>* cardinality_overrides = nullptr;
  };

  explicit Optimizer(const cost::CostModel* model)
      : Optimizer(model, Options()) {}
  Optimizer(const cost::CostModel* model, Options options)
      : model_(model), options_(options) {}

  /// Base-relation statistics source (the Statistics Collector).
  void set_scan_stats_provider(Memo::ScanStatsProvider provider) {
    scan_stats_ = std::move(provider);
  }

  struct Optimized {
    PhysPlanPtr plan;
    /// The paper reports these per query ("12 equivalence classes with 29
    /// class elements").
    size_t num_classes = 0;
    size_t num_elements = 0;
    /// Entries in the physical winner table — the (class, site, order)
    /// combinations the top-down search costed. The paper's element counts
    /// include transfer/sort placement variants, which this implementation
    /// explores here rather than in the memo.
    size_t num_physical = 0;
  };

  /// Optimizes an initial logical plan. A top-level T^M (Figure 4a) is
  /// accepted and stripped; the root is planned for {site = middleware}.
  /// Base-table accesses are narrowed first (NarrowBaseAccesses) unless
  /// the DBMS may only scan (kMiddlewareOnly), where no π could reach the
  /// wire.
  Result<Optimized> Optimize(algebra::OpPtr initial_plan);

 private:
  struct CacheKey {
    size_t group;
    std::string props;
    bool no_tm;
    bool no_td;
    bool operator<(const CacheKey& other) const {
      return std::tie(group, props, no_tm, no_td) <
             std::tie(other.group, other.props, other.no_tm, other.no_td);
    }
  };

  /// Best plan for `group` under the required properties. `no_transfer_m` /
  /// `no_transfer_d` suppress the respective enforcer at this level only
  /// (rules T7/T8: a transfer pair in sequence is redundant).
  Result<PhysPlanPtr> FindBest(Memo* memo, size_t group,
                               const PhysProps& props, bool no_transfer_m,
                               bool no_transfer_d);

  /// Plans one memo element under the required properties; null when the
  /// element cannot satisfy them.
  Result<PhysPlanPtr> PlanExpr(Memo* memo, size_t group, const MExpr& expr,
                               const PhysProps& props);

  /// A plan node for `group`, priced by the cost model's terms for `alg`
  /// plus its children's costs.
  PhysPlanPtr MakeNode(Algorithm alg, algebra::OpPtr op, Site site,
                       std::vector<algebra::SortSpec> order, const Group& group,
                       std::vector<PhysPlanPtr> children) const;

  const cost::CostModel* model_;
  Options options_;
  Memo::ScanStatsProvider scan_stats_;
  std::map<CacheKey, PhysPlanPtr> winners_;
  std::set<CacheKey> in_progress_;
};

}  // namespace optimizer
}  // namespace tango

#endif  // TANGO_OPTIMIZER_OPTIMIZER_H_
