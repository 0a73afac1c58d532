#ifndef TANGO_OPTIMIZER_MEMO_H_
#define TANGO_OPTIMIZER_MEMO_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "stats/stats.h"

namespace tango {
namespace optimizer {

/// \brief One element of an equivalence class: a logical operator whose
/// children are equivalence classes (the Volcano structure the paper counts
/// per query: "the optimizer generated 12 equivalence classes with 29 class
/// elements").
struct MExpr {
  /// Parameter carrier: kind, predicate/items/keys/attrs/aggs and schema.
  /// Its `children` hold lightweight placeholders exposing only the child
  /// group schemas (needed by statistics derivation).
  algebra::OpPtr op;
  std::vector<size_t> children;  // group ids
};

/// \brief One equivalence class: multiset-equivalent expressions plus the
/// derived statistics the cost formulas consume.
struct Group {
  std::vector<MExpr> exprs;
  Schema schema;
  stats::RelStats stats;
  /// Stable identity for cardinality feedback (adapt::NodeKey over the
  /// slot-style Describe() of the group's first expression and its child
  /// group keys). Deterministic across optimizations of the same
  /// fingerprint, so observed actuals recorded under this key find the
  /// same group on re-optimization. 0 = unkeyed (should not happen).
  uint64_t key = 0;
};

/// \brief The Volcano memo: equivalence classes, their elements, and the
/// transformation-rule engine that saturates them.
class Memo {
 public:
  struct Options {
    /// Recognize the Overlaps/timeslice conjunct pairs during derivation
    /// (§3.3); off = the straightforward estimation the paper shows failing.
    bool semantic_temporal_selectivity = true;
  };

  Memo() : Memo(Options()) {}
  explicit Memo(Options options) : options_(options) {}

  /// Copies a logical operator tree into the memo, returning the root group.
  /// The tree must not contain transfer operators (location is a physical
  /// property here; the top-level T^M of the initial plan is expressed by
  /// the root requirement "site = middleware").
  Result<size_t> CopyIn(const algebra::OpPtr& plan);

  /// Registers base-relation statistics for scan groups; must be called via
  /// the provider before CopyIn derives stats.
  using ScanStatsProvider =
      std::function<Result<stats::RelStats>(const std::string& table)>;
  void set_scan_stats_provider(ScanStatsProvider provider) {
    scan_stats_ = std::move(provider);
  }

  /// Observed cardinalities (group key -> rows) injected over the derived
  /// estimates at group creation — set before CopyIn so parents derive from
  /// the corrected child statistics. Not owned; may be null.
  void set_cardinality_overrides(const std::map<uint64_t, double>* overrides) {
    overrides_ = overrides;
  }

  /// Applies the transformation rules to saturation (bounded by
  /// kMaxPasses). Returns the number of new elements generated.
  Result<size_t> Explore();

  size_t num_groups() const { return groups_.size(); }
  size_t num_exprs() const;

  const Group& group(size_t id) const { return groups_[id]; }
  Group& group(size_t id) { return groups_[id]; }

  /// Debug rendering of all classes and elements.
  std::string ToString() const;

 private:
  /// Upper bound on rule application passes (safety valve).
  static constexpr size_t kMaxPasses = 8;

  /// Inserts an expression (op params + child groups) into group `target`
  /// (or a fresh group when target == kNewGroup). Returns the group id, or
  /// SIZE_MAX if the expression was already present.
  static constexpr size_t kNewGroup = static_cast<size_t>(-1);
  Result<size_t> Insert(const algebra::OpPtr& op, std::vector<size_t> children,
                        size_t target);

  /// Builds the placeholder-children op used as the MExpr parameter carrier.
  algebra::OpPtr MakePatternOp(const algebra::OpPtr& op,
                               const std::vector<size_t>& children) const;

  /// Derives stats for an expression (children = group ids).
  Result<stats::RelStats> DeriveStats(const algebra::OpPtr& op,
                                      const std::vector<size_t>& children);

  // ---- transformation rules (heuristic groups 1-4 as applicable at the
  // logical level; see DESIGN.md for the mapping to the paper's T/E rules).
  Result<size_t> ApplyRulesToExpr(size_t group_id, size_t expr_index);
  Result<size_t> RuleSelectMerge(size_t group_id, const MExpr& e);
  Result<size_t> RuleSelectPushdownJoin(size_t group_id, const MExpr& e);
  Result<size_t> RuleSelectPushdownTAggr(size_t group_id, const MExpr& e);
  Result<size_t> RuleSelectProjectCommute(size_t group_id, const MExpr& e);
  Result<size_t> RuleSelectCoalesceCommute(size_t group_id, const MExpr& e);
  Result<size_t> RuleIdentityProjectCollapse(size_t group_id, const MExpr& e);
  Result<size_t> RuleJoinCommute(size_t group_id, const MExpr& e);

  Options options_;
  std::vector<Group> groups_;
  // Expression key (Describe() + child groups) -> group id, for new-group
  // deduplication.
  std::map<std::string, size_t> expr_index_;
  // Keys of commuted joins (rule E2 is applied once per join).
  std::set<std::string> commute_products_;
  size_t generated_ = 0;
  ScanStatsProvider scan_stats_;
  const std::map<uint64_t, double>* overrides_ = nullptr;
};

}  // namespace optimizer
}  // namespace tango

#endif  // TANGO_OPTIMIZER_MEMO_H_
