#ifndef TANGO_ALGEBRA_ALGEBRA_H_
#define TANGO_ALGEBRA_ALGEBRA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "expr/expr.h"

namespace tango {
namespace algebra {

/// Logical operators of TANGO's temporal algebra (Section 2/4 of the paper).
/// Temporal operators follow the conventions of the paper's running example:
/// every temporal relation carries the closed-open period attributes T1, T2.
enum class OpKind {
  kScan,        // base relation (always resides in the DBMS)
  kSelect,      // σ_P
  kProject,     // π_{f1..fn}
  kSort,        // sort_A
  kJoin,        // ⋈ (equijoin)
  kTJoin,       // ⋈^T temporal join: equijoin + period overlap + intersection
  kTAggregate,  // ξ^T temporal aggregation
  kDupElim,     // rdup: duplicate elimination
  kCoalesce,    // coal: merge value-equivalent tuples with adjacent periods
  kDifference,  // multiset difference
  kProduct,     // × Cartesian product
  kTransferM,   // T^M: DBMS -> middleware
  kTransferD,   // T^D: middleware -> DBMS
};

const char* OpKindName(OpKind kind);

/// One projection function: an expression over the input and its output
/// name, optionally qualified (a reordering projection keeps its input's
/// range variables, so `E.ADDR` still resolves above it).
struct ProjectItem {
  ExprPtr expr;
  std::string name;
  std::string qualifier = "";
};

/// One aggregate of a temporal aggregation: the function, the argument
/// attribute (empty = COUNT(*)), and the output column name.
struct AggItem {
  AggFunc func = AggFunc::kCount;
  std::string arg;   // attribute reference, empty for COUNT(*)
  std::string name;  // e.g. "COUNTOFPOSID"
};

/// One sort criterion by attribute reference.
struct SortSpec {
  std::string attr;
  bool ascending = true;

  bool operator==(const SortSpec&) const = default;
};

struct Op;
using OpPtr = std::shared_ptr<const Op>;

/// \brief Immutable logical operator node.
///
/// Construction goes through the factory functions below, which derive and
/// validate the output schema; optimizer rules create variants by reusing
/// children (structural sharing).
struct Op {
  OpKind kind = OpKind::kScan;
  std::vector<OpPtr> children;

  // kScan
  std::string table;
  std::string alias;  // range variable; defaults to the table name

  // kSelect
  ExprPtr predicate;

  // kProject
  std::vector<ProjectItem> items;

  // kSort
  std::vector<SortSpec> sort_keys;

  // kJoin / kTJoin: equi pairs (left attr, right attr)
  std::vector<std::pair<std::string, std::string>> join_attrs;

  // kTAggregate
  std::vector<std::string> group_by;
  std::vector<AggItem> aggs;

  /// Derived output schema.
  Schema schema;

  /// Indented tree of Describe() lines: EXPLAIN's initial plan and, in the
  /// kSlots style, the plan cache's canon (adapt::ParameterizeQuery).
  std::string ToString(LiteralStyle style = LiteralStyle::kValues,
                       int indent = 0) const;

  /// One line naming this node's kind and every parameter, exactly (no
  /// children, no derived schema). Equal descriptions over equal children
  /// are the same expression: the memo files expressions by Describe() plus
  /// their child groups. kSlots prints literals as parameter slots and
  /// appends a scan's column signature, so a schema change is a new
  /// fingerprint.
  std::string Describe(LiteralStyle style = LiteralStyle::kValues) const;
};

// ---- factory functions (validate + derive schemas) ----

/// Base relation access; `schema` comes from the DBMS catalog via the
/// Statistics Collector. The alias re-qualifies columns (self-joins).
Result<OpPtr> Scan(std::string table, const Schema& schema,
                   std::string alias = "");

Result<OpPtr> Select(OpPtr child, ExprPtr predicate);

Result<OpPtr> Project(OpPtr child, std::vector<ProjectItem> items);

Result<OpPtr> Sort(OpPtr child, std::vector<SortSpec> keys);

/// Equijoin. Output schema: left columns then right columns.
Result<OpPtr> Join(OpPtr left, OpPtr right,
                   std::vector<std::pair<std::string, std::string>> attrs);

/// Temporal join: equijoin + Overlaps(left period, right period); output
/// periods are intersected. Output schema: left columns without T1/T2, then
/// right columns without the right join attrs and T1/T2, then T1, T2.
Result<OpPtr> TJoin(OpPtr left, OpPtr right,
                    std::vector<std::pair<std::string, std::string>> attrs);

/// Temporal aggregation ξ^T. Output schema: group-by columns, T1, T2, then
/// one column per aggregate.
Result<OpPtr> TAggregate(OpPtr child, std::vector<std::string> group_by,
                         std::vector<AggItem> aggs);

Result<OpPtr> DupElim(OpPtr child);

/// Coalescing: merges value-equivalent tuples whose periods overlap or are
/// adjacent. Requires T1/T2 in the child schema.
Result<OpPtr> Coalesce(OpPtr child);

/// Multiset difference (left minus right); schemas must be compatible.
Result<OpPtr> Difference(OpPtr left, OpPtr right);

Result<OpPtr> Product(OpPtr left, OpPtr right);

Result<OpPtr> TransferM(OpPtr child);
Result<OpPtr> TransferD(OpPtr child);

/// Replaces the children of `op` (same parameters), re-deriving the schema.
Result<OpPtr> WithChildren(const Op& op, std::vector<OpPtr> children);

/// True if the schema has the temporal attributes T1 and T2.
bool HasPeriod(const Schema& schema);

/// Positions of T1/T2 in a schema (both must exist; checked by HasPeriod).
Result<size_t> T1Index(const Schema& schema);
Result<size_t> T2Index(const Schema& schema);

}  // namespace algebra
}  // namespace tango

#endif  // TANGO_ALGEBRA_ALGEBRA_H_
