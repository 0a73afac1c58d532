#ifndef TANGO_DBMS_PLANNER_H_
#define TANGO_DBMS_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "dbms/catalog.h"
#include "dbms/exec_ops.h"
#include "sql/ast.h"

namespace tango {
namespace dbms {

/// Session-level execution settings. `forced_join` stands in for the Oracle
/// optimizer hints the paper uses in Query 4 to pin the DBMS join method.
struct SessionConfig {
  enum class JoinMethod { kAuto, kNestedLoop, kMerge, kHash };
  JoinMethod forced_join = JoinMethod::kAuto;
};

/// \brief Required-column analysis (DESIGN.md §16): for each FROM entry of
/// `arm`, the columns the arm reads.
///
/// `inputs[i]` is entry i's full output schema, qualified by its range
/// variable. The result holds, per entry, the ascending positions in that
/// schema of every column that a column reference in the arm's select
/// list, WHERE, GROUP BY, HAVING or ORDER BY could name (matched by name,
/// and by qualifier when it has one), plus every column a `*` or `A.*`
/// item expands to. Matching is deliberately loose: keeping a column that
/// is named but never resolved costs only width, while every column a
/// reference can resolve to, ambiguity included, is kept, so binding over
/// the narrowed inputs succeeds, fails or reports ambiguity exactly as it
/// would over the full ones.
std::vector<std::vector<size_t>> RequiredColumns(
    const sql::SelectStmt& arm, const std::vector<Schema>& inputs);

/// A FROM subquery's select list pruned to the items at positions
/// `required` of its output `schema`, plus the items its own ORDER BY names.
/// It keeps at least one item. Null when the subquery stays whole: a UNION
/// chain, a DISTINCT, a `*` or `A.*` item, or an aggregate without GROUP
/// BY (dropping its aggregate items would drop the aggregation).
std::shared_ptr<const sql::SelectStmt> PruneSubquery(
    const sql::SelectStmt& sub, const Schema& schema,
    const std::vector<size_t>& required);

/// \brief Rudimentary cost-based planner for the mini-DBMS.
///
/// The middleware deliberately treats this engine as a black box (the paper:
/// "the middleware does not know which join algorithm the DBMS will use");
/// this planner is that hidden machinery: selection pushdown, projection
/// pushdown (every FROM entry carries only the columns its SELECT reads,
/// DESIGN.md §16), index selection by estimated selectivity, left-deep join
/// trees with hash / sort-merge / index-nested-loop joins, sort-based
/// grouping and duplicate elimination.
class Planner {
 public:
  Planner(Catalog* catalog, const SessionConfig* config)
      : catalog_(catalog), config_(config) {}

  /// Plans a (possibly UNION-chained) SELECT into an executable cursor. The
  /// output has every item of the select list; the inputs below it are
  /// narrowed to what the statement reads.
  Result<CursorPtr> PlanSelect(const sql::SelectStmt& stmt);

  /// One FROM entry, narrowed to the columns its arm reads: a base table
  /// with the table columns its scan outputs, or a planned (pruned)
  /// subquery.
  struct FromInput {
    const Table* table = nullptr;  // null for a subquery
    std::string qualifier;
    std::vector<size_t> columns;   // base table: table columns to output
    CursorPtr subquery;            // subquery: its plan, before aliasing
    Schema schema;                 // qualified output schema
  };

  /// The FROM entries of one SELECT arm, narrowed by `RequiredColumns` and
  /// `PruneSubquery`; the arm's join tree is built over exactly these.
  Result<std::vector<FromInput>> PlanFromInputs(const sql::SelectStmt& stmt);

 private:
  Result<CursorPtr> PlanArm(const sql::SelectStmt& stmt);
  Result<CursorPtr> PlanTableRef(FromInput input, std::vector<ExprPtr> pushed);
  Result<CursorPtr> PlanBaseTable(const Table* table, const std::string& alias,
                                  std::vector<size_t> columns,
                                  std::vector<ExprPtr> pushed);
  Result<CursorPtr> PlanJoins(const sql::SelectStmt& stmt,
                              std::vector<ExprPtr>* residuals);
  Result<CursorPtr> PlanAggregation(const sql::SelectStmt& stmt,
                                    CursorPtr input,
                                    std::vector<ExprPtr>* select_exprs,
                                    Schema* out_schema);
  Result<CursorPtr> ApplyOrderBy(const sql::SelectStmt& stmt, CursorPtr input);

  /// Estimated fraction of `table` rows satisfying `col op literal`.
  double EstimateColumnSelectivity(const Table* table, size_t column,
                                   BinaryOp op, const Value& literal) const;

  Catalog* catalog_;
  const SessionConfig* config_;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_PLANNER_H_
