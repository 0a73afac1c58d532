#ifndef TANGO_SQLGEN_TRANSLATOR_H_
#define TANGO_SQLGEN_TRANSLATOR_H_

#include <map>
#include <string>
#include <vector>

#include "optimizer/phys.h"

namespace tango {
namespace sqlgen {

/// Result of rendering one DBMS-resident plan fragment.
struct RenderedSql {
  /// A complete SELECT statement for the fragment.
  std::string sql;
  /// Emitted output column aliases, parallel to the fragment's algebra
  /// schema (the middleware relies on positional compatibility).
  std::vector<std::string> aliases;
  /// Non-empty when the fragment is a bare table access (a base-table scan,
  /// a TRANSFER^D temporary, or a projection of distinct plain columns over
  /// either): parents then reference the table directly in FROM instead of
  /// nesting a subquery — yielding the flat SQL of Figure 5 and letting the
  /// DBMS planner use its index access paths and narrow the columns it reads.
  std::string base_table;
  /// Non-empty when the fragment is a selection over a bare table, rendered
  /// as one block whose columns read `<filter_alias>.<alias>`: `filter` is
  /// that block's " FROM <table> <filter_alias> WHERE <predicate>" tail. A
  /// projection above reuses it instead of nesting the block, so
  /// π^D(σ^D(table)) is one SELECT.
  std::string filter;
  std::string filter_alias;
};

/// The column aliases of `schema`'s columns: each name with characters
/// other than letters, digits and '_' replaced by '_', prefixed "C_" when
/// empty or led by a digit, and suffixed "_2", "_3", ... where it repeats.
/// Every SELECT the translator emits names its columns so, and a TRANSFER^D
/// temporary table names its columns so too, so the SQL reading it matches.
std::vector<std::string> ColumnAliases(const Schema& schema);

/// \brief The Translator-To-SQL component: renders the parts of a chosen
/// plan that occur in the DBMS into SQL (the parts below T^M's that either
/// reach the leaf level or T^D's — Section 2.1).
class Translator {
 public:
  /// `td_tables` maps each TRANSFER^D plan node inside fragments to the
  /// temporary table name the execution engine will create for it.
  explicit Translator(
      std::map<const optimizer::PhysPlan*, std::string> td_tables)
      : td_tables_(std::move(td_tables)) {}

  /// Renders a fragment rooted at a DBMS-site node. The fragment's leaves
  /// are base-table scans and TRANSFER^D nodes (emitted as references to
  /// their temporary tables).
  Result<RenderedSql> Render(const optimizer::PhysPlan& node);

 private:
  std::string FreshSubqueryAlias() {
    return std::string("S").append(std::to_string(++alias_counter_));
  }

  /// Prints an algebra expression against a child whose algebra schema is
  /// `schema` and whose emitted aliases are `aliases`, qualifying column
  /// references with `qualifier` (empty = bare aliases).
  Result<std::string> RenderExpr(const ExprPtr& expr, const Schema& schema,
                                 const std::vector<std::string>& aliases,
                                 const std::string& qualifier);

  /// Renders the nested temporal-aggregation SQL (the "50-line SQL query").
  Result<RenderedSql> RenderTAggr(const optimizer::PhysPlan& node);

  std::map<const optimizer::PhysPlan*, std::string> td_tables_;
  int alias_counter_ = 0;
};

}  // namespace sqlgen
}  // namespace tango

#endif  // TANGO_SQLGEN_TRANSLATOR_H_
