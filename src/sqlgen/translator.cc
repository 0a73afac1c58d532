#include "sqlgen/translator.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace tango {
namespace sqlgen {

namespace {

using optimizer::Algorithm;
using optimizer::PhysPlan;

std::string Sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "C_" + out;
  }
  return out;
}

/// FROM-clause item for a child fragment: bare table or subquery.
std::string FromItem(const RenderedSql& child, const std::string& alias) {
  if (!child.base_table.empty()) return child.base_table + " " + alias;
  return "(" + child.sql + ") " + alias;
}

}  // namespace

std::vector<std::string> ColumnAliases(const Schema& schema) {
  std::vector<std::string> aliases;
  std::set<std::string> used;
  for (const Column& c : schema.columns()) {
    std::string base = Sanitize(c.name);
    std::string alias = base;
    int k = 1;
    while (used.count(alias) != 0) {
      alias = base + "_" + std::to_string(++k);
    }
    used.insert(alias);
    aliases.push_back(alias);
  }
  return aliases;
}

Result<std::string> Translator::RenderExpr(
    const ExprPtr& expr, const Schema& schema,
    const std::vector<std::string>& aliases, const std::string& qualifier) {
  switch (expr->kind) {
    case Expr::Kind::kColumn: {
      TANGO_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(expr->table, expr->name));
      return qualifier.empty() ? aliases[idx] : qualifier + "." + aliases[idx];
    }
    case Expr::Kind::kLiteral:
      return expr->literal.ToSqlLiteral();
    case Expr::Kind::kUnary: {
      TANGO_ASSIGN_OR_RETURN(
          std::string child,
          RenderExpr(expr->children[0], schema, aliases, qualifier));
      switch (expr->unary_op) {
        case UnaryOp::kNot:
          return "NOT (" + child + ")";
        case UnaryOp::kNeg:
          return "-(" + child + ")";
        case UnaryOp::kIsNull:
          return "(" + child + ") IS NULL";
        case UnaryOp::kIsNotNull:
          return "(" + child + ") IS NOT NULL";
      }
      return Status::Internal("bad unary op");
    }
    case Expr::Kind::kBinary: {
      TANGO_ASSIGN_OR_RETURN(
          std::string l, RenderExpr(expr->children[0], schema, aliases, qualifier));
      TANGO_ASSIGN_OR_RETURN(
          std::string r, RenderExpr(expr->children[1], schema, aliases, qualifier));
      return "(" + l + " " + BinaryOpName(expr->binary_op) + " " + r + ")";
    }
    case Expr::Kind::kFunction: {
      std::string out = expr->function + "(";
      for (size_t i = 0; i < expr->children.size(); ++i) {
        if (i > 0) out += ", ";
        TANGO_ASSIGN_OR_RETURN(
            std::string arg,
            RenderExpr(expr->children[i], schema, aliases, qualifier));
        out += arg;
      }
      return out + ")";
    }
    case Expr::Kind::kAggregate:
      return Status::NotSupported("aggregate in rendered expression");
  }
  return Status::Internal("unreachable");
}

Result<RenderedSql> Translator::Render(const PhysPlan& node) {
  switch (node.algorithm) {
    case Algorithm::kScanD: {
      RenderedSql out;
      out.aliases = ColumnAliases(node.op->schema);
      out.sql = "SELECT ";
      for (size_t i = 0; i < out.aliases.size(); ++i) {
        if (i > 0) out.sql += ", ";
        out.sql += node.op->schema.column(i).name + " AS " + out.aliases[i];
      }
      out.sql += " FROM " + node.op->table;
      out.base_table = node.op->table;
      return out;
    }

    case Algorithm::kTransferD: {
      const auto it = td_tables_.find(&node);
      if (it == td_tables_.end()) {
        return Status::Internal("TRANSFER^D node without a temp table name");
      }
      RenderedSql out;
      out.aliases = ColumnAliases(node.op->schema);
      out.sql = "SELECT ";
      for (size_t i = 0; i < out.aliases.size(); ++i) {
        if (i > 0) out.sql += ", ";
        out.sql += out.aliases[i] + " AS " + out.aliases[i];
      }
      out.sql += " FROM " + it->second;
      out.base_table = it->second;
      return out;
    }

    case Algorithm::kSelectD: {
      TANGO_ASSIGN_OR_RETURN(RenderedSql child, Render(*node.children[0]));
      const std::string s = FreshSubqueryAlias();
      TANGO_ASSIGN_OR_RETURN(
          std::string pred,
          RenderExpr(node.op->predicate, node.children[0]->op->schema,
                     child.aliases, s));
      RenderedSql out;
      out.aliases = child.aliases;
      out.sql = "SELECT ";
      for (size_t i = 0; i < out.aliases.size(); ++i) {
        if (i > 0) out.sql += ", ";
        out.sql += s + "." + child.aliases[i] + " AS " + out.aliases[i];
      }
      const std::string tail = " FROM " + FromItem(child, s) + " WHERE " + pred;
      out.sql += tail;
      if (!child.base_table.empty()) {
        out.filter = tail;
        out.filter_alias = s;
      }
      return out;
    }

    case Algorithm::kProjectD: {
      TANGO_ASSIGN_OR_RETURN(RenderedSql child, Render(*node.children[0]));
      const Schema& cs = node.children[0]->op->schema;
      if (!child.base_table.empty()) {
        // Distinct plain columns under their own names keep the bare table.
        std::vector<std::string> columns;
        for (const algebra::ProjectItem& item : node.op->items) {
          if (item.expr->kind != Expr::Kind::kColumn) break;
          TANGO_ASSIGN_OR_RETURN(size_t idx,
                                 cs.IndexOf(item.expr->table, item.expr->name));
          const std::string& column = child.aliases[idx];
          if (item.name != cs.column(idx).name ||
              std::find(columns.begin(), columns.end(), column) !=
                  columns.end()) {
            break;
          }
          columns.push_back(column);
        }
        if (columns.size() == node.op->items.size()) {
          RenderedSql out;
          out.sql = "SELECT ";
          for (size_t i = 0; i < columns.size(); ++i) {
            if (i > 0) out.sql += ", ";
            out.sql += columns[i] + " AS " + columns[i];
          }
          out.sql += " FROM " + child.base_table;
          out.aliases = std::move(columns);
          out.base_table = child.base_table;
          return out;
        }
      }
      const bool fold = !child.filter.empty();
      const std::string s = fold ? child.filter_alias : FreshSubqueryAlias();
      RenderedSql out;
      out.aliases = ColumnAliases(node.op->schema);
      out.sql = "SELECT ";
      for (size_t i = 0; i < node.op->items.size(); ++i) {
        if (i > 0) out.sql += ", ";
        TANGO_ASSIGN_OR_RETURN(
            std::string e,
            RenderExpr(node.op->items[i].expr, cs, child.aliases, s));
        out.sql += e + " AS " + out.aliases[i];
      }
      out.sql += fold ? child.filter : " FROM " + FromItem(child, s);
      return out;
    }

    case Algorithm::kSortD: {
      TANGO_ASSIGN_OR_RETURN(RenderedSql child, Render(*node.children[0]));
      RenderedSql out;
      out.aliases = child.aliases;
      out.sql = child.sql + " ORDER BY ";
      const Schema& cs = node.children[0]->op->schema;
      for (size_t i = 0; i < node.op->sort_keys.size(); ++i) {
        if (i > 0) out.sql += ", ";
        TANGO_ASSIGN_OR_RETURN(size_t idx, cs.IndexOf(node.op->sort_keys[i].attr));
        out.sql += child.aliases[idx];
        if (!node.op->sort_keys[i].ascending) out.sql += " DESC";
      }
      return out;
    }

    case Algorithm::kDistinctD: {
      TANGO_ASSIGN_OR_RETURN(RenderedSql child, Render(*node.children[0]));
      const std::string s = FreshSubqueryAlias();
      RenderedSql out;
      out.aliases = child.aliases;
      out.sql = "SELECT DISTINCT ";
      for (size_t i = 0; i < out.aliases.size(); ++i) {
        if (i > 0) out.sql += ", ";
        out.sql += s + "." + child.aliases[i] + " AS " + out.aliases[i];
      }
      out.sql += " FROM " + FromItem(child, s);
      return out;
    }

    case Algorithm::kJoinD:
    case Algorithm::kProductD: {
      TANGO_ASSIGN_OR_RETURN(RenderedSql left, Render(*node.children[0]));
      TANGO_ASSIGN_OR_RETURN(RenderedSql right, Render(*node.children[1]));
      const std::string a = FreshSubqueryAlias();
      const std::string b = FreshSubqueryAlias();
      RenderedSql out;
      out.aliases = ColumnAliases(node.op->schema);
      out.sql = "SELECT ";
      const size_t lcols = left.aliases.size();
      for (size_t i = 0; i < out.aliases.size(); ++i) {
        if (i > 0) out.sql += ", ";
        if (i < lcols) {
          out.sql += a + "." + left.aliases[i];
        } else {
          out.sql += b + "." + right.aliases[i - lcols];
        }
        out.sql += " AS " + out.aliases[i];
      }
      out.sql += " FROM " + FromItem(left, a) + ", " + FromItem(right, b);
      if (node.algorithm == Algorithm::kJoinD) {
        out.sql += " WHERE ";
        const Schema& ls = node.children[0]->op->schema;
        const Schema& rs = node.children[1]->op->schema;
        for (size_t i = 0; i < node.op->join_attrs.size(); ++i) {
          if (i > 0) out.sql += " AND ";
          TANGO_ASSIGN_OR_RETURN(size_t li, ls.IndexOf(node.op->join_attrs[i].first));
          TANGO_ASSIGN_OR_RETURN(size_t ri, rs.IndexOf(node.op->join_attrs[i].second));
          out.sql += a + "." + left.aliases[li] + " = " + b + "." +
                     right.aliases[ri];
        }
      }
      return out;
    }

    case Algorithm::kTJoinD: {
      // The Figure 5 shape: equijoin + overlap condition, GREATEST/LEAST
      // for the intersected period.
      TANGO_ASSIGN_OR_RETURN(RenderedSql left, Render(*node.children[0]));
      TANGO_ASSIGN_OR_RETURN(RenderedSql right, Render(*node.children[1]));
      const std::string a = FreshSubqueryAlias();
      const std::string b = FreshSubqueryAlias();
      const Schema& ls = node.children[0]->op->schema;
      const Schema& rs = node.children[1]->op->schema;
      TANGO_ASSIGN_OR_RETURN(size_t lt1, algebra::T1Index(ls));
      TANGO_ASSIGN_OR_RETURN(size_t lt2, algebra::T2Index(ls));
      TANGO_ASSIGN_OR_RETURN(size_t rt1, algebra::T1Index(rs));
      TANGO_ASSIGN_OR_RETURN(size_t rt2, algebra::T2Index(rs));
      std::vector<size_t> r_excluded = {rt1, rt2};
      std::vector<std::pair<size_t, size_t>> equi;
      for (const auto& [l, r] : node.op->join_attrs) {
        TANGO_ASSIGN_OR_RETURN(size_t li, ls.IndexOf(l));
        TANGO_ASSIGN_OR_RETURN(size_t ri, rs.IndexOf(r));
        equi.emplace_back(li, ri);
        r_excluded.push_back(ri);
      }
      RenderedSql out;
      out.aliases = ColumnAliases(node.op->schema);
      out.sql = "SELECT ";
      size_t pos = 0;
      for (size_t i = 0; i < ls.num_columns(); ++i) {
        if (i == lt1 || i == lt2) continue;
        if (pos > 0) out.sql += ", ";
        out.sql += a + "." + left.aliases[i] + " AS " + out.aliases[pos++];
      }
      for (size_t i = 0; i < rs.num_columns(); ++i) {
        if (std::find(r_excluded.begin(), r_excluded.end(), i) !=
            r_excluded.end()) {
          continue;
        }
        if (pos > 0) out.sql += ", ";
        out.sql += b + "." + right.aliases[i] + " AS " + out.aliases[pos++];
      }
      if (pos > 0) out.sql += ", ";
      out.sql += "GREATEST(" + a + "." + left.aliases[lt1] + ", " + b + "." +
                 right.aliases[rt1] + ") AS " + out.aliases[pos++];
      out.sql += ", LEAST(" + a + "." + left.aliases[lt2] + ", " + b + "." +
                 right.aliases[rt2] + ") AS " + out.aliases[pos++];
      out.sql += " FROM " + FromItem(left, a) + ", " + FromItem(right, b);
      out.sql += " WHERE ";
      for (const auto& [li, ri] : equi) {
        out.sql += a + "." + left.aliases[li] + " = " + b + "." +
                   right.aliases[ri] + " AND ";
      }
      out.sql += a + "." + left.aliases[lt1] + " < " + b + "." +
                 right.aliases[rt2];
      out.sql += " AND " + a + "." + left.aliases[lt2] + " > " + b + "." +
                 right.aliases[rt1];
      return out;
    }

    case Algorithm::kTAggrD:
      return RenderTAggr(node);

    default:
      return Status::Internal(std::string("algorithm not renderable to SQL: ") +
                              optimizer::AlgorithmName(node.algorithm));
  }
}

Result<RenderedSql> Translator::RenderTAggr(const PhysPlan& node) {
  TANGO_ASSIGN_OR_RETURN(RenderedSql child, Render(*node.children[0]));
  const Schema& cs = node.children[0]->op->schema;
  TANGO_ASSIGN_OR_RETURN(size_t t1, algebra::T1Index(cs));
  TANGO_ASSIGN_OR_RETURN(size_t t2, algebra::T2Index(cs));
  std::vector<size_t> group_cols;
  for (const std::string& g : node.op->group_by) {
    TANGO_ASSIGN_OR_RETURN(size_t idx, cs.IndexOf(g));
    group_cols.push_back(idx);
  }

  RenderedSql out;
  out.aliases = ColumnAliases(node.op->schema);

  // Constant-period instants: start and end points per group.
  auto instants = [&](const std::string& x) {
    std::string sql = "SELECT ";
    for (size_t i = 0; i < group_cols.size(); ++i) {
      sql += x + "." + child.aliases[group_cols[i]] + " AS G" +
             std::to_string(i) + ", ";
    }
    sql += x + "." + child.aliases[t1] + " AS T FROM " + FromItem(child, x);
    sql += " UNION SELECT ";
    for (size_t i = 0; i < group_cols.size(); ++i) {
      sql += x + "2." + child.aliases[group_cols[i]] + " AS G" +
             std::to_string(i) + ", ";
    }
    sql += x + "2." + child.aliases[t2] + " AS T FROM " +
           FromItem(child, x + "2");
    return sql;
  };

  // Adjacent instants form the candidate constant periods.
  std::string pairs = "SELECT ";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    pairs += "A.G" + std::to_string(i) + " AS G" + std::to_string(i) + ", ";
  }
  pairs += "A.T AS T1, MIN(B.T) AS T2 FROM (" + instants("IA") + ") A, (" +
           instants("IB") + ") B WHERE ";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    pairs += "A.G" + std::to_string(i) + " = B.G" + std::to_string(i) + " AND ";
  }
  pairs += "A.T < B.T GROUP BY ";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    pairs += "A.G" + std::to_string(i) + ", ";
  }
  pairs += "A.T";

  // Aggregate the argument tuples covering each constant period.
  std::string sql = "SELECT ";
  size_t pos = 0;
  for (size_t i = 0; i < group_cols.size(); ++i) {
    sql += "R." + child.aliases[group_cols[i]] + " AS " + out.aliases[pos++] +
           ", ";
  }
  sql += "P.T1 AS " + out.aliases[pos++];
  sql += ", P.T2 AS " + out.aliases[pos++];
  for (const algebra::AggItem& agg : node.op->aggs) {
    sql += ", ";
    sql += AggFuncName(agg.func);
    sql += "(";
    if (agg.arg.empty()) {
      sql += "*";
    } else {
      TANGO_ASSIGN_OR_RETURN(size_t ai, cs.IndexOf(agg.arg));
      sql += "R." + child.aliases[ai];
    }
    sql += ") AS " + out.aliases[pos++];
  }
  sql += " FROM " + FromItem(child, "R") + ", (" + pairs + ") P WHERE ";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    sql += "R." + child.aliases[group_cols[i]] + " = P.G" + std::to_string(i) +
           " AND ";
  }
  sql += "R." + child.aliases[t1] + " <= P.T1 AND P.T2 <= R." +
         child.aliases[t2];
  sql += " GROUP BY ";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    sql += "R." + child.aliases[group_cols[i]] + ", ";
  }
  sql += "P.T1, P.T2";
  out.sql = std::move(sql);
  return out;
}

}  // namespace sqlgen
}  // namespace tango
