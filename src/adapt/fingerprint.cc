#include "adapt/fingerprint.h"

#include <algorithm>
#include <functional>
#include <memory>

namespace tango {
namespace adapt {

namespace {

/// Typed placeholder for a literal: tagged sites render their parameter
/// slot (positionally stable within a fingerprint), untagged ones just the
/// type, so an int -> string change always changes the canon.
std::string LiteralCanon(const Expr& e) {
  char type = 'n';
  if (e.literal.is_int()) type = 'i';
  else if (e.literal.is_double()) type = 'd';
  else if (e.literal.is_string()) type = 's';
  std::string out = "?";
  if (e.param_id >= 0) out += std::to_string(e.param_id);
  out += ':';
  out += type;
  return out;
}

std::string ExprCanon(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kColumn: {
      std::string q = e.table.empty() ? e.name : e.table + "." + e.name;
      if (q.empty()) q.append("$").append(std::to_string(e.index));
      return q;
    }
    case Expr::Kind::kLiteral:
      return LiteralCanon(e);
    case Expr::Kind::kUnary: {
      const char* op = "NOT";
      switch (e.unary_op) {
        case UnaryOp::kNot: op = "NOT"; break;
        case UnaryOp::kNeg: op = "NEG"; break;
        case UnaryOp::kIsNull: op = "ISNULL"; break;
        case UnaryOp::kIsNotNull: op = "ISNOTNULL"; break;
      }
      return std::string(op) + "(" + ExprCanon(*e.children[0]) + ")";
    }
    case Expr::Kind::kBinary:
      return std::string("(")
          .append(ExprCanon(*e.children[0]))
          .append(" ")
          .append(BinaryOpName(e.binary_op))
          .append(" ")
          .append(ExprCanon(*e.children[1]))
          .append(")");
    case Expr::Kind::kFunction: {
      std::string out = e.function + "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += ",";
        out += ExprCanon(*e.children[i]);
      }
      return out + ")";
    }
    case Expr::Kind::kAggregate: {
      std::string out = AggFuncName(e.agg);
      out += "(";
      out += e.agg_star ? "*" : ExprCanon(*e.children[0]);
      return out + ")";
    }
  }
  return "?";
}

/// Canon of one node's own parameters — Describe() with expressions
/// literal-lifted and, for scans, the catalog schema signature embedded so
/// a schema change is a new fingerprint (invalidation for free).
std::string NodeCanon(const algebra::Op& op) {
  std::string out = algebra::OpKindName(op.kind);
  switch (op.kind) {
    case algebra::OpKind::kScan: {
      out += " " + op.table;
      if (op.alias != op.table) out += " AS " + op.alias;
      out += " {";
      for (size_t i = 0; i < op.schema.num_columns(); ++i) {
        if (i > 0) out += ",";
        const Column& c = op.schema.column(i);
        out += c.name;
        out += ':';
        out += DataTypeName(c.type);
      }
      out += "}";
      break;
    }
    case algebra::OpKind::kSelect:
      out += " [" + ExprCanon(*op.predicate) + "]";
      break;
    case algebra::OpKind::kProject: {
      out += " [";
      for (size_t i = 0; i < op.items.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprCanon(*op.items[i].expr) + " AS " + op.items[i].name;
      }
      out += "]";
      break;
    }
    case algebra::OpKind::kSort: {
      out += " [";
      for (size_t i = 0; i < op.sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += op.sort_keys[i].attr;
        if (!op.sort_keys[i].ascending) out += " DESC";
      }
      out += "]";
      break;
    }
    case algebra::OpKind::kJoin:
    case algebra::OpKind::kTJoin: {
      out += " [";
      for (size_t i = 0; i < op.join_attrs.size(); ++i) {
        if (i > 0) out += ", ";
        out += op.join_attrs[i].first + "=" + op.join_attrs[i].second;
      }
      out += "]";
      break;
    }
    case algebra::OpKind::kTAggregate: {
      out += " [";
      for (size_t i = 0; i < op.group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += op.group_by[i];
      }
      out += "; ";
      for (size_t i = 0; i < op.aggs.size(); ++i) {
        if (i > 0) out += ", ";
        out += AggFuncName(op.aggs[i].func);
        out += "(" + (op.aggs[i].arg.empty() ? "*" : op.aggs[i].arg) + ")";
        out += " AS " + op.aggs[i].name;
      }
      out += "]";
      break;
    }
    default:
      break;  // transfers / dupelim / coalesce / difference / product: kind only
  }
  return out;
}

std::string PlanCanon(const algebra::Op& op) {
  std::string out = NodeCanon(op);
  out += "(";
  for (size_t i = 0; i < op.children.size(); ++i) {
    if (i > 0) out += ",";
    out += PlanCanon(*op.children[i]);
  }
  out += ")";
  return out;
}

ExprPtr TagExpr(const ExprPtr& e, std::vector<Value>* params) {
  auto out = std::make_shared<Expr>(*e);
  if (e->kind == Expr::Kind::kLiteral) {
    out->param_id = static_cast<int>(params->size());
    params->push_back(e->literal);
    return out;
  }
  out->children.clear();
  for (const ExprPtr& c : e->children) {
    out->children.push_back(TagExpr(c, params));
  }
  return out;
}

algebra::OpPtr TagOp(const algebra::OpPtr& op, std::vector<Value>* params) {
  auto out = std::make_shared<algebra::Op>(*op);
  if (out->predicate != nullptr) out->predicate = TagExpr(out->predicate, params);
  for (algebra::ProjectItem& item : out->items) {
    item.expr = TagExpr(item.expr, params);
  }
  out->children.clear();
  for (const algebra::OpPtr& c : op->children) {
    out->children.push_back(TagOp(c, params));
  }
  return out;
}

ExprPtr SubstituteExpr(const ExprPtr& e, const std::vector<Value>& params) {
  if (e->kind == Expr::Kind::kLiteral) {
    if (e->param_id < 0 ||
        static_cast<size_t>(e->param_id) >= params.size()) {
      return e;
    }
    auto out = std::make_shared<Expr>(*e);
    out->literal = params[static_cast<size_t>(e->param_id)];
    return out;
  }
  auto out = std::make_shared<Expr>(*e);
  out->children.clear();
  for (const ExprPtr& c : e->children) {
    out->children.push_back(SubstituteExpr(c, params));
  }
  return out;
}

/// Copies one operator substituting its own expressions only (children are
/// handled by the caller — the logical walk recurses, the physical walk
/// leaves the memo's placeholder children untouched).
std::shared_ptr<algebra::Op> SubstituteOpParams(const algebra::Op& op,
                                                const std::vector<Value>& params) {
  auto out = std::make_shared<algebra::Op>(op);
  if (out->predicate != nullptr) {
    out->predicate = SubstituteExpr(out->predicate, params);
  }
  for (algebra::ProjectItem& item : out->items) {
    item.expr = SubstituteExpr(item.expr, params);
  }
  return out;
}

}  // namespace

uint64_t Fingerprint64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;  // FNV prime
  }
  return h == 0 ? 1 : h;
}

ParameterizedQuery ParameterizeQuery(const algebra::OpPtr& plan) {
  ParameterizedQuery out;
  if (plan == nullptr) return out;
  out.plan = TagOp(plan, &out.params);
  out.canon = PlanCanon(*out.plan);
  out.hash = Fingerprint64(out.canon);
  return out;
}

algebra::OpPtr BindLogicalParams(const algebra::OpPtr& plan,
                                 const std::vector<Value>& params) {
  if (plan == nullptr) return plan;
  auto out = SubstituteOpParams(*plan, params);
  out->children.clear();
  for (const algebra::OpPtr& c : plan->children) {
    out->children.push_back(BindLogicalParams(c, params));
  }
  return out;
}

optimizer::PhysPlanPtr BindPhysParams(const optimizer::PhysPlanPtr& plan,
                                      const std::vector<Value>& params) {
  if (plan == nullptr) return plan;
  auto out = std::make_shared<optimizer::PhysPlan>(*plan);
  if (out->op != nullptr) {
    auto op = SubstituteOpParams(*out->op, params);
    op->children = out->op->children;  // placeholders carry no literals
    out->op = op;
  }
  out->children.clear();
  for (const optimizer::PhysPlanPtr& c : plan->children) {
    out->children.push_back(BindPhysParams(c, params));
  }
  return out;
}

uint64_t NodeKey(const algebra::Op& op,
                 const std::vector<uint64_t>& child_keys) {
  std::string s = NodeCanon(op);
  for (const uint64_t k : child_keys) {
    s.append("|").append(std::to_string(k));
  }
  return Fingerprint64(s);
}

std::vector<std::string> ReferencedTables(const algebra::OpPtr& plan) {
  std::vector<std::string> out;
  std::function<void(const algebra::Op&)> walk = [&](const algebra::Op& op) {
    if (op.kind == algebra::OpKind::kScan) out.push_back(ToUpper(op.table));
    for (const algebra::OpPtr& c : op.children) walk(*c);
  };
  if (plan != nullptr) walk(*plan);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace adapt
}  // namespace tango
