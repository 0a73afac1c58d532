#include "expr/expr.h"

#include <algorithm>

namespace tango {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

ExprPtr Expr::Column(std::string table, std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kColumn;
  e->table = ToUpper(table);
  e->name = ToUpper(name);
  return e;
}

ExprPtr Expr::ColumnRef(const std::string& reference) {
  const size_t dot = reference.find('.');
  if (dot == std::string::npos) return Column("", reference);
  return Column(reference.substr(0, dot), reference.substr(dot + 1));
}

ExprPtr Expr::BoundColumn(int index, std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kColumn;
  e->name = ToUpper(name);
  e->index = index;
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kFunction;
  e->function = ToUpper(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::Aggregate(AggFunc f, ExprPtr arg, bool star) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kAggregate;
  e->agg = f;
  e->agg_star = star;
  if (arg != nullptr) e->children.push_back(std::move(arg));
  return e;
}

ExprPtr Expr::AndAll(std::vector<ExprPtr> conjuncts) {
  ExprPtr out = nullptr;
  for (auto& c : conjuncts) {
    if (c == nullptr) continue;
    out = (out == nullptr) ? c : And(out, c);
  }
  return out;
}

namespace {

/// How tightly an expression's printed form binds, after the parser's
/// grammar (sql/parser.cc): OR < AND < NOT < comparison < additive <
/// multiplicative < unary minus and primaries. AND and OR print inside their
/// own parentheses, and unary minus, IS [NOT] NULL and NOT parenthesize
/// their operand, so only the binary operators below ever need more.
enum Binding { kNotForm, kComparison, kAdditive, kMultiplicative, kPrimary };

Binding BindingOf(const Expr& e) {
  if (e.kind == Expr::Kind::kUnary) {
    if (e.unary_op == UnaryOp::kNot) return kNotForm;
    return e.unary_op == UnaryOp::kNeg ? kPrimary : kComparison;
  }
  if (e.kind != Expr::Kind::kBinary) return kPrimary;
  switch (e.binary_op) {
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return kPrimary;
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
      return kAdditive;
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return kMultiplicative;
    default:
      return kComparison;
  }
}

/// The operand's text, parenthesized when it binds looser than `least`.
std::string Operand(const Expr& e, Binding least, LiteralStyle style) {
  if (BindingOf(e) >= least) return e.ToString(style);
  std::string out = "(";
  out += e.ToString(style);
  out += ')';
  return out;
}

/// A literal as its parameter slot and type (LiteralStyle::kSlots).
std::string SlotLiteral(const Expr& e) {
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

}  // namespace

std::string Expr::ToString(LiteralStyle style) const {
  switch (kind) {
    case Kind::kColumn: {
      std::string q = table.empty() ? name : table + "." + name;
      if (q.empty()) q.append("$").append(std::to_string(index));
      return q;
    }
    case Kind::kLiteral:
      return style == LiteralStyle::kSlots ? SlotLiteral(*this)
                                           : literal.ToSqlLiteral();
    case Kind::kUnary: {
      const char* prefix = "(";
      const char* suffix = ")";
      switch (unary_op) {
        case UnaryOp::kNot: prefix = "NOT ("; break;
        case UnaryOp::kNeg: prefix = "-("; break;
        case UnaryOp::kIsNull: suffix = ") IS NULL"; break;
        case UnaryOp::kIsNotNull: suffix = ") IS NOT NULL"; break;
      }
      std::string out = prefix;
      out += children[0]->ToString(style);
      out += suffix;
      return out;
    }
    case Kind::kBinary: {
      // AND and OR print inside their own parentheses, so any operand goes.
      // + - * / associate left, so a left operand may bind as loosely as
      // the operator itself; comparisons do not associate at all.
      const Binding self = BindingOf(*this);
      Binding left = kNotForm, right = kNotForm;
      if (self != kPrimary) {
        left = self == kComparison ? kAdditive : self;
        right = static_cast<Binding>(self + 1);
      }
      std::string out = self == kPrimary ? "(" : "";
      out += Operand(*children[0], left, style);
      out += ' ';
      out += BinaryOpName(binary_op);
      out += ' ';
      out += Operand(*children[1], right, style);
      if (self == kPrimary) out += ')';
      return out;
    }
    case Kind::kFunction: {
      std::string out = function + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString(style);
      }
      return out + ")";
    }
    case Kind::kAggregate: {
      std::string out = AggFuncName(agg);
      out += "(";
      out += agg_star ? "*" : children[0]->ToString(style);
      return out + ")";
    }
  }
  return "?";
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kColumn:
      // Bound columns compare by index; unbound by qualified name.
      if (index >= 0 || other.index >= 0) return index == other.index;
      return table == other.table && name == other.name;
    case Kind::kLiteral:
      if (literal.is_null() != other.literal.is_null()) return false;
      return literal.is_null() || literal == other.literal;
    case Kind::kUnary:
      if (unary_op != other.unary_op) return false;
      break;
    case Kind::kBinary:
      if (binary_op != other.binary_op) return false;
      break;
    case Kind::kFunction:
      if (function != other.function) return false;
      break;
    case Kind::kAggregate:
      if (agg != other.agg || agg_star != other.agg_star) return false;
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

Result<ExprPtr> Bind(const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  auto out = std::make_shared<Expr>(*expr);
  if (expr->kind == Expr::Kind::kColumn) {
    TANGO_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(expr->table, expr->name));
    out->index = static_cast<int>(idx);
    return ExprPtr(out);
  }
  out->children.clear();
  for (const ExprPtr& child : expr->children) {
    TANGO_ASSIGN_OR_RETURN(ExprPtr bound, Bind(child, schema));
    out->children.push_back(std::move(bound));
  }
  return ExprPtr(out);
}

namespace {

Value EvalBinary(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.is_null() || r.is_null()) return Value::Null();
      const int c = l.Compare(r);
      bool b = false;
      switch (op) {
        case BinaryOp::kEq: b = c == 0; break;
        case BinaryOp::kNe: b = c != 0; break;
        case BinaryOp::kLt: b = c < 0; break;
        case BinaryOp::kLe: b = c <= 0; break;
        case BinaryOp::kGt: b = c > 0; break;
        case BinaryOp::kGe: b = c >= 0; break;
        default: break;
      }
      return Value(static_cast<int64_t>(b ? 1 : 0));
    }
    case BinaryOp::kAnd: {
      // Three-valued logic: FALSE AND x = FALSE even for NULL x.
      const bool lf = !l.is_null() && l.AsDouble() == 0.0;
      const bool rf = !r.is_null() && r.AsDouble() == 0.0;
      if (lf || rf) return Value(static_cast<int64_t>(0));
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value(static_cast<int64_t>(1));
    }
    case BinaryOp::kOr: {
      const bool lt = !l.is_null() && l.AsDouble() != 0.0;
      const bool rt = !r.is_null() && r.AsDouble() != 0.0;
      if (lt || rt) return Value(static_cast<int64_t>(1));
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value(static_cast<int64_t>(0));
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (l.is_null() || r.is_null()) return Value::Null();
      if (l.is_int() && r.is_int() && op != BinaryOp::kDiv) {
        const int64_t a = l.AsInt(), b = r.AsInt();
        switch (op) {
          case BinaryOp::kAdd: return Value(a + b);
          case BinaryOp::kSub: return Value(a - b);
          case BinaryOp::kMul: return Value(a * b);
          default: break;
        }
      }
      const double a = l.AsDouble(), b = r.AsDouble();
      switch (op) {
        case BinaryOp::kAdd: return Value(a + b);
        case BinaryOp::kSub: return Value(a - b);
        case BinaryOp::kMul: return Value(a * b);
        case BinaryOp::kDiv: return b == 0.0 ? Value::Null() : Value(a / b);
        default: break;
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

/// Evaluates an operand, by reference when it is a column or a literal:
/// comparing a string column costs no copy of the string.
const Value& EvalOperand(const Expr& expr, const Tuple& tuple, Value* tmp) {
  if (expr.kind == Expr::Kind::kColumn) {
    return tuple[static_cast<size_t>(expr.index)];
  }
  if (expr.kind == Expr::Kind::kLiteral) return expr.literal;
  *tmp = Eval(expr, tuple);
  return *tmp;
}

}  // namespace

Value Eval(const Expr& expr, const Tuple& tuple) {
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      return tuple[static_cast<size_t>(expr.index)];
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kUnary: {
      Value v = Eval(*expr.children[0], tuple);
      switch (expr.unary_op) {
        case UnaryOp::kNot:
          if (v.is_null()) return Value::Null();
          return Value(static_cast<int64_t>(v.AsDouble() == 0.0 ? 1 : 0));
        case UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.is_int()) return Value(-v.AsInt());
          return Value(-v.AsDouble());
        case UnaryOp::kIsNull:
          return Value(static_cast<int64_t>(v.is_null() ? 1 : 0));
        case UnaryOp::kIsNotNull:
          return Value(static_cast<int64_t>(v.is_null() ? 0 : 1));
      }
      return Value::Null();
    }
    case Expr::Kind::kBinary: {
      Value l, r;
      return EvalBinary(expr.binary_op,
                        EvalOperand(*expr.children[0], tuple, &l),
                        EvalOperand(*expr.children[1], tuple, &r));
    }
    case Expr::Kind::kFunction: {
      // GREATEST / LEAST: NULL if any argument is NULL (Oracle semantics).
      Value best;
      bool first = true;
      const bool greatest = expr.function == "GREATEST";
      for (const ExprPtr& c : expr.children) {
        Value v = Eval(*c, tuple);
        if (v.is_null()) return Value::Null();
        if (first || (greatest ? v > best : v < best)) best = v;
        first = false;
      }
      return best;
    }
    case Expr::Kind::kAggregate:
      // Aggregates are computed by aggregation operators, never inline.
      return Value::Null();
  }
  return Value::Null();
}

bool EvalPredicate(const Expr& expr, const Tuple& tuple) {
  const Value v = Eval(expr, tuple);
  return !v.is_null() && v.AsDouble() != 0.0;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& predicate) {
  std::vector<ExprPtr> out;
  if (predicate == nullptr) return out;
  if (predicate->kind == Expr::Kind::kBinary &&
      predicate->binary_op == BinaryOp::kAnd) {
    for (const ExprPtr& c : predicate->children) {
      auto sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(predicate);
  return out;
}

void CollectColumns(const ExprPtr& expr, std::vector<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumn) {
    out->push_back(expr->table.empty() ? expr->name
                                       : expr->table + "." + expr->name);
    return;
  }
  for (const ExprPtr& c : expr->children) CollectColumns(c, out);
}

namespace {

void AppendColumnIndexes(const Expr& e, std::vector<size_t>* out) {
  if (e.kind == Expr::Kind::kColumn) {
    out->push_back(static_cast<size_t>(e.index));
    return;
  }
  for (const ExprPtr& c : e.children) AppendColumnIndexes(*c, out);
}

}  // namespace

std::vector<size_t> BoundColumnIndexes(const Expr& expr) {
  std::vector<size_t> cols;
  AppendColumnIndexes(expr, &cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

bool ColumnsResolveIn(const ExprPtr& expr, const Schema& schema) {
  std::vector<std::string> cols;
  CollectColumns(expr, &cols);
  return std::all_of(cols.begin(), cols.end(), [&](const std::string& c) {
    return schema.Contains(c);
  });
}

bool ContainsAggregate(const ExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->kind == Expr::Kind::kAggregate) return true;
  return std::any_of(expr->children.begin(), expr->children.end(),
                     [](const ExprPtr& c) { return ContainsAggregate(c); });
}

Result<DataType> InferType(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind) {
    case Expr::Kind::kColumn: {
      if (expr->index >= 0) {
        if (static_cast<size_t>(expr->index) >= schema.num_columns()) {
          return Status::Internal("bound column index out of range");
        }
        return schema.column(static_cast<size_t>(expr->index)).type;
      }
      TANGO_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(expr->table, expr->name));
      return schema.column(idx).type;
    }
    case Expr::Kind::kLiteral:
      if (expr->literal.is_double()) return DataType::kDouble;
      if (expr->literal.is_string()) return DataType::kString;
      return DataType::kInt;
    case Expr::Kind::kUnary:
      if (expr->unary_op == UnaryOp::kNeg)
        return InferType(expr->children[0], schema);
      return DataType::kInt;  // boolean-as-int
    case Expr::Kind::kBinary:
      switch (expr->binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          TANGO_ASSIGN_OR_RETURN(DataType l, InferType(expr->children[0], schema));
          TANGO_ASSIGN_OR_RETURN(DataType r, InferType(expr->children[1], schema));
          if (l == DataType::kDouble || r == DataType::kDouble)
            return DataType::kDouble;
          return DataType::kInt;
        }
        case BinaryOp::kDiv:
          return DataType::kDouble;
        default:
          return DataType::kInt;  // comparisons / logic
      }
    case Expr::Kind::kFunction: {
      DataType out = DataType::kInt;
      for (const ExprPtr& c : expr->children) {
        TANGO_ASSIGN_OR_RETURN(DataType t, InferType(c, schema));
        if (t == DataType::kDouble) out = DataType::kDouble;
        if (t == DataType::kString) return DataType::kString;
      }
      return out;
    }
    case Expr::Kind::kAggregate:
      if (expr->agg == AggFunc::kCount) return DataType::kInt;
      if (expr->agg == AggFunc::kAvg) return DataType::kDouble;
      return InferType(expr->children[0], schema);
  }
  return Status::Internal("unreachable");
}

}  // namespace tango
