#include "algebra/algebra.h"

#include <algorithm>

namespace tango {
namespace algebra {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kScan: return "SCAN";
    case OpKind::kSelect: return "SELECT";
    case OpKind::kProject: return "PROJECT";
    case OpKind::kSort: return "SORT";
    case OpKind::kJoin: return "JOIN";
    case OpKind::kTJoin: return "TJOIN";
    case OpKind::kTAggregate: return "TAGGR";
    case OpKind::kDupElim: return "DUPELIM";
    case OpKind::kCoalesce: return "COALESCE";
    case OpKind::kDifference: return "DIFFERENCE";
    case OpKind::kProduct: return "PRODUCT";
    case OpKind::kTransferM: return "T^M";
    case OpKind::kTransferD: return "T^D";
  }
  return "?";
}

bool HasPeriod(const Schema& schema) {
  return schema.IndexOf("T1").ok() && schema.IndexOf("T2").ok();
}

Result<size_t> T1Index(const Schema& schema) { return schema.IndexOf("T1"); }
Result<size_t> T2Index(const Schema& schema) { return schema.IndexOf("T2"); }

namespace {

std::shared_ptr<Op> NewOp(OpKind kind, std::vector<OpPtr> children) {
  auto op = std::make_shared<Op>();
  op->kind = kind;
  op->children = std::move(children);
  return op;
}

}  // namespace

Result<OpPtr> Scan(std::string table, const Schema& schema,
                   std::string alias) {
  auto op = NewOp(OpKind::kScan, {});
  op->table = ToUpper(table);
  op->alias = alias.empty() ? op->table : ToUpper(alias);
  op->schema = schema.WithQualifier(op->alias);
  return OpPtr(op);
}

Result<OpPtr> Select(OpPtr child, ExprPtr predicate) {
  if (predicate == nullptr) return Status::InvalidArgument("null predicate");
  TANGO_RETURN_IF_ERROR(Bind(predicate, child->schema).status());
  auto op = NewOp(OpKind::kSelect, {child});
  op->predicate = std::move(predicate);
  op->schema = child->schema;
  return OpPtr(op);
}

Result<OpPtr> Project(OpPtr child, std::vector<ProjectItem> items) {
  if (items.empty()) return Status::InvalidArgument("empty projection");
  Schema schema;
  for (auto& item : items) {
    TANGO_ASSIGN_OR_RETURN(ExprPtr bound, Bind(item.expr, child->schema));
    Column col;
    col.table = ToUpper(item.qualifier);
    col.name = ToUpper(item.name);
    TANGO_ASSIGN_OR_RETURN(col.type, InferType(bound, child->schema));
    schema.AddColumn(col);
    item.qualifier = col.table;
    item.name = col.name;
  }
  auto op = NewOp(OpKind::kProject, {child});
  op->items = std::move(items);
  op->schema = std::move(schema);
  return OpPtr(op);
}

Result<OpPtr> Sort(OpPtr child, std::vector<SortSpec> keys) {
  if (keys.empty()) return Status::InvalidArgument("empty sort keys");
  for (auto& k : keys) {
    k.attr = ToUpper(k.attr);
    TANGO_RETURN_IF_ERROR(child->schema.IndexOf(k.attr).status());
  }
  auto op = NewOp(OpKind::kSort, {child});
  op->sort_keys = std::move(keys);
  op->schema = child->schema;
  return OpPtr(op);
}

Result<OpPtr> Join(OpPtr left, OpPtr right,
                   std::vector<std::pair<std::string, std::string>> attrs) {
  if (attrs.empty()) return Status::InvalidArgument("equijoin without attrs");
  for (auto& [l, r] : attrs) {
    l = ToUpper(l);
    r = ToUpper(r);
    TANGO_RETURN_IF_ERROR(left->schema.IndexOf(l).status());
    TANGO_RETURN_IF_ERROR(right->schema.IndexOf(r).status());
  }
  auto op = NewOp(OpKind::kJoin, {left, right});
  op->join_attrs = std::move(attrs);
  op->schema = Schema::Concat(left->schema, right->schema);
  return OpPtr(op);
}

Result<OpPtr> TJoin(OpPtr left, OpPtr right,
                    std::vector<std::pair<std::string, std::string>> attrs) {
  if (!HasPeriod(left->schema) || !HasPeriod(right->schema)) {
    return Status::InvalidArgument("temporal join requires T1/T2 on both sides");
  }
  for (auto& [l, r] : attrs) {
    l = ToUpper(l);
    r = ToUpper(r);
    TANGO_RETURN_IF_ERROR(left->schema.IndexOf(l).status());
    TANGO_RETURN_IF_ERROR(right->schema.IndexOf(r).status());
  }
  // Output: left non-period columns, right columns minus join attrs and
  // period, then the intersected period T1, T2.
  Schema schema;
  TANGO_ASSIGN_OR_RETURN(size_t lt1, T1Index(left->schema));
  TANGO_ASSIGN_OR_RETURN(size_t lt2, T2Index(left->schema));
  for (size_t i = 0; i < left->schema.num_columns(); ++i) {
    if (i == lt1 || i == lt2) continue;
    schema.AddColumn(left->schema.column(i));
  }
  TANGO_ASSIGN_OR_RETURN(size_t rt1, T1Index(right->schema));
  TANGO_ASSIGN_OR_RETURN(size_t rt2, T2Index(right->schema));
  std::vector<size_t> excluded = {rt1, rt2};
  for (const auto& [l, r] : attrs) {
    TANGO_ASSIGN_OR_RETURN(size_t idx, right->schema.IndexOf(r));
    excluded.push_back(idx);
  }
  for (size_t i = 0; i < right->schema.num_columns(); ++i) {
    if (std::find(excluded.begin(), excluded.end(), i) != excluded.end()) {
      continue;
    }
    schema.AddColumn(right->schema.column(i));
  }
  schema.AddColumn({"", "T1", DataType::kInt});
  schema.AddColumn({"", "T2", DataType::kInt});

  auto op = NewOp(OpKind::kTJoin, {left, right});
  op->join_attrs = std::move(attrs);
  op->schema = std::move(schema);
  return OpPtr(op);
}

Result<OpPtr> TAggregate(OpPtr child, std::vector<std::string> group_by,
                         std::vector<AggItem> aggs) {
  if (!HasPeriod(child->schema)) {
    return Status::InvalidArgument("temporal aggregation requires T1/T2");
  }
  if (aggs.empty()) return Status::InvalidArgument("no aggregate functions");
  Schema schema;
  for (auto& g : group_by) {
    g = ToUpper(g);
    TANGO_ASSIGN_OR_RETURN(size_t idx, child->schema.IndexOf(g));
    Column col = child->schema.column(idx);
    col.table.clear();  // aggregation output columns are unqualified
    schema.AddColumn(col);
  }
  schema.AddColumn({"", "T1", DataType::kInt});
  schema.AddColumn({"", "T2", DataType::kInt});
  for (auto& a : aggs) {
    a.name = ToUpper(a.name);
    a.arg = ToUpper(a.arg);
    Column col;
    col.name = a.name;
    if (a.func == AggFunc::kCount) {
      col.type = DataType::kInt;
    } else if (a.func == AggFunc::kAvg) {
      col.type = DataType::kDouble;
    } else {
      if (a.arg.empty()) {
        return Status::InvalidArgument("aggregate requires an argument");
      }
      TANGO_ASSIGN_OR_RETURN(size_t idx, child->schema.IndexOf(a.arg));
      col.type = child->schema.column(idx).type;
    }
    if (!a.arg.empty()) {
      TANGO_RETURN_IF_ERROR(child->schema.IndexOf(a.arg).status());
    }
    schema.AddColumn(col);
  }
  auto op = NewOp(OpKind::kTAggregate, {child});
  op->group_by = std::move(group_by);
  op->aggs = std::move(aggs);
  op->schema = std::move(schema);
  return OpPtr(op);
}

Result<OpPtr> DupElim(OpPtr child) {
  auto op = NewOp(OpKind::kDupElim, {child});
  op->schema = child->schema;
  return OpPtr(op);
}

Result<OpPtr> Coalesce(OpPtr child) {
  if (!HasPeriod(child->schema)) {
    return Status::InvalidArgument("coalescing requires T1/T2");
  }
  auto op = NewOp(OpKind::kCoalesce, {child});
  op->schema = child->schema;
  return OpPtr(op);
}

Result<OpPtr> Difference(OpPtr left, OpPtr right) {
  if (left->schema.num_columns() != right->schema.num_columns()) {
    return Status::InvalidArgument("difference arms have different arity");
  }
  for (size_t i = 0; i < left->schema.num_columns(); ++i) {
    if (left->schema.column(i).type != right->schema.column(i).type) {
      return Status::InvalidArgument("difference arms have different types");
    }
  }
  auto op = NewOp(OpKind::kDifference, {left, right});
  op->schema = left->schema;
  return OpPtr(op);
}

Result<OpPtr> Product(OpPtr left, OpPtr right) {
  auto op = NewOp(OpKind::kProduct, {left, right});
  op->schema = Schema::Concat(left->schema, right->schema);
  return OpPtr(op);
}

Result<OpPtr> TransferM(OpPtr child) {
  auto op = NewOp(OpKind::kTransferM, {child});
  op->schema = child->schema;
  return OpPtr(op);
}

Result<OpPtr> TransferD(OpPtr child) {
  auto op = NewOp(OpKind::kTransferD, {child});
  op->schema = child->schema;
  return OpPtr(op);
}

Result<OpPtr> WithChildren(const Op& op, std::vector<OpPtr> children) {
  switch (op.kind) {
    case OpKind::kScan:
      return Scan(op.table, op.schema, op.alias);
    case OpKind::kSelect:
      return Select(children[0], op.predicate);
    case OpKind::kProject:
      return Project(children[0], op.items);
    case OpKind::kSort:
      return Sort(children[0], op.sort_keys);
    case OpKind::kJoin:
      return Join(children[0], children[1], op.join_attrs);
    case OpKind::kTJoin:
      return TJoin(children[0], children[1], op.join_attrs);
    case OpKind::kTAggregate:
      return TAggregate(children[0], op.group_by, op.aggs);
    case OpKind::kDupElim:
      return DupElim(children[0]);
    case OpKind::kCoalesce:
      return Coalesce(children[0]);
    case OpKind::kDifference:
      return Difference(children[0], children[1]);
    case OpKind::kProduct:
      return Product(children[0], children[1]);
    case OpKind::kTransferM:
      return TransferM(children[0]);
    case OpKind::kTransferD:
      return TransferD(children[0]);
  }
  return Status::Internal("unreachable");
}

std::string Op::Describe(LiteralStyle style) const {
  std::string out = OpKindName(kind);
  switch (kind) {
    case OpKind::kScan:
      out += " " + table;
      if (alias != table) out += " AS " + alias;
      if (style == LiteralStyle::kSlots) {
        out += ' ';
        out += schema.ToString();
      }
      break;
    case OpKind::kSelect:
      out += " [" + predicate->ToString(style) + "]";
      break;
    case OpKind::kProject: {
      out += " [";
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        const ProjectItem& item = items[i];
        const std::string expr = item.expr->ToString(style);
        const std::string output = item.qualifier.empty()
                                       ? item.name
                                       : item.qualifier + "." + item.name;
        out += expr;
        if (output != expr) out += " AS " + output;
      }
      out += "]";
      break;
    }
    case OpKind::kSort: {
      out += " [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += sort_keys[i].attr;
        if (!sort_keys[i].ascending) out += " DESC";
      }
      out += "]";
      break;
    }
    case OpKind::kJoin:
    case OpKind::kTJoin: {
      out += " [";
      for (size_t i = 0; i < join_attrs.size(); ++i) {
        if (i > 0) out += ", ";
        out += join_attrs[i].first + "=" + join_attrs[i].second;
      }
      out += "]";
      break;
    }
    case OpKind::kTAggregate: {
      out += " [";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_by[i];
      }
      out += "; ";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) out += ", ";
        out += AggFuncName(aggs[i].func);
        out += "(" + (aggs[i].arg.empty() ? "*" : aggs[i].arg) + ")";
        out += " AS " + aggs[i].name;
      }
      out += "]";
      break;
    }
    default:
      break;
  }
  return out;
}

std::string Op::ToString(LiteralStyle style, int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe(style);
  out += "\n";
  for (const OpPtr& c : children) out += c->ToString(style, indent + 1);
  return out;
}

}  // namespace algebra
}  // namespace tango
