#include "adapt/fingerprint.h"

#include <algorithm>
#include <functional>
#include <memory>

namespace tango {
namespace adapt {

namespace {

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
  out.canon = out.plan->ToString(LiteralStyle::kSlots);
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
  std::string s = op.Describe(LiteralStyle::kSlots);
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
