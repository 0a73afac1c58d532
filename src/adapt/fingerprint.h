#ifndef TANGO_ADAPT_FINGERPRINT_H_
#define TANGO_ADAPT_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "optimizer/phys.h"

namespace tango {
namespace adapt {

/// \brief A query canonicalized for the plan cache: literals lifted into an
/// ordered parameter vector so `WHERE Amount > 1200` and `... > 1300` share
/// one fingerprint.
///
/// `plan` is a tagged copy of the input: every literal site carries its
/// parameter slot in Expr::param_id while keeping the original value in
/// place, so the first optimization of a fingerprint still sees real
/// selectivities and the physical plan it produces stays rebindable
/// (BindPhysParams) for later parameter sets.
struct ParameterizedQuery {
  algebra::OpPtr plan;
  std::vector<Value> params;
  /// Stable FNV-1a hash of `canon` (never 0 for a non-null plan).
  uint64_t hash = 0;
  /// The canonical parameterized form, `plan->ToString(LiteralStyle::
  /// kSlots)`; cache keys carry it verbatim as a collision guard, and scans
  /// embed their schema signature so a schema change yields a new
  /// fingerprint.
  std::string canon;
};

/// Canonicalizes `plan` (literals -> ordered typed placeholders, stable
/// 64-bit hash). Traversal is preorder: a node's own expressions (predicate,
/// then projection items) before its children, left to right — the same
/// order BindLogicalParams/BindPhysParams substitute in.
ParameterizedQuery ParameterizeQuery(const algebra::OpPtr& plan);

/// Deep-copies a parameterized logical plan substituting `params` at the
/// tagged literal sites. Schemas are preserved: placeholders are typed, so a
/// type change produces a different fingerprint, never a rebind.
algebra::OpPtr BindLogicalParams(const algebra::OpPtr& plan,
                                 const std::vector<Value>& params);

/// Like BindLogicalParams for a cached physical plan: copies the node spine
/// and each node's parameter-carrying operator, substituting `params` into
/// predicates and projection items. Structure, sites, orders, and cost
/// estimates are untouched.
optimizer::PhysPlanPtr BindPhysParams(const optimizer::PhysPlanPtr& plan,
                                      const std::vector<Value>& params);

/// Stable key of one memo node: hash of the node's slot-style Describe()
/// combined with its child group keys. Cardinality feedback is recorded and
/// re-injected under these keys, so they must not depend on literal values
/// (tagged literals render as their parameter slot, which is positionally
/// stable across executions of the same fingerprint). Never returns 0 — 0
/// means "no key" downstream.
uint64_t NodeKey(const algebra::Op& op, const std::vector<uint64_t>& child_keys);

/// Base relations referenced by a plan (uppercased, deduplicated) — the
/// plan cache invalidates by these on CollectStatistics/schema change.
std::vector<std::string> ReferencedTables(const algebra::OpPtr& plan);

/// FNV-1a over a string (exposed for tests).
uint64_t Fingerprint64(const std::string& s);

}  // namespace adapt
}  // namespace tango

#endif  // TANGO_ADAPT_FINGERPRINT_H_
