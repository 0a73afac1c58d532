#ifndef TANGO_OPTIMIZER_PHYS_H_
#define TANGO_OPTIMIZER_PHYS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/algebra.h"

namespace tango {
namespace optimizer {

/// Where a (sub)relation is produced — the property the transfer operators
/// T^M / T^D change. The paper encodes location with explicit transfer
/// operators inserted by rules T1–T8; this implementation realizes the same
/// plan space by treating location as a physical property whose enforcers
/// are the transfers (see DESIGN.md: rule T7/T8 redundancy elimination
/// corresponds to never stacking the two enforcers directly).
enum class Site { kDbms, kMiddleware };

const char* SiteName(Site site);

/// Required/delivered physical properties: the site and a sort order
/// (empty order = no requirement / no guarantee).
struct PhysProps {
  Site site = Site::kMiddleware;
  std::vector<algebra::SortSpec> order;

  /// Cache key for winner memoization.
  std::string Key() const;
};

/// True when an order requirement is satisfied by a delivered order: the
/// paper's IsPrefixOf (rule T10's pre-condition).
bool OrderSatisfies(const std::vector<algebra::SortSpec>& required,
                    const std::vector<algebra::SortSpec>& delivered);

/// Physical algorithms. ^M algorithms run in the middleware's execution
/// engine; ^D forms are rendered into SQL by the Translator-To-SQL.
enum class Algorithm {
  // DBMS side ("generic" implementations costed with one formula each).
  kScanD,
  kSelectD,
  kProjectD,
  kSortD,
  kJoinD,
  kTJoinD,
  kTAggrD,
  kDistinctD,
  kProductD,
  // Middleware side (the exec library).
  kFilterM,
  kProjectM,
  kSortM,
  kMergeJoinM,
  kTJoinM,
  kTAggrM,
  kDupElimM,
  kCoalesceM,
  kDiffM,
  // Transfers.
  kTransferM,
  kTransferD,
};

const char* AlgorithmName(Algorithm alg);

/// True for algorithms executed by the DBMS (below a TRANSFER^M).
bool IsDbmsAlgorithm(Algorithm alg);

struct PhysPlan;
using PhysPlanPtr = std::shared_ptr<const PhysPlan>;

/// \brief A physical query execution plan: every operation is specified by
/// an algorithm (the paper's "one best physical plan" per candidate).
struct PhysPlan {
  Algorithm algorithm = Algorithm::kScanD;
  /// Logical operator carrying the parameters (predicate, keys, attrs, ...)
  /// and the output schema. For enforcer-inserted sorts this is a synthetic
  /// sort node.
  algebra::OpPtr op;
  Site site = Site::kDbms;
  /// Order delivered to the parent.
  std::vector<algebra::SortSpec> order;
  /// Estimated total cost of the subtree, microseconds.
  double cost = 0;
  /// Estimated output cardinality and total bytes (from derived statistics).
  double est_cardinality = 0;
  double est_bytes = 0;
  /// Memo group key of the equivalence class this node computes (stable
  /// across re-optimizations of the same fingerprint; see adapt::NodeKey).
  /// Keys actual-vs-estimated cardinality feedback. 0 on synthetic nodes.
  uint64_t feedback_key = 0;

  std::vector<PhysPlanPtr> children;

  std::string ToString(int indent = 0) const;
};

}  // namespace optimizer
}  // namespace tango

#endif  // TANGO_OPTIMIZER_PHYS_H_
