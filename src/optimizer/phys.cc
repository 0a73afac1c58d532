#include "optimizer/phys.h"

#include <cstdio>
#include <cstring>

namespace tango {
namespace optimizer {

const char* SiteName(Site site) {
  return site == Site::kDbms ? "DBMS" : "MW";
}

std::string PhysProps::Key() const {
  std::string key = site == Site::kDbms ? "D|" : "M|";
  for (const algebra::SortSpec& s : order) {
    key += s.attr;
    key += s.ascending ? "+" : "-";
    key += ",";
  }
  return key;
}

bool OrderSatisfies(const std::vector<algebra::SortSpec>& required,
                    const std::vector<algebra::SortSpec>& delivered) {
  if (required.size() > delivered.size()) return false;
  for (size_t i = 0; i < required.size(); ++i) {
    if (!(required[i] == delivered[i])) return false;
  }
  return true;
}

const char* AlgorithmName(Algorithm alg) {
  switch (alg) {
    case Algorithm::kScanD: return "SCAN^D";
    case Algorithm::kSelectD: return "SELECT^D";
    case Algorithm::kProjectD: return "PROJECT^D";
    case Algorithm::kSortD: return "SORT^D";
    case Algorithm::kJoinD: return "JOIN^D";
    case Algorithm::kTJoinD: return "TJOIN^D";
    case Algorithm::kTAggrD: return "TAGGR^D";
    case Algorithm::kDistinctD: return "DISTINCT^D";
    case Algorithm::kProductD: return "PRODUCT^D";
    case Algorithm::kFilterM: return "FILTER^M";
    case Algorithm::kProjectM: return "PROJECT^M";
    case Algorithm::kSortM: return "SORT^M";
    case Algorithm::kMergeJoinM: return "MERGEJOIN^M";
    case Algorithm::kTJoinM: return "TJOIN^M";
    case Algorithm::kTAggrM: return "TAGGR^M";
    case Algorithm::kDupElimM: return "DUPELIM^M";
    case Algorithm::kCoalesceM: return "COALESCE^M";
    case Algorithm::kDiffM: return "DIFF^M";
    case Algorithm::kTransferM: return "TRANSFER^M";
    case Algorithm::kTransferD: return "TRANSFER^D";
  }
  return "?";
}

bool IsDbmsAlgorithm(Algorithm alg) {
  switch (alg) {
    case Algorithm::kScanD:
    case Algorithm::kSelectD:
    case Algorithm::kProjectD:
    case Algorithm::kSortD:
    case Algorithm::kJoinD:
    case Algorithm::kTJoinD:
    case Algorithm::kTAggrD:
    case Algorithm::kDistinctD:
    case Algorithm::kProductD:
      return true;
    default:
      return false;
  }
}

std::string PhysPlan::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += AlgorithmName(algorithm);
  // The logical node's parameters: its Describe() after the kind's name.
  if (op != nullptr) {
    out += op->Describe().substr(std::strlen(algebra::OpKindName(op->kind)));
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  (cost=%.0fus, rows=%.0f)", cost,
                est_cardinality);
  out += buf;
  out += "\n";
  for (const PhysPlanPtr& c : children) out += c->ToString(indent + 1);
  return out;
}

}  // namespace optimizer
}  // namespace tango
