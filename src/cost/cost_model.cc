#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "expr/expr.h"

namespace tango {
namespace cost {

namespace {

using optimizer::Algorithm;
using optimizer::PhysPlan;

/// The sorts' log factor, floored at one for fewer than two rows.
double Log2(double card) { return card < 2 ? 1 : std::log2(card); }

/// The paper's f(P), a coefficient for the selection condition: the number
/// of comparisons in the predicate.
double PredicateCoefficient(const ExprPtr& predicate) {
  if (predicate == nullptr) return 0;
  double n = 0;
  if (predicate->kind == Expr::Kind::kBinary) {
    switch (predicate->binary_op) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        return PredicateCoefficient(predicate->children[0]) +
               PredicateCoefficient(predicate->children[1]);
      default:
        return 1;
    }
  }
  for (const ExprPtr& c : predicate->children) n += PredicateCoefficient(c);
  return n < 1 ? 1 : n;
}

/// Factors calibration fixes and feedback leaves alone: the statement
/// round trip, the per-block wire overheads and the scan.
bool Pinned(Factor f) {
  return f == &CostFactors::stmt || f == &CostFactors::tmblk ||
         f == &CostFactors::tdblk || f == &CostFactors::scand;
}

/// `node`'s terms, then those of the DBMS nodes below it.
void CollectTerms(const CostModel& model, const PhysPlan& node,
                  std::vector<Term>* out) {
  for (const Term& t : model.SelfTerms(node)) out->push_back(t);
  for (const optimizer::PhysPlanPtr& c : node.children) {
    if (optimizer::IsDbmsAlgorithm(c->algorithm)) CollectTerms(model, *c, out);
  }
}

}  // namespace

std::string CostFactors::ToString() const {
  std::string out;
  for (const NamedFactor& nf : kFactors) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s=%.4g", out.empty() ? "" : " ",
                  nf.name, this->*nf.factor);
    out += buf;
  }
  return out;
}

uint64_t CostModel::Version() {
  const bool drifted =
      std::any_of(std::begin(kFactors), std::end(kFactors),
                  [this](const NamedFactor& nf) {
                    const double base = baseline_.*nf.factor;
                    return std::abs(f_.*nf.factor - base) /
                               std::max(std::abs(base), 1e-12) >
                           kDriftThreshold;
                  });
  if (drifted) {
    baseline_ = f_;
    ++version_;
  }
  return version_;
}

double CostModel::Blocks(double cardinality) const {
  if (cardinality <= 0) return 1;
  return std::ceil(cardinality / static_cast<double>(batch_rows_));
}

Terms CostModel::SelfTerms(const PhysPlan& node) const {
  const double out = node.est_bytes;
  double in = 0;  // the inputs' bytes
  for (const optimizer::PhysPlanPtr& c : node.children) in += c->est_bytes;
  switch (node.algorithm) {
    // ---- Figure 6 ----
    case Algorithm::kTransferM:
      return {{&CostFactors::stmt, 1},
              {&CostFactors::tm, out},
              {&CostFactors::tmblk, Blocks(node.est_cardinality)}};
    case Algorithm::kTransferD:
      return {{&CostFactors::stmt, 1},
              {&CostFactors::td, out},
              {&CostFactors::tdblk, Blocks(node.est_cardinality)}};
    case Algorithm::kFilterM:
      return {{&CostFactors::sem,
               PredicateCoefficient(node.op->predicate) * in}};
    // TAGGR^M excludes the external sort of its argument (the child SORT is
    // charged separately, as the formula adds cost(SORT)); the internal
    // T2-sort is folded into taggm1.
    case Algorithm::kTAggrM:
      return {{&CostFactors::taggm1, in}, {&CostFactors::taggm2, out}};
    case Algorithm::kTAggrD:
      return {{&CostFactors::taggd1, in}, {&CostFactors::taggd2, out}};

    // ---- middleware algorithms ----
    case Algorithm::kSortM:
      return {{&CostFactors::sortm, out * Log2(node.est_cardinality)}};
    case Algorithm::kProjectM:
      return {{&CostFactors::projm, in}};
    case Algorithm::kMergeJoinM:
      return {{&CostFactors::mjm, in}, {&CostFactors::mjout, out}};
    case Algorithm::kTJoinM:
      return {{&CostFactors::tjm, in}, {&CostFactors::mjout, out}};
    case Algorithm::kDupElimM:
      return {{&CostFactors::dupm, in}};
    case Algorithm::kCoalesceM:
      return {{&CostFactors::coalm, in}};
    case Algorithm::kDiffM:
      return {{&CostFactors::diffm, in}};

    // ---- generic DBMS implementations ----
    case Algorithm::kScanD:
      return {{&CostFactors::scand, out}};
    case Algorithm::kSortD:
      return {{&CostFactors::sortd, out * Log2(node.est_cardinality)}};
    case Algorithm::kDistinctD:  // costed like a sort of its input
      return {{&CostFactors::sortd,
               in * Log2(node.children[0]->est_cardinality)}};
    case Algorithm::kJoinD:
    case Algorithm::kTJoinD:
      return {{&CostFactors::joind, in}, {&CostFactors::joindout, out}};
    case Algorithm::kProductD:
      return {{&CostFactors::prodd, out}};
    case Algorithm::kSelectD:  // selection and projection in the DBMS are
    case Algorithm::kProjectD:  // free (§3.1)
      return {};
  }
  return {};
}

void CostModel::Fit(const PhysPlan& node, double observed_us, double alpha) {
  std::vector<Term> terms;
  CollectTerms(*this, node, &terms);
  // Calibration fixes the per-byte transfer too; it takes the time only
  // when no other term in the record can.
  const bool others =
      std::any_of(terms.begin(), terms.end(), [](const Term& t) {
        return !Pinned(t.factor) && t.factor != &CostFactors::tm;
      });
  const auto adjustable = [others](Factor f) {
    return !Pinned(f) && (f != &CostFactors::tm || !others);
  };
  double rest = observed_us;
  double estimate = 0;
  for (const Term& t : terms) {
    const double us = f_.*t.factor * t.basis;
    if (adjustable(t.factor)) {
      estimate += us;
    } else {
      rest -= us;
    }
  }
  if (rest <= 0 || estimate <= 0) return;
  const double scale =
      (1 - alpha) + alpha * std::clamp(rest / estimate, 0.05, 20.0);
  for (size_t i = 0; i < terms.size(); ++i) {
    const Factor f = terms[i].factor;
    const bool scaled_before =
        std::any_of(terms.begin(), terms.begin() + i,
                    [f](const Term& t) { return t.factor == f; });
    if (adjustable(f) && !scaled_before) f_.*f *= scale;
  }
}

}  // namespace cost
}  // namespace tango
