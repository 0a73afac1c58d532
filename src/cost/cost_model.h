#ifndef TANGO_COST_COST_MODEL_H_
#define TANGO_COST_COST_MODEL_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "optimizer/phys.h"

namespace tango {
namespace cost {

/// \brief Cost factors `p_*` weighing the statistics in the cost formulas
/// (Figure 6 plus the additional formulas of the technical report).
///
/// Units: microseconds per byte (per-statement overheads in microseconds).
/// Defaults are reasonable for the in-process substrate; the Cost Estimator
/// calibrates them by running probe queries (Du et al.'s mechanism), and the
/// feedback loop keeps refining them from measured execution times.
struct CostFactors {
  // Figure 6, recalibrated for block-framed transfer: the per-byte factors
  // drop (column-packed blocks amortize the per-tuple marshalling the old
  // factors folded in) and the overhead that remains per fetched block /
  // bulk-load chunk is charged explicitly per block below.
  double tm = 0.04;       // TRANSFER^M, per byte
  double td = 0.065;      // TRANSFER^D, per byte
  double tmblk = 60;      // TRANSFER^M, per block frame (microseconds;
                          // matches WireConfig::per_batch_seconds)
  double tdblk = 40;      // TRANSFER^D, per block frame (microseconds)
  double sem = 0.01;      // FILTER^M, per byte (x f(P))
  double taggm1 = 0.02;   // TAGGR^M, per input byte
  double taggm2 = 0.02;   // TAGGR^M, per output byte
  double taggd1 = 0.50;   // TAGGR^D, per input byte
  double taggd2 = 0.20;   // TAGGR^D, per output byte

  // Middleware algorithms (technical report [20]).
  double sortm = 0.004;   // SORT^M, per byte per log2(card)
  double projm = 0.008;   // PROJECT^M, per byte
  double mjm = 0.015;     // MERGEJOIN^M, per input byte
  double mjout = 0.01;    // MERGEJOIN^M / TJOIN^M, per output byte
  double tjm = 0.02;      // TJOIN^M, per input byte
  double dupm = 0.01;     // DUPELIM^M, per byte
  double coalm = 0.01;    // COALESCE^M, per byte
  double diffm = 0.012;   // DIFF^M, per input byte

  // Generic DBMS implementations (the middleware does not know the DBMS's
  // actual algorithms; one formula per operation).
  double scand = 0.004;   // full scan, per byte
  double sortd = 0.003;   // sort, per byte per log2(card)
  double joind = 0.012;   // join, per input byte
  double joindout = 0.008;  // join, per output byte
  double prodd = 0.02;    // Cartesian product, per output byte

  // Per-statement round-trip overhead (microseconds).
  double stmt = 400;

  /// Every factor as "name=value", space-separated, in kFactors order.
  std::string ToString() const;
};

/// One cost factor, as a pointer to its member.
using Factor = double CostFactors::*;

/// Every factor with its name: the one list ToString and the version's
/// drift rule walk.
struct NamedFactor {
  const char* name;
  Factor factor;
};
inline constexpr NamedFactor kFactors[] = {
    {"p_tm", &CostFactors::tm},         {"p_td", &CostFactors::td},
    {"p_tmblk", &CostFactors::tmblk},   {"p_tdblk", &CostFactors::tdblk},
    {"p_sem", &CostFactors::sem},       {"p_taggm1", &CostFactors::taggm1},
    {"p_taggm2", &CostFactors::taggm2}, {"p_taggd1", &CostFactors::taggd1},
    {"p_taggd2", &CostFactors::taggd2}, {"p_sortm", &CostFactors::sortm},
    {"p_projm", &CostFactors::projm},   {"p_mjm", &CostFactors::mjm},
    {"p_mjout", &CostFactors::mjout},   {"p_tjm", &CostFactors::tjm},
    {"p_dupm", &CostFactors::dupm},     {"p_coalm", &CostFactors::coalm},
    {"p_diffm", &CostFactors::diffm},   {"p_scand", &CostFactors::scand},
    {"p_sortd", &CostFactors::sortd},   {"p_joind", &CostFactors::joind},
    {"p_joindout", &CostFactors::joindout},
    {"p_prodd", &CostFactors::prodd},   {"p_stmt", &CostFactors::stmt},
};

/// One term of an algorithm's self cost: `factor` microseconds per unit of
/// `basis` (bytes, bytes x log2(rows), block frames, or one statement).
struct Term {
  Factor factor;
  double basis;
};

/// \brief An algorithm's self cost as at most kMax terms, held without
/// allocating (the optimizer prices every candidate node through one).
class Terms {
 public:
  static constexpr size_t kMax = 3;

  Terms() = default;
  Terms(std::initializer_list<Term> terms) {
    assert(terms.size() <= kMax);
    for (const Term& t : terms) terms_[size_++] = t;
  }

  const Term* begin() const { return terms_.data(); }
  const Term* end() const { return terms_.data() + size_; }
  size_t size() const { return size_; }

 private:
  std::array<Term, kMax> terms_{};
  size_t size_ = 0;
};

/// \brief TANGO's cost model: initialization + per-tuple processing +
/// output-forming costs, simplified as the paper argues (§3.1).
///
/// Sizes are the paper's size(r) = cardinality x average tuple bytes;
/// prices are estimated microseconds. SelfTerms is the one place each
/// algorithm meets its factors: the optimizer prices with its terms, and
/// Fit re-fits factors from measured times over the same terms.
class CostModel {
 public:
  /// Relative move of any factor, from its value at the last version bump,
  /// past which Version() bumps: plans priced before no longer hold.
  static constexpr double kDriftThreshold = 0.5;

  CostModel() = default;
  explicit CostModel(CostFactors factors) : f_(factors), baseline_(factors) {}

  CostFactors& factors() { return f_; }
  const CostFactors& factors() const { return f_; }

  /// The version the plan cache keys cached plans by. It bumps when any
  /// factor has moved more than kDriftThreshold relative to the factors at
  /// the last bump (the constructor's are the first version's). The rule
  /// runs on each call, so writes through factors() count as well as Fit.
  uint64_t Version();

  /// Rows per RowBlock on the wire; determines how many per-block overheads
  /// a transfer of a given cardinality pays.
  void set_batch_size(size_t rows) { batch_rows_ = rows == 0 ? 1 : rows; }

  /// The self cost of `node`'s algorithm, children excluded, per Figure 6
  /// and the technical report. Each basis comes from the estimated bytes
  /// and rows of the node and its children, the predicate coefficient
  /// f(P) (the number of comparisons) or the block count.
  Terms SelfTerms(const optimizer::PhysPlan& node) const;

  /// Estimated microseconds of `terms` at the current factors.
  double Price(const Terms& terms) const {
    double us = 0;
    for (const Term& t : terms) us += f_.*t.factor * t.basis;
    return us;
  }

  /// The paper's performance feedback from one execution record:
  /// `observed_us` were spent in `node` and in the DBMS nodes below it,
  /// which have no record of their own (a TRANSFER^M's fragment, down to
  /// any TRANSFER^D). The pinned terms (the statement round trip, the
  /// per-block overheads, the scans, and the per-byte TRANSFER^M when
  /// another term can take the time) are subtracted; every other term's
  /// factor is scaled, once, by
  /// (1 - alpha) + alpha * clamp(rest / estimate, 0.05, 20). With one such
  /// term that is exponential smoothing toward rest / basis. A record whose
  /// time the pinned terms already cover says nothing about the others and
  /// is skipped.
  void Fit(const optimizer::PhysPlan& node, double observed_us, double alpha);

 private:
  /// Block frames a transfer of `cardinality` rows crosses the wire in;
  /// an unknown (<= 0) cardinality is charged a single block.
  double Blocks(double cardinality) const;

  CostFactors f_;
  /// The factors at the last version bump.
  CostFactors baseline_;
  uint64_t version_ = 0;
  size_t batch_rows_ = 1024;
};

}  // namespace cost
}  // namespace tango

#endif  // TANGO_COST_COST_MODEL_H_
