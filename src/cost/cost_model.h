#ifndef TANGO_COST_COST_MODEL_H_
#define TANGO_COST_COST_MODEL_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "expr/expr.h"

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
  double idxd = 0.02;     // index scan, per output byte

  // Per-statement round-trip overhead (microseconds).
  double stmt = 400;

  std::string ToString() const;
};

/// \brief TANGO's cost model: initialization + per-tuple processing +
/// output-forming costs, simplified as the paper argues (§3.1).
///
/// `size` arguments are the paper's size(r) = cardinality x average tuple
/// bytes; returned values are estimated microseconds.
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostFactors factors) : f_(factors) {}

  CostFactors& factors() { return f_; }
  const CostFactors& factors() const { return f_; }

  /// Rows per RowBlock on the wire; determines how many per-block overheads
  /// a transfer of a given cardinality pays.
  void set_batch_size(size_t rows) { batch_rows_ = rows == 0 ? 1 : rows; }
  size_t batch_size() const { return batch_rows_; }

  // ---- Figure 6 ----
  /// `cardinality` <= 0 charges a single block (unknown-cardinality callers
  /// keep the old stmt + per-byte shape).
  double TransferM(double size, double cardinality = 0) const {
    return f_.stmt + f_.tm * size + f_.tmblk * Blocks(cardinality);
  }
  double TransferD(double size, double cardinality = 0) const {
    return f_.stmt + f_.td * size + f_.tdblk * Blocks(cardinality);
  }
  /// `predicate_coefficient` is the paper's f(P) (see PredicateCoefficient).
  double FilterM(double predicate_coefficient, double size) const {
    return f_.sem * predicate_coefficient * size;
  }
  /// TAGGR^M cost *excluding* the external sort of its argument (the
  /// optimizer charges the child sort separately, as the formula does by
  /// adding cost(SORT)); the internal T2-sort is folded into taggm1.
  double TAggrM(double in_size, double out_size) const {
    return f_.taggm1 * in_size + f_.taggm2 * out_size;
  }
  double TAggrD(double in_size, double out_size) const {
    return f_.taggd1 * in_size + f_.taggd2 * out_size;
  }

  // ---- middleware algorithms ----
  double SortM(double size, double cardinality) const {
    return f_.sortm * size * Log2(cardinality);
  }
  double ProjectM(double size) const { return f_.projm * size; }
  double MergeJoinM(double left_size, double right_size,
                    double out_size) const {
    return f_.mjm * (left_size + right_size) + f_.mjout * out_size;
  }
  double TJoinM(double left_size, double right_size, double out_size) const {
    return f_.tjm * (left_size + right_size) + f_.mjout * out_size;
  }
  double DupElimM(double size) const { return f_.dupm * size; }
  double CoalesceM(double size) const { return f_.coalm * size; }
  double DifferenceM(double left_size, double right_size) const {
    return f_.diffm * (left_size + right_size);
  }

  // ---- generic DBMS implementations ----
  double ScanD(double size) const { return f_.scand * size; }
  double SortD(double size, double cardinality) const {
    return f_.sortd * size * Log2(cardinality);
  }
  double JoinD(double left_size, double right_size, double out_size) const {
    return f_.joind * (left_size + right_size) + f_.joindout * out_size;
  }
  double ProductD(double out_size) const { return f_.prodd * out_size; }
  /// Selection and projection in the DBMS are free (§3.1).
  double SelectD() const { return 0; }
  double ProjectD() const { return 0; }

  /// The paper's f(P): a coefficient representing the selection condition;
  /// we use the number of comparison nodes in the predicate.
  static double PredicateCoefficient(const ExprPtr& predicate);

  /// Exponential-smoothing update of one factor from an observed execution:
  /// `observed_us` microseconds were actually spent on `size` bytes (the
  /// paper's performance-feedback adaptation). `alpha` is the smoothing
  /// weight of the new observation.
  static void Feedback(double* factor, double observed_us, double size,
                       double alpha = 0.3);

 private:
  static double Log2(double card) {
    return card < 2 ? 1 : std::log2(card);
  }

  /// Block frames a transfer of `cardinality` rows crosses the wire in.
  double Blocks(double cardinality) const {
    if (cardinality <= 0) return 1;
    return std::ceil(cardinality / static_cast<double>(batch_rows_));
  }

  CostFactors f_;
  size_t batch_rows_ = 1024;
};

}  // namespace cost
}  // namespace tango

#endif  // TANGO_COST_COST_MODEL_H_
