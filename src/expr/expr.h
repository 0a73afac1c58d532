#ifndef TANGO_EXPR_EXPR_H_
#define TANGO_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace tango {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Binary operators; comparison operators follow SQL three-valued logic
/// (any NULL operand yields NULL, which behaves as false in predicates).
enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv,
};

enum class UnaryOp { kNot, kNeg, kIsNull, kIsNotNull };

/// Aggregate functions supported by both aggregation implementations.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// \brief The running SUM of an aggregate's non-NULL arguments, for TAGGR^M's
/// sweep and the DBMS's GROUP BY.
///
/// Int arguments add exactly, in int64 with a checked add, so the sum of
/// 2^53 and 1 is 2^53 + 1 and a removal leaves no rounding residue. A double
/// argument, or an int sum that would leave int64, turns the sum into a
/// double from then on (until `Reset`), as a mixed int and double sum is.
class RunningSum {
 public:
  void Add(const Value& v) { Step(v, false); }
  /// Takes a previously added argument back out (TAGGR^M's expiring rows).
  void Remove(const Value& v) { Step(v, true); }
  void Reset() { *this = RunningSum(); }

  /// The sum: an int while it is exact, otherwise a double.
  Value Get() const { return is_int_ ? Value(int_sum_) : Value(double_sum_); }
  double AsDouble() const {
    return is_int_ ? static_cast<double>(int_sum_) : double_sum_;
  }

 private:
  void Step(const Value& v, bool remove);

  int64_t int_sum_ = 0;
  double double_sum_ = 0;
  bool is_int_ = true;
};

const char* BinaryOpName(BinaryOp op);   // SQL spelling, e.g. "<="
const char* AggFuncName(AggFunc f);      // "COUNT", ...

/// How a rendering prints literals. kValues prints each one exactly as its
/// SQL literal (EXPLAIN, computed column names, the memo's identity).
/// kSlots prints it as its plan-cache parameter slot and type, `?<id>:<t>`
/// with t in {i, d, s, n}, or `?:<t>` when untagged, so the literal variants
/// of one query render alike (adapt's fingerprints and feedback keys); a
/// scan then also prints its schema.
enum class LiteralStyle { kValues, kSlots };

/// \brief Node of the expression tree shared by the SQL frontend, the
/// temporal algebra, the middleware executor, and the DBMS executor.
///
/// Trees are immutable; `Bind` produces a new tree with column references
/// resolved to positional indexes for evaluation.
struct Expr {
  enum class Kind { kColumn, kLiteral, kUnary, kBinary, kFunction, kAggregate };

  Kind kind = Kind::kLiteral;

  // kColumn: reference by (table, name); `index` >= 0 once bound.
  std::string table;
  std::string name;
  int index = -1;

  // kLiteral
  Value literal;
  /// Plan-cache parameter slot this literal was lifted into (adapt::
  /// ParameterizeQuery tags literal sites in preorder); -1 = untagged.
  /// Ignored by Equals and by ToString's kValues style — it is bookkeeping,
  /// not semantics.
  int param_id = -1;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;

  // kFunction: scalar functions, currently GREATEST and LEAST.
  std::string function;

  // kAggregate
  AggFunc agg = AggFunc::kCount;
  bool agg_star = false;  // COUNT(*)

  std::vector<ExprPtr> children;

  // ---- construction helpers ----
  static ExprPtr Column(std::string table, std::string name);
  static ExprPtr ColumnRef(const std::string& reference);  // "T.A" or "A"
  static ExprPtr BoundColumn(int index, std::string name = "");
  static ExprPtr Literal(Value v);
  static ExprPtr Int(int64_t v) { return Literal(Value(v)); }
  static ExprPtr Real(double v) { return Literal(Value(v)); }
  static ExprPtr Str(std::string v) { return Literal(Value(std::move(v))); }
  static ExprPtr Unary(UnaryOp op, ExprPtr child);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Aggregate(AggFunc f, ExprPtr arg, bool star = false);

  static ExprPtr And(ExprPtr a, ExprPtr b) {
    return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
  }
  /// Conjunction of a list; returns nullptr for an empty list.
  static ExprPtr AndAll(std::vector<ExprPtr> conjuncts);

  /// SQL text that the parser reads back as this tree: an operand is
  /// parenthesized wherever the grammar's precedence would regroup it, and
  /// AND/OR always are, so distinct trees print distinct text.
  std::string ToString(LiteralStyle style = LiteralStyle::kValues) const;

  /// Structural equality (numbers compare by value: 5 equals 5.0).
  bool Equals(const Expr& other) const;
};

/// Resolves every column reference in `expr` against `schema`, returning a
/// bound copy. Fails with kNotFound / kInvalidArgument on bad references.
Result<ExprPtr> Bind(const ExprPtr& expr, const Schema& schema);

/// Evaluates a bound expression against a tuple. Aggregate nodes are not
/// evaluable here (they are handled by the aggregation operators).
Value Eval(const Expr& expr, const Tuple& tuple);

/// Evaluates a bound predicate; NULL results count as false (SQL WHERE).
bool EvalPredicate(const Expr& expr, const Tuple& tuple);

/// Splits a predicate into its top-level AND conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& predicate);

/// Collects the (possibly qualified) column references in an expression;
/// this is the paper's `attr(P)` used in rule pre-conditions.
void CollectColumns(const ExprPtr& expr, std::vector<std::string>* out);

/// The distinct column indexes a bound expression reads, ascending.
std::vector<size_t> BoundColumnIndexes(const Expr& expr);

/// True when every column reference in `expr` resolves in `schema`
/// (the `attr(P) ⊆ Ω_r` pre-condition of rules E1/E5).
bool ColumnsResolveIn(const ExprPtr& expr, const Schema& schema);

/// True if the expression contains an aggregate node.
bool ContainsAggregate(const ExprPtr& expr);

/// Computes the result type of a bound expression given the input schema.
Result<DataType> InferType(const ExprPtr& expr, const Schema& schema);

}  // namespace tango

#endif  // TANGO_EXPR_EXPR_H_
