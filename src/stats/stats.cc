#include "stats/stats.h"

#include <algorithm>
#include <cmath>

namespace tango {
namespace stats {

namespace {

double Clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

ColumnInfo SyntheticColumn(DataType type, double cardinality) {
  ColumnInfo c;
  c.numeric = type != DataType::kString;
  c.num_distinct = std::max(1.0, cardinality);
  c.avg_width = type == DataType::kString ? 12 : 9;
  return c;
}

}  // namespace

RelStats FromTableStats(const dbms::TableStats& ts, const Schema& schema) {
  RelStats rel;
  rel.cardinality = ts.cardinality;
  rel.avg_tuple_bytes = ts.avg_tuple_bytes;
  rel.source_epoch = ts.epoch;
  rel.columns.resize(schema.num_columns());
  // Distribute the average tuple size over the columns: fixed 9 bytes for
  // numerics (8 + wire tag), the remainder across the string columns.
  size_t string_cols = 0;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (schema.column(i).type == DataType::kString) ++string_cols;
  }
  const double numeric_bytes =
      9.0 * static_cast<double>(schema.num_columns() - string_cols);
  const double string_share =
      string_cols == 0
          ? 0
          : std::max(3.0, (ts.avg_tuple_bytes - 4.0 - numeric_bytes) /
                              static_cast<double>(string_cols));
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    ColumnInfo& c = rel.columns[i];
    c.numeric = schema.column(i).type != DataType::kString;
    c.avg_width = c.numeric ? 9 : string_share;
    if (i < ts.columns.size()) {
      const dbms::ColumnStats& cs = ts.columns[i];
      c.num_distinct = std::max(1.0, cs.num_distinct);
      if (cs.min.is_numeric()) c.min = cs.min.AsDouble();
      if (cs.max.is_numeric()) c.max = cs.max.AsDouble();
      c.histogram = cs.histogram;
    }
  }
  return rel;
}

namespace {

/// Shared implementation of StartBefore/EndBefore: estimated number of
/// tuples whose attribute value is < a. With a histogram, the bucket
/// interpolation of §3.3; otherwise uniform min/max interpolation.
/// Histogram counts are normalized to the relation cardinality so sampled
/// histograms also work.
double CountBelow(double a, const RelStats& rel, size_t col) {
  const ColumnInfo& c = rel.columns[col];
  if (!c.histogram.empty() && c.histogram.total_count() > 0) {
    const double frac = c.histogram.EstimateLess(a) / c.histogram.total_count();
    return Clamp(frac, 0, 1) * rel.cardinality;
  }
  if (c.max <= c.min) return a > c.min ? rel.cardinality : 0;
  return Clamp((a - c.min) / (c.max - c.min), 0, 1) * rel.cardinality;
}

}  // namespace

double StartBefore(double a, const RelStats& rel, size_t t1_col) {
  return CountBelow(a, rel, t1_col);
}

double EndBefore(double a, const RelStats& rel, size_t t2_col) {
  return CountBelow(a, rel, t2_col);
}

double EstimateOverlapsCardinality(double a, double b, const RelStats& rel,
                                   size_t t1_col, size_t t2_col) {
  const double started = StartBefore(b, rel, t1_col);
  const double ended = EndBefore(a + 1, rel, t2_col);
  return Clamp(started - ended, 0, rel.cardinality);
}

double EstimateTimesliceCardinality(double a, const RelStats& rel,
                                    size_t t1_col, size_t t2_col) {
  const double started = StartBefore(a + 1, rel, t1_col);
  const double ended = EndBefore(a + 1, rel, t2_col);
  return Clamp(started - ended, 0, rel.cardinality);
}

double ComparisonSelectivity(const RelStats& rel, size_t column, BinaryOp op,
                             double literal) {
  if (rel.cardinality <= 0) return 1.0;
  const ColumnInfo& c = rel.columns[column];
  if (op == BinaryOp::kEq) {
    return 1.0 / std::max(1.0, c.num_distinct);
  }
  if (op == BinaryOp::kNe) {
    return 1.0 - 1.0 / std::max(1.0, c.num_distinct);
  }
  if (!c.numeric) return 1.0 / 3;
  double frac_less;
  if (!c.histogram.empty()) {
    frac_less = Clamp(c.histogram.EstimateLess(literal) / rel.cardinality, 0, 1);
  } else if (c.max > c.min) {
    frac_less = Clamp((literal - c.min) / (c.max - c.min), 0, 1);
  } else {
    return 1.0 / 3;
  }
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      return frac_less;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return 1.0 - frac_less;
    default:
      return 1.0 / 3;
  }
}

namespace {

/// A conjunct of the form `col op literal` (column on the left).
struct SimpleComparison {
  size_t column;
  BinaryOp op;
  double literal;
  bool literal_numeric;
};

BinaryOp Flip(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

bool MatchSimple(const ExprPtr& e, const Schema& schema, SimpleComparison* out) {
  if (e->kind != Expr::Kind::kBinary) return false;
  BinaryOp op = e->binary_op;
  if (op != BinaryOp::kEq && op != BinaryOp::kNe && op != BinaryOp::kLt &&
      op != BinaryOp::kLe && op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return false;
  }
  ExprPtr col = e->children[0];
  ExprPtr lit = e->children[1];
  if (col->kind == Expr::Kind::kLiteral && lit->kind == Expr::Kind::kColumn) {
    std::swap(col, lit);
    op = Flip(op);
  }
  if (col->kind != Expr::Kind::kColumn || lit->kind != Expr::Kind::kLiteral) {
    return false;
  }
  auto idx = schema.IndexOf(col->table, col->name);
  if (!idx.ok()) return false;
  out->column = idx.ValueOrDie();
  out->op = op;
  out->literal_numeric = lit->literal.is_numeric();
  out->literal = out->literal_numeric ? lit->literal.AsDouble() : 0;
  return true;
}

/// True when `col` is the T1 (resp. T2) attribute of the schema.
bool IsTimeColumn(const Schema& schema, size_t column, const char* name) {
  return schema.column(column).name == name;
}

}  // namespace

double EstimateSelectivity(const ExprPtr& predicate, const Schema& schema,
                           const RelStats& rel, bool semantic_temporal) {
  if (predicate == nullptr) return 1.0;
  if (rel.cardinality <= 0) return 1.0;

  std::vector<ExprPtr> conjuncts = SplitConjuncts(predicate);
  std::vector<SimpleComparison> simple;
  std::vector<bool> consumed(conjuncts.size(), false);
  simple.resize(conjuncts.size());
  std::vector<bool> is_simple(conjuncts.size(), false);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    is_simple[i] = MatchSimple(conjuncts[i], schema, &simple[i]);
  }

  double selectivity = 1.0;

  if (semantic_temporal) {
    // Find an upper bound on T1 (T1 < B / T1 <= B-1) paired with a lower
    // bound on T2 (T2 > A / T2 >= A+1): the Overlaps(A, B) pattern. A
    // timeslice (T1 <= A AND T2 > A) is the special case B = A + 1.
    int t1_idx = -1, t2_idx = -1;
    double b_bound = 0, a_bound = 0;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!is_simple[i] || !simple[i].literal_numeric) continue;
      const SimpleComparison& sc = simple[i];
      if (IsTimeColumn(schema, sc.column, "T1") && t1_idx < 0 &&
          (sc.op == BinaryOp::kLt || sc.op == BinaryOp::kLe)) {
        t1_idx = static_cast<int>(i);
        // Integer day semantics: T1 <= X  <=>  T1 < X+1.
        b_bound = sc.op == BinaryOp::kLe ? sc.literal + 1 : sc.literal;
      } else if (IsTimeColumn(schema, sc.column, "T2") && t2_idx < 0 &&
                 (sc.op == BinaryOp::kGt || sc.op == BinaryOp::kGe)) {
        t2_idx = static_cast<int>(i);
        // T2 >= X  <=>  T2 > X-1; Overlaps' A satisfies T2 > A.
        a_bound = sc.op == BinaryOp::kGe ? sc.literal - 1 : sc.literal;
      }
    }
    if (t1_idx >= 0 && t2_idx >= 0) {
      const size_t t1_col = simple[static_cast<size_t>(t1_idx)].column;
      const size_t t2_col = simple[static_cast<size_t>(t2_idx)].column;
      const double card = EstimateOverlapsCardinality(a_bound, b_bound, rel,
                                                      t1_col, t2_col);
      selectivity *= Clamp(card / rel.cardinality, 0, 1);
      consumed[static_cast<size_t>(t1_idx)] = true;
      consumed[static_cast<size_t>(t2_idx)] = true;
    }
  }

  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (consumed[i]) continue;
    if (is_simple[i] && simple[i].literal_numeric) {
      selectivity *= ComparisonSelectivity(rel, simple[i].column, simple[i].op,
                                           simple[i].literal);
    } else if (is_simple[i]) {
      // String comparison: equality via distinct count, else default.
      selectivity *= simple[i].op == BinaryOp::kEq
                         ? 1.0 / std::max(1.0, rel.columns[simple[i].column]
                                                   .num_distinct)
                         : 1.0 / 3;
    } else {
      selectivity *= 1.0 / 3;  // unknown predicate shape
    }
  }
  return Clamp(selectivity, 0, 1);
}

TAggrCardinality EstimateTAggrCardinality(const RelStats& child,
                                          const std::vector<size_t>& group_cols,
                                          size_t t1_col, size_t t2_col) {
  TAggrCardinality out;
  const double card = child.cardinality;
  if (card <= 0) {
    out.min = out.max = out.estimate = 0;
    return out;
  }
  const double dt1 = child.columns[t1_col].num_distinct;
  const double dt2 = child.columns[t2_col].num_distinct;

  double min_card = std::min(dt1 + 1, dt2 + 1);
  double max_distinct_group = 0;
  for (size_t g : group_cols) {
    min_card = std::min(min_card, child.columns[g].num_distinct);
    max_distinct_group =
        std::max(max_distinct_group, child.columns[g].num_distinct);
  }
  min_card = std::max(1.0, min_card);

  double max_card;
  if (group_cols.empty()) {
    max_card = dt1 + dt2 + 1;
  } else {
    const double per_group = card / std::max(1.0, max_distinct_group);
    max_card = (per_group * 2 - 1) * max_distinct_group;
  }
  max_card = std::min(max_card, card * 2 - 1);
  max_card = std::max(max_card, min_card);

  out.min = min_card;
  out.max = max_card;
  // The paper: 60% of the max if that exceeds the min, else the min.
  const double sixty = 0.6 * max_card;
  out.estimate = sixty > min_card ? sixty : min_card;
  return out;
}

namespace {

/// Scales distinct counts after a cardinality-reducing operator using
/// Yao's approximation: picking new_card of old_card rows touches
/// d * (1 - (1 - new/old)^(old/d)) of the d distinct values. (Linear
/// scaling would badly underestimate the distinct keys that survive, which
/// in turn inflates downstream join estimates.)
double ScaleDistinct(double distinct, double old_card, double new_card) {
  if (old_card <= 0 || distinct <= 0) return 1;
  const double sel = std::clamp(new_card / old_card, 0.0, 1.0);
  const double rows_per_value = old_card / distinct;
  const double touched = distinct * (1.0 - std::pow(1.0 - sel, rows_per_value));
  return std::max(1.0, std::min({distinct, new_card, touched}));
}

}  // namespace

Result<RelStats> Derive(const algebra::Op& op,
                        const std::vector<const RelStats*>& children,
                        bool semantic_temporal) {
  using algebra::OpKind;
  switch (op.kind) {
    case OpKind::kScan:
      return Status::Internal("scan stats come from the Statistics Collector");

    case OpKind::kSelect: {
      const RelStats& in = *children[0];
      RelStats out = in;
      const double sel = EstimateSelectivity(op.predicate, op.schema, in,
                                             semantic_temporal);
      out.cardinality = in.cardinality * sel;
      for (ColumnInfo& c : out.columns) {
        c.num_distinct = ScaleDistinct(c.num_distinct, in.cardinality,
                                       out.cardinality);
      }
      // Tighten min/max for range predicates; drop histograms (they no
      // longer describe the filtered relation).
      for (const ExprPtr& conj : SplitConjuncts(op.predicate)) {
        SimpleComparison sc;
        if (!MatchSimple(conj, op.schema, &sc) || !sc.literal_numeric) continue;
        ColumnInfo& c = out.columns[sc.column];
        switch (sc.op) {
          case BinaryOp::kLt:
          case BinaryOp::kLe:
            c.max = std::min(c.max, sc.literal);
            break;
          case BinaryOp::kGt:
          case BinaryOp::kGe:
            c.min = std::max(c.min, sc.literal);
            break;
          case BinaryOp::kEq:
            c.min = c.max = sc.literal;
            c.num_distinct = 1;
            break;
          default:
            break;
        }
        c.histogram = Histogram();
      }
      return out;
    }

    case OpKind::kProject: {
      const RelStats& in = *children[0];
      RelStats out;
      out.cardinality = in.cardinality;
      double bytes = 4;  // tuple header
      for (size_t i = 0; i < op.items.size(); ++i) {
        const ExprPtr& e = op.items[i].expr;
        ColumnInfo c;
        if (e->kind == Expr::Kind::kColumn) {
          auto idx = op.children[0]->schema.IndexOf(e->table, e->name);
          if (idx.ok()) {
            c = in.columns[idx.ValueOrDie()];
          } else {
            c = SyntheticColumn(op.schema.column(i).type, in.cardinality);
          }
        } else {
          c = SyntheticColumn(op.schema.column(i).type, in.cardinality);
        }
        bytes += c.avg_width;
        out.columns.push_back(std::move(c));
      }
      out.avg_tuple_bytes = bytes;
      return out;
    }

    case OpKind::kSort:
    case OpKind::kTransferM:
    case OpKind::kTransferD:
      return *children[0];

    case OpKind::kDupElim: {
      const RelStats& in = *children[0];
      RelStats out = in;
      // Distinct tuple count: bounded by the product of column distincts.
      double prod = 1;
      for (const ColumnInfo& c : in.columns) {
        prod *= std::max(1.0, c.num_distinct);
        if (prod > in.cardinality) {
          prod = in.cardinality;
          break;
        }
      }
      out.cardinality = std::min(in.cardinality, prod);
      return out;
    }

    case OpKind::kCoalesce: {
      const RelStats& in = *children[0];
      RelStats out = in;
      // Coalescing never grows the relation; assume moderate merging.
      out.cardinality = in.cardinality * 0.7;
      return out;
    }

    case OpKind::kDifference: {
      const RelStats& l = *children[0];
      const RelStats& r = *children[1];
      RelStats out = l;
      out.cardinality = std::max(0.0, l.cardinality - r.cardinality / 2);
      return out;
    }

    case OpKind::kProduct: {
      const RelStats& l = *children[0];
      const RelStats& r = *children[1];
      RelStats out;
      out.cardinality = l.cardinality * r.cardinality;
      out.avg_tuple_bytes = l.avg_tuple_bytes + r.avg_tuple_bytes;
      out.columns = l.columns;
      out.columns.insert(out.columns.end(), r.columns.begin(), r.columns.end());
      return out;
    }

    case OpKind::kJoin: {
      const RelStats& l = *children[0];
      const RelStats& r = *children[1];
      RelStats out;
      double card = l.cardinality * r.cardinality;
      for (const auto& [la, ra] : op.join_attrs) {
        TANGO_ASSIGN_OR_RETURN(size_t li, op.children[0]->schema.IndexOf(la));
        TANGO_ASSIGN_OR_RETURN(size_t ri, op.children[1]->schema.IndexOf(ra));
        const double d = std::max(
            {1.0, l.columns[li].num_distinct, r.columns[ri].num_distinct});
        card /= d;
      }
      out.cardinality = card;
      out.avg_tuple_bytes = l.avg_tuple_bytes + r.avg_tuple_bytes;
      out.columns = l.columns;
      out.columns.insert(out.columns.end(), r.columns.begin(), r.columns.end());
      for (ColumnInfo& c : out.columns) {
        c.num_distinct = std::min(c.num_distinct, std::max(1.0, card));
      }
      return out;
    }

    case OpKind::kTJoin: {
      const RelStats& l = *children[0];
      const RelStats& r = *children[1];
      const Schema& ls = op.children[0]->schema;
      const Schema& rs = op.children[1]->schema;
      double card = l.cardinality * r.cardinality;
      for (const auto& [la, ra] : op.join_attrs) {
        TANGO_ASSIGN_OR_RETURN(size_t li, ls.IndexOf(la));
        TANGO_ASSIGN_OR_RETURN(size_t ri, rs.IndexOf(ra));
        const double d = std::max(
            {1.0, l.columns[li].num_distinct, r.columns[ri].num_distinct});
        card /= d;
      }
      // Probability that two periods uniform over the common span overlap:
      // roughly (avg duration left + avg duration right) / span.
      TANGO_ASSIGN_OR_RETURN(size_t lt1, algebra::T1Index(ls));
      TANGO_ASSIGN_OR_RETURN(size_t lt2, algebra::T2Index(ls));
      TANGO_ASSIGN_OR_RETURN(size_t rt1, algebra::T1Index(rs));
      TANGO_ASSIGN_OR_RETURN(size_t rt2, algebra::T2Index(rs));
      const double span =
          std::max(l.columns[lt2].max, r.columns[rt2].max) -
          std::min(l.columns[lt1].min, r.columns[rt1].min);
      const double dur_l = std::max(
          1.0, (l.columns[lt2].max + l.columns[lt2].min) / 2 -
                   (l.columns[lt1].max + l.columns[lt1].min) / 2);
      const double dur_r = std::max(
          1.0, (r.columns[rt2].max + r.columns[rt2].min) / 2 -
                   (r.columns[rt1].max + r.columns[rt1].min) / 2);
      const double p_overlap =
          span > 0 ? std::min(1.0, (dur_l + dur_r) / span) : 1.0;
      card *= p_overlap;

      RelStats out;
      out.cardinality = card;
      // Columns per the TJoin schema: left minus period, right minus join
      // attrs and period, then T1, T2.
      std::vector<size_t> r_excluded = {rt1, rt2};
      for (const auto& [la, ra] : op.join_attrs) {
        TANGO_ASSIGN_OR_RETURN(size_t ri, rs.IndexOf(ra));
        r_excluded.push_back(ri);
      }
      double bytes = 4;
      for (size_t i = 0; i < ls.num_columns(); ++i) {
        if (i == lt1 || i == lt2) continue;
        out.columns.push_back(l.columns[i]);
        bytes += l.columns[i].avg_width;
      }
      for (size_t i = 0; i < rs.num_columns(); ++i) {
        if (std::find(r_excluded.begin(), r_excluded.end(), i) !=
            r_excluded.end()) {
          continue;
        }
        out.columns.push_back(r.columns[i]);
        bytes += r.columns[i].avg_width;
      }
      // Intersected period columns.
      ColumnInfo t1 = l.columns[lt1];
      t1.min = std::min(l.columns[lt1].min, r.columns[rt1].min);
      t1.max = std::max(l.columns[lt1].max, r.columns[rt1].max);
      t1.histogram = Histogram();
      ColumnInfo t2 = t1;
      out.columns.push_back(t1);
      out.columns.push_back(t2);
      bytes += 18;
      out.avg_tuple_bytes = bytes;
      for (ColumnInfo& c : out.columns) {
        c.num_distinct = std::min(c.num_distinct, std::max(1.0, card));
      }
      return out;
    }

    case OpKind::kTAggregate: {
      const RelStats& in = *children[0];
      const Schema& cs = op.children[0]->schema;
      TANGO_ASSIGN_OR_RETURN(size_t t1, algebra::T1Index(cs));
      TANGO_ASSIGN_OR_RETURN(size_t t2, algebra::T2Index(cs));
      std::vector<size_t> group_cols;
      for (const std::string& g : op.group_by) {
        TANGO_ASSIGN_OR_RETURN(size_t idx, cs.IndexOf(g));
        group_cols.push_back(idx);
      }
      const TAggrCardinality card =
          EstimateTAggrCardinality(in, group_cols, t1, t2);
      RelStats out;
      out.cardinality = card.estimate;
      double bytes = 4;
      for (size_t g : group_cols) {
        out.columns.push_back(in.columns[g]);
        bytes += in.columns[g].avg_width;
      }
      // T1/T2 of the constant periods.
      ColumnInfo tc = in.columns[t1];
      tc.min = std::min(in.columns[t1].min, in.columns[t2].min);
      tc.max = std::max(in.columns[t1].max, in.columns[t2].max);
      tc.num_distinct = std::min(
          card.estimate, in.columns[t1].num_distinct +
                             in.columns[t2].num_distinct);
      tc.histogram = Histogram();
      out.columns.push_back(tc);
      out.columns.push_back(tc);
      bytes += 18;
      for (const algebra::AggItem& a : op.aggs) {
        ColumnInfo c = SyntheticColumn(
            a.func == AggFunc::kAvg ? DataType::kDouble : DataType::kInt,
            card.estimate);
        bytes += c.avg_width;
        out.columns.push_back(std::move(c));
      }
      out.avg_tuple_bytes = bytes;
      return out;
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace stats
}  // namespace tango
