#ifndef TANGO_DBMS_EXEC_OPS_H_
#define TANGO_DBMS_EXEC_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cursor.h"
#include "dbms/catalog.h"
#include "expr/expr.h"

namespace tango {
namespace dbms {

/// Aggregate specification used by the group-aggregate operator.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;        // bound against the child schema; null for COUNT(*)
  std::string name;   // output column name
};

/// \brief Full scan of a stored table that evaluates the pushed WHERE
/// conjuncts on the page's encoded rows.
///
/// For each live slot the scan decodes only the columns the next conjunct
/// reads, into a scratch row reused across rows, and stops at the first
/// conjunct that is not TRUE. Only a row that passes every conjunct is
/// decoded in full, in one forward pass from where the predicate stopped,
/// straight into the caller's tuple or block. A rejected row allocates
/// nothing: scratch values are overwritten in place, and a decoded string
/// reuses the buffer of the string before it in its column (a NULL in
/// between releases it).
///
/// Stopping early is exact. WHERE keeps a row only when the AND of its
/// conjuncts is TRUE, which under three-valued logic holds only when every
/// conjunct is TRUE (FALSE AND x is FALSE; NULL AND TRUE is NULL). `Eval`
/// has no side effects and raises no errors (division by zero yields NULL),
/// so skipping the conjuncts after the first FALSE or NULL one returns the
/// same rows.
class TableScanOp : public Cursor {
 public:
  /// `alias` re-qualifies the output schema (range variable). `conjuncts`
  /// are the `SplitConjuncts` of the pushed predicate, bound to that schema,
  /// evaluated in the given (SQL) order; none means every live row.
  TableScanOp(const Table* table, const std::string& alias,
              std::vector<ExprPtr> conjuncts = {});

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  /// Fills the block straight from the page bytes: one virtual cursor call
  /// per block instead of one per stored row.
  Result<size_t> NextBatch(RowBlock* block) override;
  /// Next qualifying row and its record id (UPDATE's collect pass).
  Result<bool> NextWithRid(Tuple* tuple, storage::Rid* rid);
  const Schema& schema() const override { return schema_; }

 private:
  /// Moves to the next live row whose conjuncts are all TRUE, leaving its
  /// encoding in `view_` and the predicate's columns in `scratch_`.
  Result<bool> Advance(storage::Rid* rid);
  /// Writes column `col` of the current row to `*out`: the predicate's
  /// decode when there was one, else a fresh decode from `view_`.
  Status Emit(size_t col, Value* out);

  const Table* table_;
  Schema schema_;
  std::vector<ExprPtr> conjuncts_;
  /// new_columns_[k]: the columns conjunct k reads that no earlier conjunct
  /// reads, ascending. Earlier conjuncts all ran, so theirs are decoded.
  std::vector<std::vector<size_t>> new_columns_;
  std::vector<uint8_t> read_by_predicate_;  // per column
  std::optional<storage::HeapFile::Iterator> it_;
  TupleView view_;
  Tuple scratch_;
};

/// \brief Range scan via a B+-tree index: key in [lo, hi] with optional
/// open bounds on either side.
class IndexScanOp : public Cursor {
 public:
  IndexScanOp(const Table* table, size_t column, const std::string& alias,
              std::optional<Value> lo, bool lo_inclusive,
              std::optional<Value> hi, bool hi_inclusive);

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return schema_; }

 private:
  const Table* table_;
  size_t column_;
  Schema schema_;
  std::optional<Value> lo_, hi_;
  bool lo_inclusive_, hi_inclusive_;
  std::optional<storage::BPlusTree::Iterator> it_;
};

/// \brief In-memory sort; materializes its input in Init.
class SortOp : public Cursor {
 public:
  SortOp(CursorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  CursorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// \brief Concatenation of children (UNION ALL); schemas must be
/// union-compatible (first child's schema wins).
class UnionAllOp : public Cursor {
 public:
  explicit UnionAllOp(std::vector<CursorPtr> children)
      : children_(std::move(children)) {}

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return children_.front()->schema(); }

 private:
  std::vector<CursorPtr> children_;
  size_t current_ = 0;
};

/// \brief Sort-merge join on equi-keys with an optional residual predicate
/// (evaluated against the concatenated tuple). Inputs must be sorted on
/// their key columns. Duplicate key groups are buffered on the right side.
class SortMergeJoinOp : public Cursor {
 public:
  SortMergeJoinOp(CursorPtr left, CursorPtr right,
                  std::vector<size_t> left_keys, std::vector<size_t> right_keys,
                  ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return schema_; }

 private:
  int CompareKeys(const Tuple& l, const Tuple& r) const;
  Result<bool> AdvanceLeft();
  Result<bool> FillRightGroup();

  CursorPtr left_, right_;
  std::vector<size_t> left_keys_, right_keys_;
  ExprPtr residual_;
  Schema schema_;

  Tuple left_row_;
  bool left_valid_ = false;
  Tuple right_pending_;
  bool right_pending_valid_ = false;
  bool right_exhausted_ = false;
  std::vector<Tuple> right_group_;
  size_t group_pos_ = 0;
  bool group_matches_left_ = false;
};

/// \brief Hash join (build = left, probe = right) on equi-keys with an
/// optional residual predicate. Output order: left columns then right.
class HashJoinOp : public Cursor {
 public:
  HashJoinOp(CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
             std::vector<size_t> right_keys, ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return schema_; }

 private:
  CursorPtr left_, right_;
  std::vector<size_t> left_keys_, right_keys_;
  ExprPtr residual_;
  Schema schema_;

  struct KeyHash {
    size_t operator()(const std::vector<Value>& k) const {
      size_t h = 0;
      for (const Value& v : k) h = h * 1315423911u + v.Hash();
      return h;
    }
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        // NULL keys never join; treat them as equal only to keep the map
        // well-formed (NULL rows are filtered out before insertion).
        if (a[i].Compare(b[i]) != 0) return false;
      }
      return true;
    }
  };
  std::unordered_map<std::vector<Value>, std::vector<Tuple>, KeyHash, KeyEq>
      hash_table_;

  Tuple probe_row_;
  bool probe_valid_ = false;
  const std::vector<Tuple>* match_bucket_ = nullptr;
  size_t match_pos_ = 0;
};

/// \brief Block nested-loop join with an arbitrary predicate; the right
/// input is materialized in Init.
class NestedLoopJoinOp : public Cursor {
 public:
  NestedLoopJoinOp(CursorPtr left, CursorPtr right, ExprPtr predicate);

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return schema_; }

 private:
  CursorPtr left_, right_;
  ExprPtr predicate_;
  Schema schema_;
  std::vector<Tuple> inner_;
  Tuple outer_row_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;
};

/// \brief Index nested-loop equi-join: for each outer tuple, probes the
/// inner table's B+-tree on the join column. This is the plan Oracle's
/// nested-loop hint produces in Query 4.
class IndexNestedLoopJoinOp : public Cursor {
 public:
  /// `outer_key` is a bound column index into the outer schema; the inner
  /// side appears on the right of the output schema.
  IndexNestedLoopJoinOp(CursorPtr outer, const Table* inner,
                        const std::string& inner_alias, size_t outer_key,
                        size_t inner_column, ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return schema_; }

 private:
  CursorPtr outer_;
  const Table* inner_;
  size_t outer_key_;
  size_t inner_column_;
  ExprPtr residual_;
  Schema schema_;

  Tuple outer_row_;
  bool outer_valid_ = false;
  std::vector<storage::Rid> matches_;
  size_t match_pos_ = 0;
};

/// \brief Sort-based group aggregation; the input must arrive sorted on the
/// group columns. With no group columns, produces one row for the whole
/// input (and one row even for empty input, per SQL semantics).
class GroupAggOp : public Cursor {
 public:
  GroupAggOp(CursorPtr child, std::vector<size_t> group_cols,
             std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> Next(Tuple* tuple) override;
  const Schema& schema() const override { return schema_; }

 private:
  // Running state for one aggregate within the current group.
  struct AggState {
    double sum = 0;
    int64_t count = 0;
    bool sum_is_int = true;
    Value min, max;
    bool any = false;
  };

  void Accumulate(const Tuple& row);
  Tuple EmitGroup();

  CursorPtr child_;
  std::vector<size_t> group_cols_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  Tuple group_key_row_;     // representative row of the open group
  bool group_open_ = false;
  std::vector<AggState> states_;
  Tuple pending_;
  bool pending_valid_ = false;
  bool input_done_ = false;
  bool emitted_global_ = false;
};

}  // namespace dbms
}  // namespace tango

#endif  // TANGO_DBMS_EXEC_OPS_H_
