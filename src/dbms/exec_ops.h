#ifndef TANGO_DBMS_EXEC_OPS_H_
#define TANGO_DBMS_EXEC_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cursor.h"
#include "dbms/catalog.h"
#include "exec/join.h"
#include "expr/expr.h"

namespace tango {
namespace dbms {

/// Aggregate specification used by the group-aggregate operator.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;        // bound against the child schema; null for COUNT(*)
  std::string name;   // output column name
};

/// Every column of `schema`, in order: the output of a full-width scan.
std::vector<size_t> AllColumns(const Schema& schema);

/// \brief Reads one stored row from its encoded bytes: tests the pushed
/// WHERE conjuncts, then decodes only the columns its reader outputs
/// (DESIGN.md §15 and §16).
///
/// For each row, `Load` decodes only the columns the next conjunct reads,
/// into a scratch row reused across rows, and stops at the first conjunct
/// that is not TRUE. A row that passes every conjunct is then decoded only
/// in its output columns, straight into the caller's tuple or block: a
/// column the predicate decoded is copied from the scratch row, the rest
/// come from the view. A rejected row allocates nothing: scratch values are
/// overwritten in place, and a decoded string reuses the buffer of the
/// string before it in its column (a NULL in between releases it).
///
/// Stopping early is exact. WHERE keeps a row only when the AND of its
/// conjuncts is TRUE, which under three-valued logic holds only when every
/// conjunct is TRUE (FALSE AND x is FALSE; NULL AND TRUE is NULL). `Eval`
/// has no side effects and raises no errors (division by zero yields NULL),
/// so skipping the conjuncts after the first FALSE or NULL one returns the
/// same rows.
class StoredRowReader {
 public:
  /// `conjuncts` are bound to the table's schema (under any qualifier) and
  /// evaluated in the given (SQL) order; none means every live row.
  /// `columns` are the table columns to output, in output order.
  StoredRowReader(const Table* table, std::vector<ExprPtr> conjuncts,
                  std::vector<size_t> columns);

  /// Points the reader at one stored row and tests the conjuncts; true when
  /// every conjunct is TRUE.
  Result<bool> Load(const uint8_t* bytes, uint32_t len);
  /// Writes output column `i` of the loaded row to `*out`.
  Status Emit(size_t i, Value* out);
  /// Writes every output column of the loaded row to `*tuple`.
  Status EmitRow(Tuple* tuple);

  size_t arity() const { return columns_.size(); }
  /// The table schema narrowed to the output columns, qualified by `alias`
  /// (unqualified when empty).
  Schema OutputSchema(const std::string& alias) const;

 private:
  const Table* table_;
  std::vector<ExprPtr> conjuncts_;
  std::vector<size_t> columns_;
  /// new_columns_[k]: the columns conjunct k reads that no earlier conjunct
  /// reads, ascending. Earlier conjuncts all ran, so theirs are decoded.
  std::vector<std::vector<size_t>> new_columns_;
  std::vector<uint8_t> read_by_predicate_;  // per table column
  TupleView view_;
  Tuple scratch_;  // table width; only the predicate's columns are decoded
};

/// \brief Full scan of a stored table that evaluates the pushed WHERE
/// conjuncts on the page's encoded rows and decodes only the columns its
/// consumer reads (`StoredRowReader`).
class TableScanOp : public Cursor {
 public:
  /// `alias` re-qualifies the output schema (range variable). `conjuncts`
  /// are the `SplitConjuncts` of the pushed predicate, bound to the table's
  /// schema, evaluated in the given (SQL) order; none means every live row.
  /// `columns` are the table columns the scan outputs (`AllColumns` for
  /// every one).
  TableScanOp(const Table* table, const std::string& alias,
              std::vector<ExprPtr> conjuncts, std::vector<size_t> columns);

  Status Init() override;
  /// Fills the block straight from the page bytes: one virtual cursor call
  /// per block instead of one per stored row.
  Result<size_t> NextBatch(RowBlock* block) override;
  /// Next qualifying row and its record id (UPDATE's collect pass).
  Result<bool> NextWithRid(Tuple* tuple, storage::Rid* rid);
  const Schema& schema() const override { return schema_; }

 private:
  /// Moves to the next live row whose conjuncts are all TRUE.
  Result<bool> Advance(storage::Rid* rid);

  const Table* table_;
  StoredRowReader reader_;
  Schema schema_;
  std::optional<storage::HeapFile::Iterator> it_;
};

/// \brief Range scan via a B+-tree index: key in [lo, hi] with optional
/// open bounds on either side. Each hit is read like a full scan's row: the
/// pushed conjuncts are tested on its encoded bytes (all of them, whichever
/// the range already enforces), and only `columns` are decoded.
class IndexScanOp : public RowCursor {
 public:
  IndexScanOp(const Table* table, size_t column, const std::string& alias,
              std::optional<Value> lo, bool lo_inclusive,
              std::optional<Value> hi, bool hi_inclusive,
              std::vector<ExprPtr> conjuncts, std::vector<size_t> columns);

  Status Init() override;
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  const Table* table_;
  size_t column_;
  StoredRowReader reader_;
  Schema schema_;
  std::optional<Value> lo_, hi_;
  bool lo_inclusive_, hi_inclusive_;
  std::optional<storage::BPlusTree::Iterator> it_;
};

/// \brief Concatenation of children (UNION ALL); schemas must be
/// union-compatible (first child's schema wins). Forwards each child's
/// blocks as they come.
class UnionAllOp : public Cursor {
 public:
  explicit UnionAllOp(std::vector<CursorPtr> children)
      : children_(std::move(children)) {}

  Status Init() override;
  Result<size_t> NextBatch(RowBlock* block) override;
  const Schema& schema() const override { return children_.front()->schema(); }

 private:
  std::vector<CursorPtr> children_;
  size_t current_ = 0;
};

/// \brief Hash join (build = left, probe = right) on equi-keys with an
/// optional residual predicate (through `JoinResidual`). Output order: left
/// columns then right.
///
/// Init hashes each build row's key columns once, where the row lies in the
/// child's block (`Value::Hash`, combined as h * 1315423911 + hash, so 1
/// joins 1.0), and drops the rows with a NULL key. It then moves each row
/// once, into (hash, input position) order, so the rows of one hash lie
/// together, and an open-addressing directory maps each hash to its run. A
/// probe row hashes its key columns in place, walks its hash's run and
/// confirms each candidate's keys with `Value::Compare` before testing the
/// residual. Rows come out in probe order, each probe row followed by its
/// matches in build order.
class HashJoinOp : public RowCursor {
 public:
  HashJoinOp(CursorPtr left, CursorPtr right, std::vector<size_t> left_keys,
             std::vector<size_t> right_keys, ExprPtr residual);

  Status Init() override;
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  /// One hash's run of build rows, [begin, end); `end == 0` marks a free
  /// slot.
  struct Slot {
    uint64_t hash = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  size_t SlotOf(uint64_t hash) const;

  CursorPtr left_, right_;
  BatchedReader right_reader_;
  std::vector<size_t> left_keys_, right_keys_;
  Schema schema_;
  exec::JoinResidual residual_;

  std::vector<Tuple> build_;     // in (hash, input position) order
  std::vector<Slot> directory_;  // a power of two, at most half full
  int directory_shift_ = 63;     // 64 - log2(directory size)

  Tuple probe_row_;
  size_t match_pos_ = 0;
  size_t match_end_ = 0;
};

/// \brief Block nested-loop join with an arbitrary predicate (through
/// `JoinResidual`); the right input is materialized in Init.
class NestedLoopJoinOp : public RowCursor {
 public:
  NestedLoopJoinOp(CursorPtr left, CursorPtr right, ExprPtr predicate);

  Status Init() override;
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  CursorPtr left_, right_;
  BatchedReader left_reader_;
  Schema schema_;
  exec::JoinResidual predicate_;
  std::vector<Tuple> inner_;
  Tuple outer_row_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;
};

/// \brief Index nested-loop equi-join: for each outer tuple, probes the
/// inner table's B+-tree on the join column. This is the plan Oracle's
/// nested-loop hint produces in Query 4.
class IndexNestedLoopJoinOp : public RowCursor {
 public:
  /// `outer_key` is a bound column index into the outer schema. The inner
  /// side appears on the right of the output schema, narrowed to the table
  /// columns `inner_columns`; each match decodes only those.
  IndexNestedLoopJoinOp(CursorPtr outer, const Table* inner,
                        const std::string& inner_alias, size_t outer_key,
                        size_t inner_column, std::vector<size_t> inner_columns,
                        ExprPtr residual);

  Status Init() override;
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  CursorPtr outer_;
  BatchedReader outer_reader_;
  const Table* inner_;
  size_t outer_key_;
  size_t inner_column_;
  StoredRowReader inner_reader_;
  Schema schema_;
  exec::JoinResidual residual_;

  Tuple outer_row_;
  Tuple inner_row_;
  /// The index entries from the outer key on; `probing_` while they may
  /// still equal it.
  storage::BPlusTree::Iterator matches_;
  Value index_key_;
  bool probing_ = false;
};

/// \brief Sort-based group aggregation; the input must arrive sorted on the
/// group columns. With no group columns, produces one row for the whole
/// input (and one row even for empty input, per SQL semantics).
class GroupAggOp : public RowCursor {
 public:
  GroupAggOp(CursorPtr child, std::vector<size_t> group_cols,
             std::vector<AggSpec> aggs);

  Status Init() override;
  const Schema& schema() const override { return schema_; }

 private:
  Result<bool> NextRow(Tuple* tuple) override;

  // Running state for one aggregate within the current group.
  struct AggState {
    RunningSum sum;
    int64_t count = 0;
    Value min, max;
    bool any = false;
  };

  void Accumulate(const Tuple& row);
  Tuple EmitGroup();

  CursorPtr child_;
  BatchedReader reader_;
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
