// Planner-focused DBMS tests: access-path selection, join-method forcing,
// the executor behaviours the generated temporal SQL depends on, and the
// differential suite for projection pushdown (every FROM entry narrowed to
// the columns its SELECT reads) against an engine-free oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "common/rng.h"
#include "dbms/engine.h"
#include "dbms/planner.h"
#include "sql/parser.h"
#include "workload/uis.h"

namespace tango {
namespace dbms {
namespace {

/// A table of `n` rows: K in [0, distinct_k), V = row index, T in [0, n).
void LoadKv(Engine* db, const std::string& name, int n, int distinct_k) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE " + name + " (K INT, V INT, T INT)").ok());
  std::vector<Tuple> rows;
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i % distinct_k)),
                    Value(static_cast<int64_t>(i)),
                    Value(rng.Uniform(0, n))});
  }
  ASSERT_TRUE(db->BulkLoad(name, rows).ok());
}

TEST(PlannerTest, IndexChosenOnlyWhenSelective) {
  Engine db;
  LoadKv(&db, "R", 2000, 100);
  ASSERT_TRUE(db.Execute("CREATE INDEX IT ON R (T)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());

  // A narrow range is under the index threshold, a wide one is not; both
  // must return the same rows as each other and as a no-index baseline.
  for (const char* where : {"T >= 100 AND T < 140", "T >= 100 AND T < 1900"}) {
    auto with = db.Execute(std::string("SELECT V FROM R WHERE ") + where +
                           " ORDER BY V");
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    // Baseline through a fresh engine without the index.
    Engine plain;
    LoadKv(&plain, "R", 2000, 100);
    auto without = plain.Execute(std::string("SELECT V FROM R WHERE ") +
                                 where + " ORDER BY V");
    ASSERT_TRUE(without.ok());
    ASSERT_EQ(with.ValueOrDie().rows.size(), without.ValueOrDie().rows.size());
  }
}

TEST(PlannerTest, IndexEqualityLookup) {
  Engine db;
  LoadKv(&db, "R", 3000, 300);
  ASSERT_TRUE(db.Execute("CREATE INDEX IK ON R (K)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE R").ok());
  auto r = db.Execute("SELECT V FROM R WHERE K = 7 ORDER BY V");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), 10u);  // 3000/300
  for (const Tuple& t : r.ValueOrDie().rows) {
    EXPECT_EQ(t[0].AsInt() % 300, 7);
  }
}

TEST(PlannerTest, ForcedJoinMethodsAgreeOnThreeWayJoin) {
  Engine db;
  LoadKv(&db, "A", 300, 30);
  LoadKv(&db, "B", 200, 30);
  LoadKv(&db, "C", 100, 30);
  ASSERT_TRUE(db.Execute("CREATE INDEX IBK ON B (K)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX ICK ON C (K)").ok());
  ASSERT_TRUE(db.Execute("ANALYZE").ok());
  const char* q =
      "SELECT A.V, B.V, C.V FROM A, B, C "
      "WHERE A.K = B.K AND B.K = C.K AND A.V < 50 AND B.V < 40 AND C.V < 30 "
      "ORDER BY A.V, B.V, C.V";
  std::vector<std::vector<Tuple>> results;
  for (auto m : {SessionConfig::JoinMethod::kAuto,
                 SessionConfig::JoinMethod::kHash,
                 SessionConfig::JoinMethod::kMerge,
                 SessionConfig::JoinMethod::kNestedLoop}) {
    db.config().forced_join = m;
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(r.ValueOrDie().rows);
  }
  db.config().forced_join = SessionConfig::JoinMethod::kAuto;
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size()) << "method " << i;
    for (size_t j = 0; j < results[i].size(); ++j) {
      for (size_t c = 0; c < results[i][j].size(); ++c) {
        EXPECT_EQ(results[i][j][c].Compare(results[0][j][c]), 0);
      }
    }
  }
  EXPECT_GT(results[0].size(), 0u);
}

TEST(PlannerTest, CrossJoinConjunctPlacement) {
  Engine db;
  LoadKv(&db, "A", 50, 10);
  LoadKv(&db, "B", 40, 10);
  // A non-equi cross conjunct must be evaluated as a join residual.
  auto r = db.Execute(
      "SELECT A.V, B.V FROM A, B WHERE A.K = B.K AND A.V + B.V < 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const Tuple& t : r.ValueOrDie().rows) {
    EXPECT_LT(t[0].AsInt() + t[1].AsInt(), 20);
  }
  EXPECT_GT(r.ValueOrDie().rows.size(), 0u);
}

TEST(PlannerTest, PureInequalityJoinFallsBackToNestedLoop) {
  Engine db;
  LoadKv(&db, "A", 60, 6);
  LoadKv(&db, "B", 50, 6);
  auto r = db.Execute("SELECT A.V, B.V FROM A, B WHERE A.V < B.V");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t expected = 0;
  for (int a = 0; a < 60; ++a) {
    for (int b = 0; b < 50; ++b) {
      if (a < b) ++expected;
    }
  }
  EXPECT_EQ(r.ValueOrDie().rows.size(), expected);
}

TEST(PlannerTest, NestedSubqueryChains) {
  Engine db;
  LoadKv(&db, "R", 500, 50);
  auto r = db.Execute(
      "SELECT M FROM "
      "(SELECT K, MAX(V) AS M FROM "
      "  (SELECT K, V FROM R WHERE V >= 100) X "
      " GROUP BY K) Y "
      "WHERE M > 490 ORDER BY M");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Max V per K for V in [100, 500): K = V % 50, so max per K is in
  // [450, 500); those > 490 are 491..499 -> 9 rows.
  EXPECT_EQ(r.ValueOrDie().rows.size(), 9u);
}

TEST(PlannerTest, GroupByQualifiedColumns) {
  Engine db;
  LoadKv(&db, "A", 100, 5);
  LoadKv(&db, "B", 100, 5);
  auto r = db.Execute(
      "SELECT A.K, COUNT(*) AS C FROM A, B WHERE A.K = B.K "
      "GROUP BY A.K ORDER BY A.K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.ValueOrDie().rows.size(), 5u);
  // 20 rows per key on each side -> 400 join pairs per key.
  EXPECT_EQ(r.ValueOrDie().rows[0][1].AsInt(), 400);
}

TEST(PlannerTest, OrderByDescAndMixedDirections) {
  Engine db;
  LoadKv(&db, "R", 50, 7);
  auto r = db.Execute("SELECT K, V FROM R ORDER BY K DESC, V ASC");
  ASSERT_TRUE(r.ok());
  const auto& rows = r.ValueOrDie().rows;
  for (size_t i = 1; i < rows.size(); ++i) {
    const int c = rows[i - 1][0].Compare(rows[i][0]);
    EXPECT_GE(c, 0);
    if (c == 0) {
      EXPECT_LE(rows[i - 1][1].Compare(rows[i][1]), 0);
    }
  }
}

TEST(PlannerTest, ConstantPredicatePushesAnywhere) {
  Engine db;
  LoadKv(&db, "A", 10, 2);
  LoadKv(&db, "B", 10, 2);
  auto t = db.Execute("SELECT A.V FROM A, B WHERE A.K = B.K AND 1 = 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto f = db.Execute("SELECT A.V FROM A, B WHERE A.K = B.K AND 1 = 2");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_GT(t.ValueOrDie().rows.size(), 0u);
  EXPECT_EQ(f.ValueOrDie().rows.size(), 0u);
}

TEST(PlannerTest, EmptyTablesFlowThroughEveryOperator) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE E (K INT, V INT, T INT)").ok());
  LoadKv(&db, "R", 20, 4);
  EXPECT_EQ(db.Execute("SELECT K FROM E").ValueOrDie().rows.size(), 0u);
  EXPECT_EQ(db.Execute("SELECT E.K FROM E, R WHERE E.K = R.K")
                .ValueOrDie()
                .rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT K, COUNT(*) AS C FROM E GROUP BY K")
                .ValueOrDie()
                .rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT DISTINCT K FROM E").ValueOrDie().rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT K FROM E UNION SELECT K FROM E")
                .ValueOrDie()
                .rows.size(),
            0u);
  EXPECT_EQ(db.Execute("SELECT K FROM E ORDER BY K").ValueOrDie().rows.size(),
            0u);
}

TEST(PlannerTest, UnionMixedDistinctAndAll) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE U (X INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO U VALUES (1), (1), (2)").ok());
  // Mixed chain: any non-ALL link dedups the whole chain (documented
  // simplification; our generated SQL never mixes them).
  auto r = db.Execute(
      "SELECT X FROM U UNION ALL SELECT X FROM U UNION SELECT X FROM U");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), 2u);
}

TEST(PlannerTest, GreatestLeastInProjections) {
  Engine db;
  LoadKv(&db, "R", 10, 3);
  auto r = db.Execute(
      "SELECT GREATEST(K, 1) AS G, LEAST(V, 5) AS L FROM R ORDER BY V");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.ValueOrDie().rows[0][0].AsInt(), 1);
  EXPECT_LE(r.ValueOrDie().rows[9][1].AsInt(), 5);
}

TEST(PlannerTest, SelectListRepeatsAColumn) {
  // The SELECT list's projection takes A's column whole for the first A and
  // copies it for the second; C is dropped. 3,000 rows span several blocks.
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE P (A VARCHAR, B INT, C INT)").ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 3000; ++i) {
    std::string a = "name";
    a += std::to_string(i % 7);
    if (i % 2 == 0) a += std::string(20, 'z');
    rows.push_back({Value(std::move(a)), Value(i), Value(-i)});
  }
  ASSERT_TRUE(db.BulkLoad("P", rows).ok());
  auto r = db.Execute("SELECT A, A, B FROM P");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& got = r.ValueOrDie();
  ASSERT_EQ(got.schema.num_columns(), 3u);
  ASSERT_EQ(got.rows.size(), rows.size());
  std::vector<bool> seen(rows.size(), false);
  for (const Tuple& t : got.rows) {
    ASSERT_EQ(t.size(), 3u);
    const int64_t b = t[2].AsInt();
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 3000);
    EXPECT_FALSE(seen[b]) << b;
    seen[b] = true;
    EXPECT_EQ(t[0].AsString(), rows[b][0].AsString()) << b;
    EXPECT_EQ(t[1].AsString(), rows[b][0].AsString()) << b;
  }
}

// ------------------------------------------- projection pushdown vs. oracle

/// A relation in the oracle: every column of every input, never narrowed.
struct Rel {
  Schema schema;
  std::vector<Tuple> rows;
};

/// Total order over values that also separates equal-comparing values of
/// different kinds (1 vs 1.0), so sorted result sets line up row by row.
int KindRank(const Value& v) {
  return v.is_null() ? 0 : v.is_int() ? 1 : v.is_double() ? 2 : 3;
}

bool RowLess(const Tuple& a, const Tuple& b) {
  for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
    const int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp < 0;
    if (KindRank(a[c]) != KindRank(b[c])) {
      return KindRank(a[c]) < KindRank(b[c]);
    }
  }
  return a.size() < b.size();
}

bool SameValue(const Value& a, const Value& b) {
  return KindRank(a) == KindRank(b) && a.Compare(b) == 0;
}

/// \brief Engine-free reference evaluator for the SELECT subset this suite
/// uses. FROM entries are joined as a full cross product and filtered by
/// WHERE; then the arm groups, projects, de-duplicates and orders. Every
/// relation carries all of its columns. It shares only the parser and the
/// scalar expression evaluator with the engine: no planner, no operator.
class Oracle {
 public:
  void AddTable(const std::string& name, Schema schema,
                std::vector<Tuple> rows) {
    tables_[ToUpper(name)] = Rel{std::move(schema), std::move(rows)};
  }

  Result<Rel> Run(const std::string& text) {
    TANGO_ASSIGN_OR_RETURN(auto stmt, sql::Parser::ParseSelect(text));
    return Select(*stmt);
  }

 private:
  Result<Rel> Select(const sql::SelectStmt& stmt) {
    std::vector<Rel> arms;
    bool all_union_all = true;
    for (const sql::SelectStmt* a = &stmt; a != nullptr;
         a = a->union_next.get()) {
      TANGO_ASSIGN_OR_RETURN(Rel arm, Arm(*a));
      arms.push_back(std::move(arm));
      if (a->union_next != nullptr && !a->union_all) all_union_all = false;
    }
    Rel out = std::move(arms[0]);
    if (arms.size() == 1) return out;
    for (size_t i = 1; i < arms.size(); ++i) {
      for (Tuple& t : arms[i].rows) out.rows.push_back(std::move(t));
    }
    if (!all_union_all) Dedup(&out.rows);
    TANGO_RETURN_IF_ERROR(SortBy(stmt.order_by, out.schema, &out.rows));
    return out;
  }

  Result<Rel> Arm(const sql::SelectStmt& stmt) {
    std::vector<Rel> inputs;
    Schema joined;
    for (const sql::TableRef& ref : stmt.from) {
      Rel in;
      if (ref.subquery != nullptr) {
        TANGO_ASSIGN_OR_RETURN(in, Select(*ref.subquery));
        in.schema = in.schema.WithQualifier(ref.alias);
      } else {
        const auto it = tables_.find(ToUpper(ref.table));
        if (it == tables_.end()) return Status::NotFound(ref.table);
        in = it->second;
        in.schema = in.schema.WithQualifier(ref.alias.empty() ? ref.table
                                                              : ref.alias);
      }
      joined = Schema::Concat(joined, in.schema);
      inputs.push_back(std::move(in));
    }
    ExprPtr where;
    if (stmt.where != nullptr) {
      TANGO_ASSIGN_OR_RETURN(where, Bind(stmt.where, joined));
    }
    std::vector<Tuple> rows;
    Tuple row;
    std::function<void(size_t)> product = [&](size_t i) {
      if (i == inputs.size()) {
        if (where == nullptr || EvalPredicate(*where, row)) rows.push_back(row);
        return;
      }
      const size_t base = row.size();
      for (const Tuple& t : inputs[i].rows) {
        row.resize(base);
        row.insert(row.end(), t.begin(), t.end());
        product(i + 1);
      }
      row.resize(base);
    };
    product(0);

    bool aggregates = !stmt.group_by.empty() || stmt.having != nullptr;
    for (const sql::SelectItem& item : stmt.items) {
      if (!item.star && ContainsAggregate(item.expr)) aggregates = true;
    }
    const bool order_here = stmt.union_next == nullptr;
    Rel out;
    if (aggregates) {
      TANGO_ASSIGN_OR_RETURN(out, Aggregate(stmt, joined, rows));
    } else {
      std::vector<ExprPtr> exprs;
      for (const sql::SelectItem& item : stmt.items) {
        if (item.star) {
          const std::string q = ToUpper(item.star_qualifier);
          for (size_t c = 0; c < joined.num_columns(); ++c) {
            if (!q.empty() && joined.column(c).table != q) continue;
            exprs.push_back(Expr::BoundColumn(static_cast<int>(c)));
            out.schema.AddColumn(joined.column(c));
          }
          continue;
        }
        TANGO_ASSIGN_OR_RETURN(ExprPtr e, Bind(item.expr, joined));
        exprs.push_back(std::move(e));
        out.schema.AddColumn({"", OutputName(item), DataType::kInt});
      }
      // ORDER BY on output columns sorts the output; otherwise the input.
      bool in_output = true;
      for (const sql::OrderItem& o : stmt.order_by) {
        if (!out.schema.IndexOf(o.expr->table, o.expr->name).ok()) {
          in_output = false;
        }
      }
      if (order_here && !in_output) {
        TANGO_RETURN_IF_ERROR(SortBy(stmt.order_by, joined, &rows));
      }
      for (const Tuple& in : rows) {
        Tuple t;
        for (const ExprPtr& e : exprs) t.push_back(Eval(*e, in));
        out.rows.push_back(std::move(t));
      }
      if (stmt.distinct) Dedup(&out.rows);
      if (order_here && in_output) {
        TANGO_RETURN_IF_ERROR(SortBy(stmt.order_by, out.schema, &out.rows));
      }
      return out;
    }
    if (stmt.distinct) Dedup(&out.rows);
    if (order_here) {
      TANGO_RETURN_IF_ERROR(SortBy(stmt.order_by, out.schema, &out.rows));
    }
    return out;
  }

  static std::string OutputName(const sql::SelectItem& item) {
    if (!item.alias.empty()) return item.alias;
    return item.expr->kind == Expr::Kind::kColumn ? item.expr->name
                                                  : item.expr->ToString();
  }

  Result<Rel> Aggregate(const sql::SelectStmt& stmt, const Schema& joined,
                        const std::vector<Tuple>& rows) {
    std::vector<ExprPtr> keys;
    for (const ExprPtr& g : stmt.group_by) {
      TANGO_ASSIGN_OR_RETURN(ExprPtr k, Bind(g, joined));
      keys.push_back(std::move(k));
    }
    std::map<Tuple, std::vector<Tuple>, decltype(&RowLess)> groups(&RowLess);
    if (keys.empty()) groups[Tuple{}];  // one group, even over no rows
    for (const Tuple& r : rows) {
      Tuple key;
      for (const ExprPtr& k : keys) key.push_back(Eval(*k, r));
      groups[key].push_back(r);
    }
    Rel out;
    for (const sql::SelectItem& item : stmt.items) {
      out.schema.AddColumn({"", OutputName(item), DataType::kInt});
    }
    for (const auto& [key, members] : groups) {
      if (stmt.having != nullptr) {
        TANGO_ASSIGN_OR_RETURN(Value keep,
                               EvalGroup(stmt.having, joined, members));
        if (keep.is_null() || keep.AsInt() == 0) continue;
      }
      Tuple t;
      for (const sql::SelectItem& item : stmt.items) {
        TANGO_ASSIGN_OR_RETURN(Value v, EvalGroup(item.expr, joined, members));
        t.push_back(std::move(v));
      }
      out.rows.push_back(std::move(t));
    }
    return out;
  }

  /// Evaluates an expression over one group: aggregates over its members,
  /// plain columns on its first member.
  Result<Value> EvalGroup(const ExprPtr& e, const Schema& joined,
                          const std::vector<Tuple>& members) {
    if (e->kind == Expr::Kind::kAggregate) {
      ExprPtr arg;
      if (!e->agg_star) {
        TANGO_ASSIGN_OR_RETURN(arg, Bind(e->children[0], joined));
      }
      int64_t count = 0;
      double sum = 0;
      bool all_int = true;
      Value min, max;
      for (const Tuple& m : members) {
        const Value v = arg == nullptr ? Value(int64_t{1}) : Eval(*arg, m);
        if (v.is_null()) continue;
        ++count;
        if (v.is_numeric()) {
          sum += v.AsDouble();
          if (!v.is_int()) all_int = false;
        }
        if (count == 1 || v < min) min = v;
        if (count == 1 || v > max) max = v;
      }
      switch (e->agg) {
        case AggFunc::kCount: return Value(count);
        case AggFunc::kSum:
          if (count == 0) return Value::Null();
          return all_int ? Value(static_cast<int64_t>(sum)) : Value(sum);
        case AggFunc::kAvg:
          return count == 0 ? Value::Null()
                            : Value(sum / static_cast<double>(count));
        case AggFunc::kMin: return count == 0 ? Value::Null() : min;
        case AggFunc::kMax: return count == 0 ? Value::Null() : max;
      }
    }
    if (e->kind == Expr::Kind::kColumn) {
      TANGO_ASSIGN_OR_RETURN(ExprPtr col, Bind(e, joined));
      return members.empty() ? Value::Null() : Eval(*col, members.front());
    }
    auto folded = std::make_shared<Expr>(*e);
    folded->children.clear();
    for (const ExprPtr& c : e->children) {
      TANGO_ASSIGN_OR_RETURN(Value v, EvalGroup(c, joined, members));
      folded->children.push_back(Expr::Literal(std::move(v)));
    }
    return Eval(*folded, Tuple{});
  }

  static Status SortBy(const std::vector<sql::OrderItem>& order,
                       const Schema& schema, std::vector<Tuple>* rows) {
    std::vector<SortKey> keys;
    for (const sql::OrderItem& o : order) {
      TANGO_ASSIGN_OR_RETURN(size_t c,
                             schema.IndexOf(o.expr->table, o.expr->name));
      keys.push_back({c, o.ascending});
    }
    std::stable_sort(rows->begin(), rows->end(), TupleComparator(keys));
    return Status::OK();
  }

  static void Dedup(std::vector<Tuple>* rows) {
    std::sort(rows->begin(), rows->end(), RowLess);
    rows->erase(std::unique(rows->begin(), rows->end(),
                            [](const Tuple& a, const Tuple& b) {
                              return !RowLess(a, b) && !RowLess(b, a);
                            }),
                rows->end());
  }

  std::map<std::string, Rel> tables_;
};

/// Every live row of a stored table, decoded whole.
std::vector<Tuple> StoredRows(Engine* db, const std::string& name) {
  std::vector<Tuple> rows;
  const Table* table = db->catalog().GetTable(name).ValueOrDie();
  auto it = table->file().Scan();
  Tuple t;
  while (it.Next(&t)) rows.push_back(t);
  return rows;
}

void AddToOracle(Engine* db, const std::string& name, Oracle* oracle) {
  const Table* table = db->catalog().GetTable(name).ValueOrDie();
  oracle->AddTable(name, table->schema(), StoredRows(db, name));
}

/// Runs `sql` under every forced join method and compares the engine's
/// answer with the oracle's: the same output column names and the same
/// rows, in the same order when `ordered` (the ORDER BY is total), else as
/// multisets.
void ExpectMatchesOracle(Engine* db, Oracle* oracle, const std::string& sql,
                         bool ordered) {
  auto want = oracle->Run(sql);
  ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
  Rel expected = want.ValueOrDie();
  if (!ordered) std::sort(expected.rows.begin(), expected.rows.end(), RowLess);
  for (auto m : {SessionConfig::JoinMethod::kAuto,
                 SessionConfig::JoinMethod::kHash,
                 SessionConfig::JoinMethod::kMerge,
                 SessionConfig::JoinMethod::kNestedLoop}) {
    db->config().forced_join = m;
    const std::string label =
        sql + " [join method " + std::to_string(static_cast<int>(m)) + "]";
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    QueryResult result = got.ValueOrDie();
    ASSERT_EQ(result.schema.num_columns(), expected.schema.num_columns())
        << label;
    for (size_t c = 0; c < result.schema.num_columns(); ++c) {
      EXPECT_EQ(result.schema.column(c).name, expected.schema.column(c).name)
          << label;
    }
    if (!ordered) std::sort(result.rows.begin(), result.rows.end(), RowLess);
    ASSERT_EQ(result.rows.size(), expected.rows.size()) << label;
    for (size_t r = 0; r < result.rows.size(); ++r) {
      ASSERT_EQ(result.rows[r].size(), expected.rows[r].size()) << label;
      for (size_t c = 0; c < result.rows[r].size(); ++c) {
        ASSERT_TRUE(SameValue(result.rows[r][c], expected.rows[r][c]))
            << label << " row " << r << " col " << c << ": "
            << result.rows[r][c].ToString() << " vs "
            << expected.rows[r][c].ToString();
      }
    }
  }
  db->config().forced_join = SessionConfig::JoinMethod::kAuto;
}

/// R(K, V, S, T) and Q(K, W, S): duplicate and NULL keys, NULL strings and
/// NULL ints; V and W are unique, so ORDER BY either is total. Q.K has an
/// index, so the nested-loop method probes it.
void LoadPruningTables(Engine* db, Oracle* oracle) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE R (K INT, V INT, S VARCHAR, T INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE Q (K INT, W INT, S VARCHAR)").ok());
  // "s", then 0, 7, 14 or 21 x's (past the small-string buffer), then a
  // digit.
  const auto str = [](int i) {
    std::string s(static_cast<size_t>(i % 4) * 7 + 1, 'x');
    s[0] = 's';
    s += std::to_string(i % 6);
    return Value(std::move(s));
  };
  std::vector<Tuple> r, q;
  for (int i = 0; i < 40; ++i) {
    r.push_back({i % 7 == 3 ? Value::Null() : Value(int64_t{i % 5}),
                 Value(int64_t{i}), i % 5 == 2 ? Value::Null() : str(i),
                 i % 4 == 1 ? Value::Null() : Value(int64_t{(i * 7) % 13})});
  }
  for (int i = 0; i < 25; ++i) {
    q.push_back({i % 6 == 4 ? Value::Null() : Value(int64_t{i % 6}),
                 Value(int64_t{100 + i}),
                 i % 3 == 0 ? Value::Null() : str(i + 1)});
  }
  ASSERT_TRUE(db->BulkLoad("R", r).ok());
  ASSERT_TRUE(db->BulkLoad("Q", q).ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX IQK ON Q (K)").ok());
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
  AddToOracle(db, "R", oracle);
  AddToOracle(db, "Q", oracle);
}

struct PruningCase {
  const char* sql;
  bool ordered;
};

const PruningCase kPruningCases[] = {
    // Derived tables nested two and three deep.
    {"SELECT X.K FROM (SELECT Y.K, Y.V, Y.S FROM (SELECT K, V, S, T FROM R "
     "WHERE T IS NOT NULL) Y WHERE Y.V > 3) X",
     false},
    {"SELECT Z.A FROM (SELECT X.K AS A, X.V AS B FROM (SELECT Y.K, Y.V, Y.S "
     "FROM (SELECT K, V, S, T FROM R) Y WHERE Y.S IS NULL OR Y.T > 5) X) Z "
     "WHERE Z.B < 30",
     false},
    {"SELECT A.V, B.W FROM (SELECT K, V, S, T FROM R) A, (SELECT K, W, S FROM "
     "Q) B WHERE A.K = B.K AND A.T < B.W - 95",
     false},
    {"SELECT A.V, B.W, GREATEST(A.T, B.K) AS G FROM (SELECT K, V, S, T FROM "
     "R WHERE V < 30) A, (SELECT K, W, S FROM Q) B WHERE A.K = B.K AND A.S = "
     "B.S",
     false},
    // Stars: a starred arm reads every column; a starred subquery stays
    // whole.
    {"SELECT * FROM (SELECT K, V FROM R WHERE V < 10) X", false},
    {"SELECT X.*, Y.W FROM (SELECT K, V, S FROM R) X, (SELECT K, W, S FROM Q) "
     "Y WHERE X.K = Y.K",
     false},
    {"SELECT X.V FROM (SELECT * FROM R) X WHERE X.T > 3", false},
    {"SELECT Y.W FROM (SELECT R.*, Q.W FROM R, Q WHERE R.K = Q.K) Y", false},
    // DISTINCT and UNION subqueries stay whole.
    {"SELECT X.K FROM (SELECT DISTINCT K, S FROM R) X", false},
    {"SELECT U.K FROM (SELECT K, V FROM R UNION SELECT K, W FROM Q) U WHERE "
     "U.K IS NOT NULL",
     false},
    {"SELECT U.V FROM (SELECT K, V FROM R UNION ALL SELECT K, W FROM Q) U",
     false},
    {"SELECT X.K FROM (SELECT K, V FROM R) X UNION SELECT Y.K FROM (SELECT K, "
     "W FROM Q) Y",
     false},
    {"SELECT X.S FROM (SELECT K, S, V FROM R) X UNION ALL SELECT Y.S FROM "
     "(SELECT K, W, S FROM Q) Y ORDER BY S",
     false},
    // GROUP BY and HAVING inside a subquery; a global aggregate stays whole.
    {"SELECT G.K FROM (SELECT K, COUNT(*) AS C, MAX(V) AS M FROM R GROUP BY "
     "K) G",
     false},
    {"SELECT G.C FROM (SELECT K, COUNT(*) AS C FROM R GROUP BY K HAVING "
     "COUNT(*) > 7) G",
     false},
    {"SELECT G.K FROM (SELECT K, COUNT(*) AS C FROM R GROUP BY K HAVING "
     "MAX(T) > 9) G",
     false},
    {"SELECT G.M FROM (SELECT K, MAX(V) AS M, SUM(T) AS ST FROM R WHERE S IS "
     "NOT NULL GROUP BY K) G WHERE G.ST > 10",
     false},
    {"SELECT G.ONE FROM (SELECT 1 AS ONE, COUNT(*) AS C FROM R) G", false},
    {"SELECT G.K, G.N FROM (SELECT R.K, COUNT(Q.W) AS N, MIN(R.S) AS MS FROM "
     "R, Q WHERE R.K = Q.K GROUP BY R.K) G",
     false},
    // ORDER BY on an output alias and on columns that are not projected.
    {"SELECT X.S FROM (SELECT V AS A, S FROM R ORDER BY A) X", true},
    {"SELECT X.K FROM (SELECT K, S FROM R ORDER BY V) X", true},
    {"SELECT X.K, X.T FROM (SELECT K, T, V FROM R) X ORDER BY X.V", true},
    {"SELECT K, S FROM R ORDER BY V DESC", true},
    {"SELECT X.K AS KK FROM (SELECT K, V FROM R WHERE V > 4) X ORDER BY KK",
     false},
    // COUNT(*) over a derived table: nothing reads the subquery's columns.
    {"SELECT COUNT(*) AS N FROM (SELECT K, V, S FROM R WHERE V > 10) X",
     false},
    {"SELECT COUNT(*) AS N FROM (SELECT R.K, Q.W FROM R, Q WHERE R.K = Q.K) X",
     false},
    {"SELECT COUNT(*) AS N FROM (SELECT K, SUM(V) AS SV FROM R GROUP BY K) G",
     false},
    {"SELECT COUNT(*) AS N FROM R", false},
    // Unqualified names.
    {"SELECT V, W FROM (SELECT K, V FROM R) A, (SELECT K AS KQ, W FROM Q) B "
     "WHERE K = KQ",
     false},
    {"SELECT W FROM R, Q WHERE R.K = Q.K AND V < 20", false},
    {"SELECT T FROM (SELECT K, T, S FROM R) X WHERE S IS NOT NULL", false},
    {"SELECT 7 AS SEVEN FROM R, Q WHERE R.K = Q.K", false},
};

TEST(ProjectionPushdownTest, MatchesOracle) {
  Engine db;
  Oracle oracle;
  LoadPruningTables(&db, &oracle);
  for (const PruningCase& c : kPruningCases) {
    ExpectMatchesOracle(&db, &oracle, c.sql, c.ordered);
  }
}

/// The translator's SQL for the paper's Query 3 (TJOIN^D under PROJECT^D)
/// and Query 4 (JOIN^D under PROJECT^D), as the middleware sends it.
std::string TranslatedQuery3() {
  const std::string inner =
      "(SELECT S%.POSID AS POSID, S%.EMPID AS EMPID, S%.EMPNAME AS EMPNAME, "
      "S%.PAYRATE AS PAYRATE, S%.DEPT AS DEPT, S%.STATUS AS STATUS, S%.T1 AS "
      "T1, S%.T2 AS T2 FROM POSITION S% WHERE (S%.T1 < 9496))";
  const auto arm = [&](char n) {
    std::string s = inner;
    std::replace(s.begin(), s.end(), '%', n);
    return s;
  };
  return "SELECT S5.POSID AS POSID, S5.EMPNAME AS EMPNAME, S5.EMPNAME_2 AS "
         "EMPNAME_2, S5.T1 AS T1, S5.T2 AS T2 FROM (SELECT S3.POSID AS POSID, "
         "S3.EMPID AS EMPID, S3.EMPNAME AS EMPNAME, S3.PAYRATE AS PAYRATE, "
         "S3.DEPT AS DEPT, S3.STATUS AS STATUS, S4.EMPID AS EMPID_2, "
         "S4.EMPNAME AS EMPNAME_2, S4.PAYRATE AS PAYRATE_2, S4.DEPT AS "
         "DEPT_2, S4.STATUS AS STATUS_2, GREATEST(S3.T1, S4.T1) AS T1, "
         "LEAST(S3.T2, S4.T2) AS T2 FROM " +
         arm('1') + " S3, " + arm('2') +
         " S4 WHERE S3.POSID = S4.POSID AND S3.T1 < S4.T2 AND S3.T2 > S4.T1) "
         "S5";
}

std::string TranslatedQuery4() {
  std::string employee =
      "S2.EMPID AS EMPID_2, S2.EMPNAME AS EMPNAME_2, S2.ADDR AS ADDR, "
      "S2.DEPT AS DEPT_2, S2.RANK AS RANK, S2.SALARY AS SALARY, S2.PHONE AS "
      "PHONE, S2.OFFICE AS OFFICE";
  for (int a = 9; a <= 31; ++a) {
    const std::string col = "ATTR" + std::to_string(a);
    employee += ", S2." + col + " AS " + col;
  }
  return "SELECT S3.POSID AS POSID, S3.ADDR AS ADDR, S3.T1 AS T1, S3.T2 AS T2 "
         "FROM (SELECT S1.POSID AS POSID, S1.EMPID AS EMPID, S1.EMPNAME AS "
         "EMPNAME, S1.PAYRATE AS PAYRATE, S1.DEPT AS DEPT, S1.STATUS AS "
         "STATUS, S1.T1 AS T1, S1.T2 AS T2, " +
         employee +
         " FROM POSITION S1, EMPLOYEE S2 WHERE S1.EMPNAME = S2.EMPNAME) S3";
}

/// UIS at 420 positions and 250 employees. The generator draws EmpIDs from
/// the full-scale range, so each position is re-pointed at one of the 250
/// employees (EMPNAME "EMP<EmpID mod 250>") and Query 4 joins every row.
void LoadSmallUis(Engine* db, Oracle* oracle) {
  workload::UisOptions uis;
  uis.employee_rows = 250;
  uis.position_rows = 420;
  ASSERT_TRUE(workload::LoadUis(db, uis).ok());
  Table* position = db->catalog().GetTable("POSITION").ValueOrDie();
  std::vector<std::pair<storage::Rid, Tuple>> stored;
  {
    auto it = position->file().Scan();
    Tuple t;
    storage::Rid rid;
    while (it.Next(&t, &rid)) stored.emplace_back(rid, t);
  }
  for (const auto& [rid, before] : stored) {
    Tuple after = before;
    after[2] = Value("EMP" + std::to_string(before[1].AsInt() % 250));
    ASSERT_TRUE(position->ApplyUpdate(rid, before, after, 0).ok());
  }
  ASSERT_TRUE(db->Execute("ANALYZE").ok());
  AddToOracle(db, "POSITION", oracle);
  AddToOracle(db, "EMPLOYEE", oracle);
}

TEST(ProjectionPushdownTest, TranslatedQuery3AndQuery4MatchOracle) {
  Engine db;
  Oracle oracle;
  LoadSmallUis(&db, &oracle);
  ExpectMatchesOracle(&db, &oracle, TranslatedQuery3(), false);
  ExpectMatchesOracle(&db, &oracle, TranslatedQuery4(), false);
  // Both answers are non-trivial at this scale; Query 4 joins every row.
  EXPECT_GT(db.Execute(TranslatedQuery3()).ValueOrDie().rows.size(), 420u);
  EXPECT_EQ(db.Execute(TranslatedQuery4()).ValueOrDie().rows.size(), 420u);
}

std::vector<std::string> ColumnNames(const Schema& schema,
                                     const std::vector<size_t>& positions) {
  std::vector<std::string> names;
  for (const size_t p : positions) names.push_back(schema.column(p).name);
  return names;
}

TEST(ProjectionPushdownTest, Query4InnerArmScansOnlyEmpNameAndAddr) {
  Engine db;
  Oracle oracle;
  LoadSmallUis(&db, &oracle);
  auto outer = sql::Parser::ParseSelect(TranslatedQuery4());
  ASSERT_TRUE(outer.ok());
  const sql::SelectStmt& inner = *outer.ValueOrDie()->from[0].subquery;

  // The outer arm reads four of the derived table's 39 columns.
  Planner planner(&db.catalog(), &db.config());
  auto whole = planner.PlanSelect(inner);
  ASSERT_TRUE(whole.ok());
  const Schema inner_schema = whole.ValueOrDie()->schema();
  ASSERT_EQ(inner_schema.num_columns(), 39u);
  const auto read = RequiredColumns(*outer.ValueOrDie(),
                                    {inner_schema.WithQualifier("S3")});
  EXPECT_EQ(ColumnNames(inner_schema, read[0]),
            (std::vector<std::string>{"POSID", "T1", "T2", "ADDR"}));

  // The pruned inner arm keeps those items, and its scans output only what
  // it selects and joins on: EMPLOYEE's EMPNAME and ADDR.
  const auto pruned = PruneSubquery(inner, inner_schema, read[0]);
  ASSERT_NE(pruned, nullptr);
  EXPECT_EQ(pruned->items.size(), 4u);
  auto inputs = planner.PlanFromInputs(*pruned);
  ASSERT_TRUE(inputs.ok()) << inputs.status().ToString();
  const auto& scans = inputs.ValueOrDie();
  ASSERT_EQ(scans.size(), 2u);
  EXPECT_EQ(scans[0].schema.ToString(),
            "(S1.POSID:INT, S1.EMPNAME:VARCHAR, S1.T1:INT, S1.T2:INT)");
  EXPECT_EQ(scans[1].schema.ToString(),
            "(S2.EMPNAME:VARCHAR, S2.ADDR:VARCHAR)");
  EXPECT_EQ(scans[1].columns, (std::vector<size_t>{1, 2}));
  // The whole statement plans over them and returns its four columns.
  auto planned = planner.PlanSelect(*outer.ValueOrDie());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned.ValueOrDie()->schema().num_columns(), 4u);
}

TEST(ProjectionPushdownTest, WhatStaysWhole) {
  const auto parse = [](const std::string& sql) {
    return sql::Parser::ParseSelect(sql).ValueOrDie();
  };
  const Schema two({{"", "A", DataType::kInt}, {"", "B", DataType::kInt}});
  for (const char* sql :
       {"SELECT DISTINCT K AS A, V AS B FROM R",
        "SELECT K AS A, V AS B FROM R UNION ALL SELECT K, V FROM R",
        "SELECT * FROM R", "SELECT R.*, V AS B FROM R",
        "SELECT 1 AS A, COUNT(*) AS B FROM R",
        "SELECT K AS A, V AS B FROM R ORDER BY A, B"}) {
    EXPECT_EQ(PruneSubquery(*parse(sql), two, {0}), nullptr) << sql;
  }
  // Under COUNT(*) nothing is read, and one item keeps the rows.
  const auto none = PruneSubquery(*parse("SELECT K AS A, V AS B FROM R"), two, {});
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->items.size(), 1u);
  // Its own ORDER BY keeps an item the outer arm does not read.
  const auto ordered =
      PruneSubquery(*parse("SELECT K AS A, V AS B FROM R ORDER BY B"), two, {});
  ASSERT_NE(ordered, nullptr);
  ASSERT_EQ(ordered->items.size(), 1u);
  EXPECT_EQ(ordered->items[0].alias, "B");
}

TEST(ProjectionPushdownTest, MissingColumnsFailAsBefore) {
  Engine db;
  Oracle oracle;
  LoadPruningTables(&db, &oracle);
  // A bad reference fails planning whether or not the outer arm reads the
  // item it sits in, with the status binding over the full inputs gives
  // (these are the statuses the engine returned before inputs were
  // narrowed).
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT X.NOPE FROM (SELECT K, V FROM R) X",
       "Not found: no such column: X.NOPE"},
      {"SELECT X.K FROM (SELECT K, NOPE FROM R) X",
       "Not found: no such column: NOPE"},
      {"SELECT X.K FROM (SELECT K, V FROM R) X WHERE X.NOPE > 1",
       "Not found: no such column: X.NOPE"},
      {"SELECT K FROM R WHERE NOPE = 1", "Not found: no such column: NOPE"},
      {"SELECT X.K FROM (SELECT K, V FROM R) X ORDER BY X.NOPE",
       "Not found: no such column: X.NOPE"},
      {"SELECT X.K FROM (SELECT K, V FROM R ORDER BY NOPE) X",
       "Not found: no such column: NOPE"},
      {"SELECT NOPE.K FROM (SELECT K, V FROM R) X",
       "Not found: no such column: NOPE.K"},
      {"SELECT COUNT(*) AS N FROM (SELECT K, V FROM R GROUP BY K) X",
       "Invalid argument: column V is not in the GROUP BY list"},
      {"SELECT X.S FROM (SELECT K, S FROM R) X, (SELECT K, S FROM Q) Y WHERE "
       "X.K = Y.K AND S IS NULL",
       "Invalid argument: ambiguous column reference in: (S) IS NULL"},
      {"SELECT S FROM (SELECT K, S FROM R) X, (SELECT K, S FROM Q) Y WHERE "
       "X.K = Y.K",
       "Invalid argument: ambiguous column reference: S"},
  };
  for (const auto& [sql, status] : cases) {
    auto r = db.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().ToString(), status) << sql;
  }
}

}  // namespace
}  // namespace dbms
}  // namespace tango
