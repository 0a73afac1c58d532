// Seeded mutation fuzzer for the lexer and both parsers: starts from valid
// SQL / temporal-SQL statements, applies random mutations (truncation, token
// swaps, random byte injection), and asserts every layer returns a Status
// instead of crashing, throwing, or hanging. Deterministic: a failure
// reproduces from the printed seed and iteration.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adapt/fingerprint.h"
#include "common/rng.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tsql/tsql.h"

namespace tango {
namespace {

const char* const kSeeds[] = {
    "SELECT * FROM POSITION",
    "SELECT DISTINCT PosID, EmpName FROM POSITION WHERE T1 < 100 AND T2 > 5 "
    "ORDER BY PosID DESC, T1",
    "SELECT P.POSID, GREATEST(A.T1, P.T1), LEAST(A.T2, P.T2) "
    "FROM TANGO_TMP_1 A, POSITION P WHERE A.POSID = P.POSID AND "
    "A.T1 < P.T2 AND A.T2 > P.T1",
    "SELECT G, COUNT(G) AS CNT FROM R GROUP BY G HAVING COUNT(G) > 1",
    "SELECT X FROM (SELECT Y AS X FROM T WHERE Y BETWEEN 1 AND 10) S "
    "UNION ALL SELECT Z FROM U ORDER BY X",
    "CREATE TABLE T (A INT, B VARCHAR(12), C DOUBLE, T1 INT, T2 INT)",
    "CREATE INDEX IX ON T (A)",
    "INSERT INTO T VALUES (1, 'a''b', 2.5, NULL, 3), (2, 'x', -1.0, 4, 5)",
    "DROP TABLE T",
    "ANALYZE",
    "SELECT A + B * -C / 2 - 1, DATE '1997-02-01' FROM T "
    "WHERE NOT (A <> 3 OR B >= 'zz') -- trailing comment",
    "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
    "GROUP BY PosID OVER TIME ORDER BY PosID",
    "TEMPORAL SELECT C.PosID, EmpName FROM (TEMPORAL SELECT PosID, "
    "COUNT(PosID) AS CNT FROM POSITION GROUP BY PosID OVER TIME) C, "
    "POSITION P WHERE C.PosID = P.PosID",
    "TEMPORAL SELECT COALESCE G, V FROM R WHERE T1 OVERLAPS PERIOD (3, 9)",
    "TEMPORAL SELECT DISTINCT A FROM R WHERE T CONTAINS 7",
};

std::string Mutate(const std::string& base, Rng* rng) {
  std::string s = base;
  const int kind = static_cast<int>(rng->Uniform(0, 3));
  switch (kind) {
    case 0: {  // truncate at a random point
      if (!s.empty()) s.resize(rng->Uniform(0, static_cast<int64_t>(s.size())));
      break;
    }
    case 1: {  // swap two random whitespace-delimited tokens
      std::vector<std::string> words;
      std::string w;
      for (char c : s) {
        if (c == ' ') {
          if (!w.empty()) words.push_back(w);
          w.clear();
        } else {
          w += c;
        }
      }
      if (!w.empty()) words.push_back(w);
      if (words.size() >= 2) {
        const size_t a = rng->Uniform(0, words.size() - 1);
        const size_t b = rng->Uniform(0, words.size() - 1);
        std::swap(words[a], words[b]);
      }
      s.clear();
      for (const std::string& word : words) {
        if (!s.empty()) s += ' ';
        s += word;
      }
      break;
    }
    case 2: {  // overwrite 1-8 random positions with random bytes
      if (s.empty()) break;
      const int n = static_cast<int>(rng->Uniform(1, 8));
      for (int i = 0; i < n; ++i) {
        s[rng->Uniform(0, static_cast<int64_t>(s.size()) - 1)] =
            static_cast<char>(rng->Uniform(0, 255));
      }
      break;
    }
    default: {  // insert a random byte
      const char c = static_cast<char>(rng->Uniform(0, 255));
      s.insert(s.begin() + rng->Uniform(0, static_cast<int64_t>(s.size())), c);
      break;
    }
  }
  return s;
}

/// A fixed schema for the temporal parser's provider; unknown tables
/// resolve too, so the fuzzer reaches deeper analysis stages.
Result<Schema> FuzzSchema(const std::string&) {
  return Schema({{"", "POSID", DataType::kInt},
                 {"", "EMPNAME", DataType::kString},
                 {"", "G", DataType::kInt},
                 {"", "V", DataType::kString},
                 {"", "A", DataType::kInt},
                 {"", "B", DataType::kString},
                 {"", "T", DataType::kInt},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

TEST(SqlParserFuzzTest, MutatedInputsNeverCrash) {
  Rng rng(0xF0220805);
  constexpr int kIterations = 1200;
  size_t lexer_ok = 0, sql_ok = 0, tsql_ok = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string& base =
        kSeeds[rng.Uniform(0, std::size(kSeeds) - 1)];
    std::string input = Mutate(base, &rng);
    // Occasionally stack a second mutation for compound damage.
    if (rng.Bernoulli(0.3)) input = Mutate(input, &rng);

    SCOPED_TRACE("iter=" + std::to_string(iter) + " input=" + input);

    // Every layer must produce a Status, never crash or throw.
    auto tokens = sql::Lexer::Tokenize(input);
    if (tokens.ok()) ++lexer_ok;
    auto stmt = sql::Parser::Parse(input);
    if (stmt.ok()) ++sql_ok;
    auto plan = tsql::Parser::Parse(input, FuzzSchema);
    if (plan.ok()) ++tsql_ok;
  }
  // Sanity: the mutations must not be so destructive that nothing parses —
  // otherwise the fuzzer only exercises the first error return.
  EXPECT_GT(lexer_ok, kIterations / 10);
  EXPECT_GT(sql_ok + tsql_ok, kIterations / 20);
}

TEST(SqlParserFuzzTest, PathologicalInputsReturnStatus) {
  const std::string cases[] = {
      "",
      " ",
      ";",
      "'",
      "'unterminated",
      "SELECT 'a",
      "((((((((((",
      std::string(10000, '('),
      std::string(5000, '*'),
      "SELECT " + std::string(2000, '-'),  // comment eats the rest
      "\xff\xfe\x00\x01",
      std::string("SELECT \0 FROM T", 15),
      "SELECT 99999999999999999999999999 FROM T",
      "SELECT 1e99999 FROM T",
      "SELECT A FROM T WHERE A = DATE 'not-a-date'",
      "SELECT A FROM T ORDER BY",
      "TEMPORAL",
      "TEMPORAL SELECT",
      "TEMPORAL SELECT COALESCE FROM R",
      "GROUP BY OVER TIME",
  };
  for (const std::string& input : cases) {
    SCOPED_TRACE(input.substr(0, 60));
    (void)sql::Lexer::Tokenize(input);
    (void)sql::Parser::Parse(input);
    (void)tsql::Parser::Parse(input, FuzzSchema);
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Fingerprint stability fuzzing (adapt/fingerprint): replacing every lifted
// literal with a random value of the same type must never change the
// fingerprint (that is the plan cache's key invariant), while structurally
// distinct seed queries must never share one.

/// Seeds for the fingerprint section: every one parses through the temporal
/// parser under FuzzSchema and carries at least one liftable literal (the
/// crash seeds above intentionally include DDL and unsupported syntax, which
/// never reach canonicalization).
const char* const kFpSeeds[] = {
    "SELECT PosID, EmpName FROM POSITION WHERE T1 < 100 AND T2 > 5",
    "SELECT PosID FROM POSITION WHERE T1 < 100 AND T2 > 5 ORDER BY PosID DESC",
    "SELECT A, B FROM T WHERE A > 10 AND B = 'abc'",
    "SELECT A FROM T WHERE A + 2 > 7 AND A <> 3",
    "SELECT G FROM R WHERE G >= 4 OR G <= 1",
    "SELECT P.POSID FROM TANGO_TMP_1 A, POSITION P "
    "WHERE A.POSID = P.POSID AND A.T1 < 44 AND P.T2 > 9",
    "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
    "WHERE PosID > 3 GROUP BY PosID OVER TIME ORDER BY PosID",
    "TEMPORAL SELECT G FROM R WHERE G = 2 AND T1 < 8",
    "SELECT A FROM T WHERE B < 'zz' AND A * 1.5 > 2.25",
    "SELECT DISTINCT A FROM T WHERE A BETWEEN 1 AND 10",
    // Aggregation and aggregation-join seeds: cardinality feedback records
    // its observations under these queries' fingerprints, which key the
    // stale-entry reoptimization, so literal lifting must stay stable for
    // them too.
    "TEMPORAL SELECT G, T1, T2, COUNT(G) AS CNT FROM R WHERE V > 12 "
    "GROUP BY G OVER TIME ORDER BY G, T1",
    "TEMPORAL SELECT C.G, V, CNT FROM "
    "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R WHERE T1 < 55 "
    "GROUP BY G OVER TIME) C, R S WHERE C.G = S.G ORDER BY G",
    "TEMPORAL SELECT COALESCE G, CNT FROM "
    "(TEMPORAL SELECT G, COUNT(G) AS CNT FROM R WHERE G <> 9 "
    "GROUP BY G OVER TIME) C ORDER BY G, T1",
};

Value RandomOfSameType(const Value& v, Rng* rng) {
  if (v.is_int()) return Value(rng->Uniform(-100000, 100000));
  if (v.is_double()) {
    return Value(static_cast<double>(rng->Uniform(-1000000, 1000000)) / 128.0);
  }
  if (v.is_string()) {
    std::string s;
    const int len = static_cast<int>(rng->Uniform(0, 12));
    for (int i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng->Uniform(0, 25));
    }
    return Value(s);
  }
  return v;
}

TEST(FingerprintFuzzTest, LiteralRandomizationPreservesFingerprint) {
  Rng rng(0xF1229E55);
  size_t parsed = 0, literal_sites = 0;
  for (const char* seed : kFpSeeds) {
    auto plan = tsql::Parser::Parse(seed, FuzzSchema);
    ASSERT_TRUE(plan.ok()) << seed << ": " << plan.status().ToString();
    ++parsed;
    const adapt::ParameterizedQuery base =
        adapt::ParameterizeQuery(plan.ValueOrDie());
    literal_sites += base.params.size();

    // Identity rebind reproduces the plan exactly.
    EXPECT_EQ(adapt::BindLogicalParams(base.plan, base.params)->ToString(),
              plan.ValueOrDie()->ToString())
        << seed;

    for (int iter = 0; iter < 40; ++iter) {
      SCOPED_TRACE(std::string(seed) + " iter=" + std::to_string(iter));
      std::vector<Value> mutated;
      mutated.reserve(base.params.size());
      for (const Value& v : base.params) {
        mutated.push_back(RandomOfSameType(v, &rng));
      }
      const adapt::ParameterizedQuery variant = adapt::ParameterizeQuery(
          adapt::BindLogicalParams(base.plan, mutated));
      EXPECT_EQ(variant.canon, base.canon);
      EXPECT_EQ(variant.hash, base.hash);
      ASSERT_EQ(variant.params.size(), base.params.size());
      for (size_t i = 0; i < mutated.size(); ++i) {
        EXPECT_EQ(variant.params[i], mutated[i]);
      }
    }
  }
  // The property must actually have been exercised.
  EXPECT_GE(parsed, 5u);
  EXPECT_GE(literal_sites, 5u);
}

TEST(FingerprintFuzzTest, StructurallyDistinctSeedsNeverCollide) {
  std::vector<std::pair<std::string, adapt::ParameterizedQuery>> queries;
  for (const char* seed : kFpSeeds) {
    auto plan = tsql::Parser::Parse(seed, FuzzSchema);
    if (plan.ok()) {
      queries.emplace_back(seed,
                           adapt::ParameterizeQuery(plan.ValueOrDie()));
    }
  }
  ASSERT_GE(queries.size(), 5u);
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      EXPECT_NE(queries[i].second.canon, queries[j].second.canon)
          << queries[i].first << " vs " << queries[j].first;
      EXPECT_NE(queries[i].second.hash, queries[j].second.hash)
          << queries[i].first << " vs " << queries[j].first;
    }
  }
}

TEST(FingerprintFuzzTest, MutatedInputsHashConsistently) {
  // Hash must be a pure function of the canon, even on heavily damaged
  // inputs that still parse: canon equality and hash equality agree.
  Rng rng(0xF1CAFE02);
  constexpr int kIterations = 600;
  size_t compared = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string& base =
        kFpSeeds[rng.Uniform(0, std::size(kFpSeeds) - 1)];
    auto base_plan = tsql::Parser::Parse(base, FuzzSchema);
    if (!base_plan.ok()) continue;
    const std::string input = Mutate(base, &rng);
    auto plan = tsql::Parser::Parse(input, FuzzSchema);
    if (!plan.ok()) continue;
    SCOPED_TRACE("iter=" + std::to_string(iter) + " input=" + input);
    const adapt::ParameterizedQuery a =
        adapt::ParameterizeQuery(base_plan.ValueOrDie());
    const adapt::ParameterizedQuery b =
        adapt::ParameterizeQuery(plan.ValueOrDie());
    EXPECT_EQ(a.canon == b.canon, a.hash == b.hash);
    ++compared;
  }
  EXPECT_GT(compared, 20u);
}

}  // namespace
}  // namespace tango
