#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "common/wire.h"
#include "dbms/engine.h"
#include "sql/lexer.h"

namespace tango {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation POSITION");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "Not found: relation POSITION");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 42);

  Result<int> err(Status::Internal("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(ValueTest, NullOrdering) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value::Null(), Value("abc"));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.0), Value(int64_t{3}));
}

TEST(ValueTest, StringsCompareLexicographically) {
  EXPECT_LT(Value("ABC"), Value("ABD"));
  EXPECT_GT(Value("B"), Value("AZZZ"));
  // Numbers sort before strings in the total order.
  EXPECT_LT(Value(int64_t{999}), Value("0"));
}

TEST(ValueTest, ToSqlLiteralQuotesStrings) {
  EXPECT_EQ(Value("O'Neil").ToSqlLiteral(), "'O''Neil'");
  EXPECT_EQ(Value(int64_t{7}).ToSqlLiteral(), "7");
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, DoublesPrintExactlyAndStayDoubles) {
  EXPECT_EQ(Value(5.0).ToSqlLiteral(), "5.0");
  EXPECT_EQ(Value(-0.0).ToString(), "-0.0");
  EXPECT_EQ(Value(12.34561).ToString(), "12.34561");
  EXPECT_EQ(Value(7.123456789).ToString(), "7.123456789");
  EXPECT_EQ(Value(54321.98765).ToString(), "54321.98765");
  EXPECT_EQ(Value(1234567.5).ToSqlLiteral(), "1234567.5");
  EXPECT_EQ(Value(0.00001).ToSqlLiteral(), "0.00001");
}

/// Finite doubles of every shape, seeded: signed zeros, subnormals, the
/// extremes, 1e+-300, integral doubles around 2^53, short decimals and
/// random bit patterns.
std::vector<double> RoundTripDoubles() {
  using Limits = std::numeric_limits<double>;
  std::vector<double> out = {
      0.0, -0.0, Limits::denorm_min(), -Limits::denorm_min(), Limits::min(),
      Limits::max(), -Limits::max(), 1e300, 1e-300, -1e300, -1e-300,
      0x1p53 - 1, 0x1p53, 0x1p53 + 2, -(0x1p53 - 1), -(0x1p53 + 2), 0.1,
      1.0 / 3, 5.0, 7.123456789, 54321.98765, 1234567.5, 0.00001};
  Rng rng(0x5EED2025);
  while (out.size() < 10000) {
    double d = 0;
    switch (out.size() % 5) {
      case 0:  // any finite bit pattern
        do {
          d = std::bit_cast<double>(rng.Next());
        } while (!std::isfinite(d));
        break;
      case 1:  // a subnormal
        d = std::bit_cast<double>(rng.Next() & ((uint64_t{1} << 52) - 1));
        break;
      case 2:  // an integral double, within and beyond 2^53
        d = static_cast<double>(rng.Uniform(0, int64_t{1} << 61));
        break;
      case 3:  // 2^53 + k
        d = 0x1p53 + static_cast<double>(rng.Uniform(-4, 4));
        break;
      default:  // a short decimal
        d = static_cast<double>(rng.Uniform(-1000000000, 1000000000)) /
            std::pow(10.0, static_cast<double>(rng.Uniform(0, 12)));
        break;
    }
    out.push_back(rng.Bernoulli(0.5) ? d : -d);
  }
  return out;
}

TEST(ValueTest, DoubleSqlLiteralsReadBackBitExact) {
  // A non-negative double's literal is one float token with the same bits.
  // A negative one starts with '-', which the parser folds into the literal
  // (unary minus), so it goes through a DBMS SELECT.
  const std::vector<double> doubles = RoundTripDoubles();
  dbms::Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE ONE (X INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO ONE VALUES (1)").ok());
  std::vector<double> negative;
  for (const double d : doubles) {
    const std::string literal = Value(d).ToSqlLiteral();
    if (std::signbit(d)) {
      negative.push_back(d);
      continue;
    }
    auto tokens = sql::Lexer::Tokenize(literal);
    ASSERT_TRUE(tokens.ok()) << literal << ": " << tokens.status().ToString();
    ASSERT_EQ(tokens.ValueOrDie().size(), 2u) << literal;
    const sql::Token& token = tokens.ValueOrDie()[0];
    ASSERT_EQ(token.type, sql::TokenType::kFloat) << literal;
    EXPECT_EQ(std::bit_cast<uint64_t>(token.float_value),
              std::bit_cast<uint64_t>(d))
        << literal;
  }
  ASSERT_GT(negative.size(), 4000u);
  constexpr size_t kPerStatement = 50;
  for (size_t first = 0; first < negative.size(); first += kPerStatement) {
    const size_t n = std::min(kPerStatement, negative.size() - first);
    std::string sql = "SELECT X";
    for (size_t i = 0; i < n; ++i) {
      sql += ", " + Value(negative[first + i]).ToSqlLiteral() + " AS V" +
             std::to_string(i);
    }
    sql += " FROM ONE";
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Tuple& row = result.ValueOrDie().rows.at(0);
    for (size_t i = 0; i < n; ++i) {
      const double d = negative[first + i];
      ASSERT_TRUE(row[i + 1].is_double()) << Value(d).ToSqlLiteral();
      EXPECT_EQ(std::bit_cast<uint64_t>(row[i + 1].AsDouble()),
                std::bit_cast<uint64_t>(d))
          << Value(d).ToSqlLiteral();
    }
  }
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value("xy").Hash(), Value("xy").Hash());
  EXPECT_NE(Value("xy").Hash(), Value("xz").Hash());
}

TEST(ValueTest, CompareEqualImpliesEqualHash) {
  // Around 2^53 ints stop fitting a double, and beyond 2^63 doubles stop
  // fitting an int64: Compare matches an int with a double through the
  // int's double image, and Hash must agree (and stay defined) there. Every
  // NaN, whatever its sign or payload, equals every other NaN and sorts
  // above +infinity.
  const int64_t p53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double payload_nan =
      std::bit_cast<double>(uint64_t{0x7ff8000000000123});
  ASSERT_TRUE(std::isnan(payload_nan));
  const std::vector<Value> values = {
      Value(int64_t{0}),  Value(0.0),          Value(-0.0),
      Value(p53),         Value(-p53),         Value(p53 + 1),
      Value(p53 - 1),     Value(-p53 - 1),     Value(0x1p53),
      Value(-0x1p53),     Value(0x1p53 + 2),   Value(0x1p53 - 1),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(0x1p63),      Value(-0x1p63),      Value(1e300),
      Value(-1e300),      Value(inf),          Value(-inf),
      Value(nan),         Value(-nan),         Value(payload_nan)};
  const auto sign = [](int c) { return (c > 0) - (c < 0); };
  size_t equal_pairs = 0;
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(sign(a.Compare(b)), -sign(b.Compare(a)))
          << a.ToString() << " vs " << b.ToString();
      if (a.Compare(b) != 0) continue;
      ++equal_pairs;
      EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
    }
  }
  // Cross-kind pairs, not just each value with itself.
  EXPECT_GT(equal_pairs, values.size());
  // Transitive: `<` always; equality except between two ints, which compare
  // exactly although both may equal one double (2^53 and 2^53 + 1 both
  // equal the double 2^53).
  for (const Value& a : values) {
    for (const Value& b : values) {
      for (const Value& c : values) {
        if (a < b && b < c) {
          EXPECT_LT(a, c) << a.ToString() << " < " << b.ToString() << " < "
                          << c.ToString();
        }
        if (a == b && b == c && !(a.is_int() && c.is_int())) {
          EXPECT_EQ(a, c) << a.ToString() << " = " << b.ToString() << " = "
                          << c.ToString();
        }
      }
    }
  }
  EXPECT_GT(Value(nan), Value(inf));
  EXPECT_GT(Value(-nan), Value(std::numeric_limits<int64_t>::max()));
  EXPECT_LT(Value(nan), Value("a"));
}

TEST(ValueTest, ByteSizeReflectsContent) {
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value("abcd").ByteSize(), 6u);
  Tuple t = {Value(int64_t{1}), Value("ab")};
  EXPECT_EQ(TupleByteSize(t), 4u + 8u + 4u);
}

TEST(SchemaTest, IndexOfUnqualified) {
  Schema s({{"A", "POSID", DataType::kInt}, {"A", "T1", DataType::kInt}});
  EXPECT_EQ(s.IndexOf("POSID").ValueOrDie(), 0u);
  EXPECT_EQ(s.IndexOf("T1").ValueOrDie(), 1u);
  EXPECT_FALSE(s.IndexOf("NOPE").ok());
}

TEST(SchemaTest, QualifiedResolutionAndAmbiguity) {
  Schema s({{"A", "POSID", DataType::kInt}, {"B", "POSID", DataType::kInt}});
  EXPECT_FALSE(s.IndexOf("POSID").ok());  // ambiguous
  EXPECT_EQ(s.IndexOf("A.POSID").ValueOrDie(), 0u);
  EXPECT_EQ(s.IndexOf("B.POSID").ValueOrDie(), 1u);
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema s({{"", "POSID", DataType::kInt}});
  EXPECT_TRUE(s.IndexOf("posid").ok());
  EXPECT_TRUE(s.IndexOf("PosID").ok());
}

TEST(SchemaTest, WithQualifierAndConcat) {
  Schema s({{"", "X", DataType::kInt}});
  Schema q = s.WithQualifier("t");
  EXPECT_EQ(q.column(0).table, "T");
  Schema c = Schema::Concat(q, s);
  EXPECT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.IndexOf("T.X").ValueOrDie(), 0u);
}

TEST(TupleComparatorTest, MultiKeyWithDirections) {
  TupleComparator cmp({{0, true}, {1, false}});
  Tuple a = {Value(int64_t{1}), Value(int64_t{5})};
  Tuple b = {Value(int64_t{1}), Value(int64_t{9})};
  Tuple c = {Value(int64_t{2}), Value(int64_t{0})};
  EXPECT_TRUE(cmp(b, a));  // same first key, second key DESC
  EXPECT_TRUE(cmp(a, c));
  EXPECT_EQ(cmp.Compare(a, a), 0);
}

TEST(DateTest, RoundTrip) {
  for (int y : {1970, 1983, 1995, 2000, 2026}) {
    for (int m : {1, 2, 6, 12}) {
      const int64_t d = date::FromYmd(y, m, 15);
      int yy, mm, dd;
      date::ToYmd(d, &yy, &mm, &dd);
      EXPECT_EQ(yy, y);
      EXPECT_EQ(mm, m);
      EXPECT_EQ(dd, 15);
    }
  }
}

TEST(DateTest, EpochAndKnownValues) {
  EXPECT_EQ(date::FromYmd(1970, 1, 1), 0);
  EXPECT_EQ(date::FromYmd(1970, 1, 2), 1);
  EXPECT_EQ(date::FromYmd(1969, 12, 31), -1);
  // The paper's selectivity example: 1819 days between Jan 1 1995 and
  // Dec 25 1999 (distinct T1 values).
  EXPECT_EQ(date::FromYmd(1999, 12, 25) - date::FromYmd(1995, 1, 1), 1819);
}

TEST(DateTest, ParseAndFormat) {
  auto r = date::Parse("1997-02-01");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(date::Format(r.ValueOrDie()), "1997-02-01");
  EXPECT_FALSE(date::Parse("1997/02/01").ok());
  EXPECT_FALSE(date::Parse("1997-13-01").ok());
}

TEST(WireTest, TupleRoundTrip) {
  Tuple t = {Value(int64_t{-5}), Value(3.25), Value("hello"), Value::Null()};
  WireWriter w;
  w.PutTuple(t);
  WireReader r(w.buffer());
  auto back = r.GetTuple();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.ValueOrDie().size(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.ValueOrDie()[i].Compare(t[i]), 0) << i;
    EXPECT_EQ(back.ValueOrDie()[i].is_null(), t[i].is_null()) << i;
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, UnderrunDetected) {
  WireWriter w;
  w.PutTuple({Value("abcdef")});
  std::vector<uint8_t> cut(w.buffer().begin(), w.buffer().end() - 3);
  WireReader r(cut);
  EXPECT_FALSE(r.GetTuple().ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, SkewedFavorsSmallValues) {
  Rng rng(2);
  int64_t below = 0;
  const int64_t n = 1000;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Skewed(n, 0.5) < n / 10) ++below;
  }
  // With theta=0.5 skew, far more than 10% of the mass is in the lowest 10%.
  EXPECT_GT(below, 2000);
}

}  // namespace
}  // namespace tango
