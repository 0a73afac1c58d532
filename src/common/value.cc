#include "common/value.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

namespace tango {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
  }
  return "?";
}

namespace {
// Rank used to order values of different kinds: NULL < numeric < string.
int KindRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_numeric()) return 1;
  return 2;
}
}  // namespace

int Value::Compare(const Value& other) const {
  const int lr = KindRank(*this);
  const int rr = KindRank(other);
  if (lr != rr) return lr < rr ? -1 : 1;
  if (lr == 0) return 0;  // both NULL
  if (lr == 1) {
    // Compare in the integer domain when both are ints to avoid precision
    // loss on large day numbers and identifiers.
    if (is_int() && other.is_int()) {
      const int64_t a = AsInt();
      const int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    const bool a_nan = std::isnan(a);
    const bool b_nan = std::isnan(b);
    if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    // The shortest fixed-notation text that reads back as the same double
    // (no exponent, which the SQL lexer does not read), with ".0" when it has
    // no point so that it never reads back as an int. The longest finite
    // one, a subnormal's, has about 330 characters.
    const double d = std::get<double>(data_);
    char buf[400];
    const char* end =
        std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::fixed).ptr;
    std::string out(static_cast<const char*>(buf), end);
    if (std::isfinite(d) && out.find('.') == std::string::npos) out += ".0";
    return out;
  }
  return AsString();
}

std::string Value::ToSqlLiteral() const {
  if (!is_string()) return ToString();
  std::string out = "'";
  for (char c : AsString()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_int() || is_double()) return 8;
  return AsString().size() + 2;  // length-prefixed
}

size_t Value::Hash() const {
  // FNV-1a over a kind tag plus the value bytes.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  if (is_null()) {
    const char tag = 0;
    mix(&tag, 1);
  } else if (is_numeric()) {
    // Compare matches an int and a double through the int's double image,
    // so every number hashes through its double image: an integral one in
    // [-2^63, 2^63) as that int64 (ints within 2^53 as themselves), any
    // other (fractions, +-inf, beyond 2^63) as its bits, and every NaN, of
    // any sign or payload, as the quiet NaN's.
    const char tag = 1;
    mix(&tag, 1);
    double d = AsDouble();
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    if (d >= -0x1p63 && d < 0x1p63 &&
        static_cast<double>(static_cast<int64_t>(d)) == d) {
      const auto v = static_cast<int64_t>(d);
      mix(&v, sizeof(v));
    } else {
      mix(&d, sizeof(d));
    }
  } else {
    const char tag = 2;
    mix(&tag, 1);
    mix(AsString().data(), AsString().size());
  }
  return static_cast<size_t>(h);
}

size_t TupleByteSize(const Tuple& tuple) {
  size_t n = 4;  // per-tuple header (slot bookkeeping)
  for (const Value& v : tuple) n += v.ByteSize();
  return n;
}

}  // namespace tango
