#ifndef TANGO_COMMON_VALUE_H_
#define TANGO_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace tango {

/// \brief Column data types supported by the middleware and the DBMS.
///
/// Time attributes (T1, T2) are stored as `kInt` day numbers; the paper's
/// closed-open period representation `[T1, T2)` is preserved verbatim.
enum class DataType : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
};

/// Returns the SQL spelling of a type ("INT", "DOUBLE", "VARCHAR").
const char* DataTypeName(DataType type);

/// \brief A single attribute value: NULL, 64-bit integer, double, or string.
///
/// Ordering follows SQL semantics with NULLs sorting first; integers and
/// doubles compare numerically across types.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(data_))
                    : std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Makes this value the string `[data, data + n)`, reusing the buffer of
  /// a string it already holds (the codec decodes into reused scratch rows).
  void SetString(const char* data, size_t n) {
    if (auto* s = std::get_if<std::string>(&data_)) {
      s->assign(data, n);
    } else {
      data_.emplace<std::string>(data, n);
    }
  }

  /// True when the value is numeric (int or double).
  bool is_numeric() const { return is_int() || is_double(); }

  /// Three-way comparison with SQL NULLS FIRST total order:
  /// NULL < numbers < strings; numbers compare numerically across kinds (an
  /// int and a double in double precision). NaN equals every NaN and sorts
  /// above every other number, as in PostgreSQL.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Renders the value for plan printouts and test expectations; strings are
  /// not quoted. A finite double prints exactly: the shortest fixed-notation
  /// text that reads back as the same double, always with a point ("5.0").
  std::string ToString() const;

  /// Renders as a SQL literal (strings single-quoted with '' escaping); the
  /// SQL parser reads a number's literal back as the same value and kind.
  std::string ToSqlLiteral() const;

  /// The on-wire / in-page byte footprint used for `size(r)` statistics.
  size_t ByteSize() const;

  /// Hash usable in unordered containers (FNV-1a over the encoded value).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// A tuple is a row of values laid out in schema order.
using Tuple = std::vector<Value>;

/// Sum of the byte sizes of all values, plus a per-tuple header; this is the
/// quantity the cost formulas weigh via `size(r)`.
size_t TupleByteSize(const Tuple& tuple);

}  // namespace tango

#endif  // TANGO_COMMON_VALUE_H_
