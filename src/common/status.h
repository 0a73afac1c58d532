#ifndef TANGO_COMMON_STATUS_H_
#define TANGO_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace tango {

/// \brief Error category for a failed operation.
///
/// Modeled after the RocksDB `Status` idiom: cheap to construct and copy on
/// the success path, carries a code plus human-readable message on failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kTypeError,
  kNotSupported,
  kInternal,
  kIOError,
  // Transient environment failures (the middleware/DBMS boundary can
  // misbehave): the operation did not succeed but the query is not broken —
  // callers may retry (kUnavailable, kAborted) or must give up cleanly
  // because the query's deadline passed (kTimeout).
  kUnavailable,
  kTimeout,
  kAborted,
};

/// True for the environment-failure codes a caller may see when the wire,
/// the DBMS, or the query's own deadline misbehaved — as opposed to a bug
/// (kInternal) or a bad query. A clean failure of a fault-injected run must
/// carry one of these codes.
inline bool IsTransientCode(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout ||
         code == StatusCode::kAborted;
}

/// \brief Result of an operation that can fail.
///
/// Functions that cross module boundaries return `Status` (or `Result<T>`)
/// instead of throwing; exceptions are reserved for programming errors.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsTransient() const { return IsTransientCode(code_); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders "OK" or "<category>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// \brief Either a value of type `T` or an error `Status`.
///
/// The value is accessed with `ValueOrDie()` after checking `ok()`, mirroring
/// Arrow's `Result<T>`.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                         // NOLINT(runtime/explicit)
      : data_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(data_); }
  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(data_);
  }
  T& ValueOrDie() { return std::get<T>(data_); }
  const T& ValueOrDie() const { return std::get<T>(data_); }
  T MoveValueOrDie() { return std::move(std::get<T>(data_)); }

 private:
  std::variant<T, Status> data_;
};

/// Propagates a non-OK `Status` from the enclosing function.
#define TANGO_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::tango::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

/// Evaluates a `Result<T>` expression and assigns the value to `lhs`,
/// propagating the error status on failure.
#define TANGO_ASSIGN_OR_RETURN(lhs, rexpr)     \
  auto TANGO_CONCAT_(res_, __LINE__) = (rexpr);\
  if (!TANGO_CONCAT_(res_, __LINE__).ok())     \
    return TANGO_CONCAT_(res_, __LINE__).status(); \
  lhs = TANGO_CONCAT_(res_, __LINE__).MoveValueOrDie()

#define TANGO_CONCAT_(a, b) TANGO_CONCAT_IMPL_(a, b)
#define TANGO_CONCAT_IMPL_(a, b) a##b

}  // namespace tango

#endif  // TANGO_COMMON_STATUS_H_
