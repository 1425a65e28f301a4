#ifndef FORESIGHT_UTIL_STATUS_H_
#define FORESIGHT_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "util/logging.h"

namespace foresight {

/// Machine-readable category of a `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAlreadyExists = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIOError = 8,
  kParseError = 9,
};

/// Returns the canonical name of a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// Result of an operation that can fail without a payload.
///
/// Foresight does not throw exceptions across API boundaries; fallible
/// operations return `Status` (or `StatusOr<T>` when they produce a value).
/// A default-constructed `Status` is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per non-OK code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: k must be positive".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type `T` or an error `Status`; never both, never neither.
///
/// Accessing `value()` on an error-state `StatusOr` is a programming error
/// (checked by assertion in debug builds).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or an error keeps call sites terse:
  /// `return 42;` or `return Status::InvalidArgument(...)`.
  StatusOr(T value) : value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {
    FORESIGHT_DCHECK(!status_.ok() &&
                     "StatusOr constructed from OK status without value");
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    FORESIGHT_DCHECK(ok());
    return *value_;
  }
  T& value() & {
    FORESIGHT_DCHECK(ok());
    return *value_;
  }
  T&& value() && {
    FORESIGHT_DCHECK(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace foresight

/// Propagates a non-OK `Status` from the current function.
#define FORESIGHT_RETURN_IF_ERROR(expr)             \
  do {                                              \
    ::foresight::Status _status = (expr);           \
    if (!_status.ok()) return _status;              \
  } while (false)

/// Evaluates a `StatusOr<T>` expression, assigning the value on success and
/// propagating the error otherwise. Usage:
///   FORESIGHT_ASSIGN_OR_RETURN(auto table, CsvReader::ReadFile(path));
#define FORESIGHT_ASSIGN_OR_RETURN(lhs, expr)                      \
  FORESIGHT_ASSIGN_OR_RETURN_IMPL_(                                \
      FORESIGHT_STATUS_CONCAT_(_status_or, __LINE__), lhs, expr)

#define FORESIGHT_STATUS_CONCAT_INNER_(a, b) a##b
#define FORESIGHT_STATUS_CONCAT_(a, b) FORESIGHT_STATUS_CONCAT_INNER_(a, b)
#define FORESIGHT_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                     \
  if (!tmp.ok()) return tmp.status();                    \
  lhs = std::move(tmp).value()

#endif  // FORESIGHT_UTIL_STATUS_H_
