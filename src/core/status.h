#ifndef SGM_CORE_STATUS_H_
#define SGM_CORE_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "core/check.h"

namespace sgm {

/// Machine-readable error category, modeled after Arrow/RocksDB status codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kInternal,
};

/// Lightweight success/error result for fallible operations.
///
/// The library is exception-free: every operation that can fail for
/// data-dependent reasons returns a Status (or a Result<T>, below).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs an error status with a human-readable message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    SGM_CHECK(code != StatusCode::kOk);
  }

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<code>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Value-or-error holder, the exception-free analogue of `T` returns.
///
/// A Result is either a value of type T or an error Status; `ok()`
/// discriminates and `ValueOrDie()` asserts the value case.
template <typename T>
class Result {
 public:
  /// Implicit from a value: allows `return value;` in functions returning
  /// Result<T> (same convenience contract as arrow::Result).
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from an error Status.
  Result(Status status)  // NOLINT(runtime/explicit)
      : payload_(std::move(status)) {
    SGM_CHECK_MSG(!std::get<Status>(payload_).ok(),
                  "Result constructed from OK status without a value");
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// By value: an inline function-local static here made GCC 12 warn
  /// -Wmaybe-uninitialized wherever a value-holding Result<T> was destroyed.
  Status status() const {
    return ok() ? Status() : std::get<Status>(payload_);
  }

  /// Returns the value; aborts if this Result holds an error.
  const T& ValueOrDie() const& {
    SGM_CHECK_MSG(ok(), "Result::ValueOrDie on error: %s",
                  std::get<Status>(payload_).ToString().c_str());
    return std::get<T>(payload_);
  }
  T&& ValueOrDie() && {
    SGM_CHECK_MSG(ok(), "Result::ValueOrDie on error: %s",
                  std::get<Status>(payload_).ToString().c_str());
    return std::move(std::get<T>(payload_));
  }

  /// Returns the value, or `fallback` when this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(payload_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> payload_;
};

/// Propagates a non-OK status to the caller (Arrow's ARROW_RETURN_NOT_OK).
#define SGM_RETURN_NOT_OK(expr)              \
  do {                                       \
    ::sgm::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (false)

}  // namespace sgm

#endif  // SGM_CORE_STATUS_H_
