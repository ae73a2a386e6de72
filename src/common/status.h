#ifndef QMATCH_COMMON_STATUS_H_
#define QMATCH_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace qmatch {

/// Error category carried by a Status. Mirrors the Arrow/RocksDB convention
/// of status-based error handling: no exceptions cross the public API.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kParseError = 4,
  kIoError = 5,
  kOutOfRange = 6,
  kUnimplemented = 7,
  kInternal = 8,
  /// The request's deadline expired before the work completed; any partial
  /// result accompanying this status is a subset of the full answer.
  kDeadlineExceeded = 9,
  /// The request was cooperatively cancelled via a CancellationToken.
  kCancelled = 10,
  /// A resource limit (memory budget, input-size/node-count/depth cap) was
  /// hit before the work completed. The typed alternative to OOM: the
  /// request is rejected, the process survives.
  kResourceExhausted = 11,
  /// The system refused to admit the request because it is at capacity
  /// (the admission queue is full). The request was shed before any work
  /// ran — retrying later may succeed.
  kOverloaded = 12,
  /// Persisted state is unrecoverable: a snapshot or journal failed its
  /// checksum/framing validation (bit rot, torn non-tail write, hostile
  /// bytes). Distinct from kIoError (the bytes could not be read at all)
  /// and never produced by a clean crash — a torn journal tail is
  /// truncated silently, not reported as loss.
  kDataLoss = 13,
  /// The service cannot take this request *here and now*: a standby or
  /// draining server rejecting mutating work, or a client that exhausted
  /// its endpoints. Unlike kOverloaded (a capacity verdict) this is a
  /// routing verdict — the same request sent to the current primary would
  /// be admitted. Always returned before any work ran, so retrying against
  /// another endpoint is safe for every request type.
  kUnavailable = 14,
};

/// Returns the canonical lower-case name of a status code ("parse error").
std::string_view StatusCodeToString(StatusCode code);

/// A Status is either OK or an (code, message) pair describing a failure.
///
/// Statuses are cheap to copy in the OK case and are returned by every
/// fallible operation in the library. Use the factory functions
/// (`Status::ParseError(...)` etc.) to construct failures, and
/// `QMATCH_RETURN_IF_ERROR` to propagate them.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering: "OK" or "<code>: <message>".
  std::string ToString() const;

  /// Returns a copy of this status with `context` prepended to the message,
  /// used to build parse-error breadcrumbs. OK statuses pass through.
  Status WithContext(std::string_view context) const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK status from the current function.
#define QMATCH_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::qmatch::Status _qm_status = (expr);     \
    if (!_qm_status.ok()) return _qm_status;  \
  } while (false)

}  // namespace qmatch

#endif  // QMATCH_COMMON_STATUS_H_
