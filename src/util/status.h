// Status-based error handling for the XTC reproduction.
//
// The library does not use exceptions (following the Google C++ style and
// the database-engine convention of RocksDB/LevelDB). Every fallible
// operation returns a Status, or a StatusOr<T> when it produces a value.
// Lock-protocol outcomes that terminate a transaction (deadlock victim,
// lock timeout) are ordinary Status codes so that callers can distinguish
// "retry the whole transaction" from genuine errors.

#ifndef XTC_UTIL_STATUS_H_
#define XTC_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace xtc {

enum class StatusCode : int {
  kOk = 0,
  // The transaction was chosen as a deadlock victim and must abort.
  kDeadlock = 1,
  // A lock request timed out (treated like a deadlock by callers).
  kLockTimeout = 2,
  // The transaction was aborted (by itself or by the system).
  kTxAborted = 3,
  // A requested node/key/resource does not exist.
  kNotFound = 4,
  // An argument or request is malformed.
  kInvalidArgument = 5,
  // An internal invariant was violated (bug).
  kInternal = 6,
  // The operation is not supported by this component/protocol.
  kNotSupported = 7,
  // A resource (page, key space, ...) is exhausted.
  kResourceExhausted = 8,
  // A (possibly injected) storage I/O error. Transient by the storage
  // contract, so transactions abort and retry (IsRetryable).
  kIoError = 9,
  // Stored bytes failed verification (torn page, checksum mismatch).
  // NOT retryable: re-reading returns the same corrupt bytes; only
  // restart recovery (redo from the WAL) can repair the page.
  kDataLoss = 10,
  // A lock request would have to wait. Only produced by a LockTable with
  // a LockEventProbe installed (the protocol model checker's
  // single-threaded schedule enumerator); never seen by the threaded
  // engine.
  kWouldBlock = 11,
  // The wait (or the whole instance) was cancelled: coordinator stop,
  // server drain, or a per-transaction cancel (client disconnect while
  // its request was parked in the lock table). The transaction must
  // abort; retrying is pointless — the system is shutting the work down.
  kCancelled = 12,
  // The outcome of a request is genuinely indeterminate: the connection
  // died after the request may have executed, and the server-side
  // session lease expired (or reconnection failed for good) before the
  // client could resolve it from the outcome table. Only the network
  // client produces this, and only for commit — every other request is
  // either idempotent or resolvable.
  // Keep last: net/wire.cc range-checks decoded codes against it.
  kUnknown = 13,
};

/// Lightweight result type: a code plus an optional message.
/// OK carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  static Status OK() { return Status(); }
  static Status Deadlock(std::string_view m = "deadlock victim") {
    return Status(StatusCode::kDeadlock, m);
  }
  static Status LockTimeout(std::string_view m = "lock timeout") {
    return Status(StatusCode::kLockTimeout, m);
  }
  static Status TxAborted(std::string_view m = "transaction aborted") {
    return Status(StatusCode::kTxAborted, m);
  }
  static Status NotFound(std::string_view m) {
    return Status(StatusCode::kNotFound, m);
  }
  static Status InvalidArgument(std::string_view m) {
    return Status(StatusCode::kInvalidArgument, m);
  }
  static Status Internal(std::string_view m) {
    return Status(StatusCode::kInternal, m);
  }
  static Status NotSupported(std::string_view m) {
    return Status(StatusCode::kNotSupported, m);
  }
  static Status ResourceExhausted(std::string_view m) {
    return Status(StatusCode::kResourceExhausted, m);
  }
  static Status IoError(std::string_view m = "storage I/O error") {
    return Status(StatusCode::kIoError, m);
  }
  static Status DataLoss(std::string_view m = "stored data corrupt") {
    return Status(StatusCode::kDataLoss, m);
  }
  static Status WouldBlock(std::string_view m = "lock request would block") {
    return Status(StatusCode::kWouldBlock, m);
  }
  static Status Cancelled(std::string_view m = "wait cancelled") {
    return Status(StatusCode::kCancelled, m);
  }
  static Status Unknown(std::string_view m = "outcome unknown") {
    return Status(StatusCode::kUnknown, m);
  }
  /// The status with `code` and message `m`; OK (no message) for kOk.
  static Status FromCode(StatusCode code, std::string_view m) {
    return code == StatusCode::kOk ? Status() : Status(code, m);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for outcomes that mean "abort and retry the transaction":
  /// deadlock victim, lock timeout, explicit abort, or a transient
  /// storage I/O error.
  bool IsRetryable() const {
    return code_ == StatusCode::kDeadlock ||
           code_ == StatusCode::kLockTimeout ||
           code_ == StatusCode::kTxAborted ||
           code_ == StatusCode::kIoError;
  }
  bool IsDeadlock() const { return code_ == StatusCode::kDeadlock; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsWouldBlock() const { return code_ == StatusCode::kWouldBlock; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnknown() const { return code_ == StatusCode::kUnknown; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsDataLoss() const { return code_ == StatusCode::kDataLoss; }

  /// Same code, message prefixed with `context` (no-op on OK).
  Status Annotate(std::string_view context) const {
    if (ok()) return *this;
    Status out = *this;
    if (out.message_.empty()) {
      out.message_ = std::string(context);
    } else {
      out.message_ = std::string(context) + ": " + out.message_;
    }
    return out;
  }

  std::string ToString() const;

 private:
  Status(StatusCode code, std::string_view message)
      : code_(code), message_(message) {}

  StatusCode code_;
  std::string message_;
};

/// Minimal StatusOr: either an OK status with a value or a non-OK status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status s) : status_(std::move(s)) {  // NOLINT: implicit by design
    assert(!status_.ok());
  }
  StatusOr(T value)  // NOLINT: implicit by design
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

#define XTC_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::xtc::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (0)

#define XTC_ASSIGN_OR_RETURN(lhs, expr)      \
  auto XTC_CONCAT_(_sor, __LINE__) = (expr); \
  if (!XTC_CONCAT_(_sor, __LINE__).ok())     \
    return XTC_CONCAT_(_sor, __LINE__).status(); \
  lhs = std::move(*XTC_CONCAT_(_sor, __LINE__))

#define XTC_CONCAT_INNER_(a, b) a##b
#define XTC_CONCAT_(a, b) XTC_CONCAT_INNER_(a, b)

}  // namespace xtc

#endif  // XTC_UTIL_STATUS_H_
