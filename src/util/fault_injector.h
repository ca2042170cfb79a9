// Deterministic fault injection for robustness testing (chaos runs).
//
// A FaultInjector owns a set of *named fault points*. Components that
// support injection evaluate their point at well-defined places
// (LockTable::Lock, PageFile::Read/Write, BufferManager::Fetch,
// NodeManager IUD operations, TransactionManager::Abort) and turn a
// firing point into an ordinary error Status, which then flows through
// the exact abort/undo/release machinery a genuine failure would take.
//
// Determinism: whether the n-th evaluation of a point fires is a pure
// function of (seed, point name, n). Thread interleaving can change
// *which operation* performs the n-th evaluation, but never the decision
// sequence itself — same seed + same configuration ⇒ identical injected
// fault sequence per point. No wall clock, no global RNG.
//
// Suppression: physical multi-node document mutations are not
// failure-atomic at the storage layer (a B+-tree split interrupted
// halfway has no compensation), so Document brackets its mutating
// sections with ScopedSuppress. Faults still fire on every read path,
// on buffer pins, and at the operation boundaries where a clean abort
// path exists. This mirrors the fault-masking critical sections of
// test VFS layers in production engines.

#ifndef XTC_UTIL_FAULT_INJECTOR_H_
#define XTC_UTIL_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xtc {

/// Canonical fault point names (docs/robustness.md documents each).
namespace fault_points {
inline constexpr std::string_view kLockTimeout = "lock.timeout";
inline constexpr std::string_view kLockDeadlock = "lock.deadlock";
inline constexpr std::string_view kIoRead = "io.read";
inline constexpr std::string_view kIoWrite = "io.write";
inline constexpr std::string_view kBufferPin = "buffer.pin";
inline constexpr std::string_view kNodeIud = "node.iud";
inline constexpr std::string_view kTxUndo = "tx.undo";
// A WAL group-commit flush fails cleanly (log not advanced, no crash).
inline constexpr std::string_view kWalFlush = "wal.flush";
// Hard-kill points. These flip the run's CrashSwitch, freezing all
// further storage/log I/O, and are only evaluated when a CrashSwitch is
// attached (crash-restart harness runs) — arming them in an ordinary
// chaos run is a no-op.
//   crash.wal    — kill mid log flush; the final log record is torn.
//   crash.page   — kill mid data-page write-back; the page is torn
//                  (detected later via its checksum => kDataLoss).
//   crash.commit — kill just before the commit record is appended.
//   crash.ship   — kill the *primary* mid log shipment; the in-flight
//                  chunk reaches the follower torn (replication).
//   crash.apply  — kill the *follower* mid redo apply; its buffered
//                  (unflushed) applied state is lost (replication).
inline constexpr std::string_view kCrashWal = "crash.wal";
inline constexpr std::string_view kCrashPage = "crash.page";
inline constexpr std::string_view kCrashCommit = "crash.commit";
inline constexpr std::string_view kCrashShip = "crash.ship";
inline constexpr std::string_view kCrashApply = "crash.apply";
// Network fault points (src/net/). Evaluated on both sides of the wire:
// the server in ReadFrames/SendAll/Process, the client in its
// send/recv/round-trip paths. A firing point behaves exactly like the
// corresponding socket failure — the connection drops and the normal
// disconnect machinery (lease park or abort) takes over.
//   net.send  — the next send fails; the connection is dropped.
//   net.recv  — the next receive fails; the connection is dropped.
//   net.delay — the operation is delayed (a stall, not a failure).
//   net.close — the connection is closed out from under the caller.
inline constexpr std::string_view kNetSend = "net.send";
inline constexpr std::string_view kNetRecv = "net.recv";
inline constexpr std::string_view kNetDelay = "net.delay";
inline constexpr std::string_view kNetClose = "net.close";
}  // namespace fault_points

/// Every fault point the stack defines (for "arm everything" configs).
std::vector<std::string_view> AllFaultPoints();

/// The hard-kill subset of AllFaultPoints() (every "crash."-prefixed
/// point). The paired crash harness rotates its kill site over exactly
/// this list; tests/crash_points_test.cc holds it in lockstep with
/// AllFaultPoints(), and tests/fault_points_test.cc holds that in
/// lockstep with the docs/robustness.md table.
std::vector<std::string_view> AllCrashPoints();

struct FaultPointConfig {
  /// Chance that one evaluation fires.
  double probability = 0.0;
  /// Fire at most once, then behave as disarmed.
  bool one_shot = false;
  /// Never fire on the first N evaluations (lets setup paths through).
  uint64_t skip_first = 0;
  /// Status code an injected failure carries (points that model lock
  /// outcomes ignore this and use kDeadlock/kLockTimeout directly).
  StatusCode code = StatusCode::kIoError;
  /// Message override; empty = "injected fault at <point>".
  std::string message;
};

/// One fired injection (for determinism checks and reporting).
struct FaultInjection {
  std::string point;
  uint64_t evaluation = 0;  // per-point evaluation index that fired
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or reconfigures) a fault point. Resets its counters.
  void Arm(std::string_view point, FaultPointConfig config);
  void Disarm(std::string_view point);

  /// Evaluates the point: true = the caller must fail now. Unarmed
  /// points and evaluations inside a ScopedSuppress never fire.
  bool ShouldFail(std::string_view point);

  /// ShouldFail + the configured Status on firing, OK otherwise.
  Status MaybeFail(std::string_view point);

  uint64_t evaluations(std::string_view point) const;
  uint64_t injections(std::string_view point) const;
  uint64_t total_injections() const;

  /// Every fired injection in firing order.
  std::vector<FaultInjection> InjectionLog() const;

  /// Masks all fault points on this thread for the scope's lifetime
  /// (used around non-failure-atomic storage mutations). Nests.
  class ScopedSuppress {
   public:
    ScopedSuppress() { ++suppress_depth_; }
    ~ScopedSuppress() { --suppress_depth_; }
    ScopedSuppress(const ScopedSuppress&) = delete;
    ScopedSuppress& operator=(const ScopedSuppress&) = delete;
  };

  static bool Suppressed() { return suppress_depth_ > 0; }

 private:
  struct PointState {
    FaultPointConfig config;
    uint64_t evaluations = 0;
    uint64_t injections = 0;
  };

  /// Evaluates `point` once (caller holds mu_): counts the evaluation
  /// and, when it fires, the injection. Returns the point's config on
  /// firing, nullptr otherwise.
  const FaultPointConfig* Fire(std::string_view point);
  /// Pure decision function for the n-th evaluation of `point`.
  bool Decide(std::string_view point, uint64_t n, double probability) const;

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, PointState, std::less<>> points_;
  std::vector<FaultInjection> log_;

  // Inline definition: an out-of-line thread_local would be reached
  // through GCC's TLS wrapper, which UBSan (mis)flags as a null load.
  static inline thread_local int suppress_depth_ = 0;
};

/// Null-safe evaluation helper for components holding an optional
/// injector pointer.
inline Status MaybeInject(FaultInjector* injector, std::string_view point) {
  if (injector == nullptr) return Status::OK();
  return injector->MaybeFail(point);
}

}  // namespace xtc

#endif  // XTC_UTIL_FAULT_INJECTOR_H_
