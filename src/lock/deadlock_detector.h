// Wait-for graph and cycle detection (the paper's XTCdeadlockDetector,
// §4.2). Maintained by the lock table under its mutex; a cycle check runs
// whenever a transaction blocks or re-blocks, so deadlocks are detected
// immediately rather than by timeout. The requester that closes a cycle
// is chosen as the victim.
//
// Thread-compatibility: this class has no mutex of its own. The owning
// LockTable declares its instance XTC_GUARDED_BY(graph_mu_), which is
// where the lock discipline is enforced at compile time; embedding the
// class elsewhere requires equivalent external synchronization.

#ifndef XTC_LOCK_DEADLOCK_DETECTOR_H_
#define XTC_LOCK_DEADLOCK_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace xtc {

class DeadlockDetector {
 public:
  /// Replaces the out-edges of `waiter` (the set of transactions it is
  /// currently waiting for).
  void SetEdges(uint64_t waiter, const std::vector<uint64_t>& holders);

  /// Removes all out-edges of `waiter` (it stopped waiting).
  void ClearEdges(uint64_t waiter);

  /// True if `waiter` has out-edges (it is waiting).
  bool IsWaiting(uint64_t waiter) const { return edges_.count(waiter) != 0; }

  /// True if a directed cycle through `start` exists.
  bool HasCycleFrom(uint64_t start) const;

  /// Number of transactions currently waiting (for stats/tests).
  size_t num_waiters() const { return edges_.size(); }

 private:
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> edges_;
};

}  // namespace xtc

#endif  // XTC_LOCK_DEADLOCK_DETECTOR_H_
