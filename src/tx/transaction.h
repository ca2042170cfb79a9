// Transactions: identity, isolation configuration, undo log, statistics.

#ifndef XTC_TX_TRANSACTION_H_
#define XTC_TX_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "util/clock.h"
#include "util/status.h"

namespace xtc {

enum class TxState : uint8_t { kActive, kCommitted, kAborted };

/// One transaction. Created by TransactionManager::Begin(); not
/// thread-safe (a transaction belongs to one worker thread, as in TaMix).
class Transaction {
 public:
  Transaction(uint64_t id, IsolationLevel isolation, int lock_depth)
      : id_(id),
        isolation_(isolation),
        lock_depth_(lock_depth),
        begin_(Now()) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  IsolationLevel isolation() const { return isolation_; }
  int lock_depth() const { return lock_depth_; }
  TxState state() const { return state_; }
  TimePoint begin_time() const { return begin_; }

  TxLockView LockView() const { return {id_, isolation_, lock_depth_}; }

  /// Registers a compensation action run (in reverse order) on abort.
  /// Undo actions perform inverse document operations and must not
  /// acquire transactional locks (the aborting transaction still holds
  /// every lock it needs). NodeManager registers one per IUD operation:
  /// Document::ApplyUndo of the UndoOp that operation logged, the same
  /// inverse restart recovery applies to a loser.
  void AddUndo(std::function<Status()> undo) {
    undo_log_.push_back(std::move(undo));
  }

  /// Commit sequence number (1-based), assigned under the transaction's
  /// locks — for strict long-lock protocols the commit order is a valid
  /// serialization order, which the chaos replay check relies on.
  /// 0 until committed.
  uint64_t commit_seq() const { return commit_seq_; }

  // Used by TransactionManager only.
  void set_state(TxState s) { state_ = s; }
  void set_commit_seq(uint64_t seq) { commit_seq_ = seq; }
  std::vector<std::function<Status()>>& undo_log() { return undo_log_; }

 private:
  const uint64_t id_;
  const IsolationLevel isolation_;
  const int lock_depth_;
  const TimePoint begin_;
  TxState state_ = TxState::kActive;
  uint64_t commit_seq_ = 0;
  std::vector<std::function<Status()>> undo_log_;
};

}  // namespace xtc

#endif  // XTC_TX_TRANSACTION_H_
