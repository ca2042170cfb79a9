#include "tx/transaction_manager.h"

#include <string>

#include "util/check.h"

namespace xtc {

Status TransactionManager::Commit(Transaction& tx,
                                  std::string_view wal_payload) {
  if (tx.state() != TxState::kActive) {
    return Status::InvalidArgument("commit of a finished transaction");
  }
  // The sequence number must be taken before ReleaseAll: once the locks
  // are gone another transaction can commit conflicting work, and the
  // sequence would no longer be a serialization order.
  tx.set_commit_seq(committed_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (wal_ != nullptr) {
    Status forced = wal_->AppendCommit(tx.id(), tx.commit_seq(), wal_payload);
    if (!forced.ok()) {
      // Only a simulated hard kill reaches here: the commit record is
      // guaranteed absent from the durable log, so restart recovery will
      // treat the transaction as a loser and undo it there. Rolling back
      // in-process is impossible (all further I/O fails) and pointless;
      // just end the transaction and free its locks. The commit sequence
      // number stays consumed — sequence numbers are unique, not dense.
      tx.undo_log().clear();
      tx.set_state(TxState::kAborted);
      lock_manager_->ReleaseAll(tx.LockView());
      XTC_CHECK(lock_manager_->protocol().table().LocksHeldBy(tx.id()) == 0,
                "lock set survived ReleaseAll at failed commit");
      aborted_.fetch_add(1, std::memory_order_relaxed);
      {
        MutexLock guard(mu_);
        active_.erase(tx.id());
      }
      return forced.Annotate("commit record force failed; tx " +
                             std::to_string(tx.id()) + " will be undone by "
                             "restart recovery");
    }
  }
  tx.set_state(TxState::kCommitted);
  lock_manager_->ReleaseAll(tx.LockView());
  // ReleaseAll must leave nothing behind in the transaction's lock set: a
  // surviving entry would let a recycled transaction id "hold" a lock the
  // table has long since granted to somebody else.
  XTC_CHECK(lock_manager_->protocol().table().LocksHeldBy(tx.id()) == 0,
            "lock set survived ReleaseAll at commit");
  {
    MutexLock guard(mu_);
    active_.erase(tx.id());
  }
  return Status::OK();
}

Status TransactionManager::Abort(Transaction& tx) {
  if (tx.state() != TxState::kActive) {
    return Status::InvalidArgument("abort of a finished transaction");
  }
  Status result = Status::OK();
  auto& undo = tx.undo_log();
  const size_t total = undo.size();
  size_t position = total;  // actions run in reverse: last added runs first
  {
    // Compensations are logged as ordinary updates under the aborting
    // transaction's id — no separate CLR record type; restart recovery
    // undoes losers by applying the same logged UndoOps.
    ScopedWalTx wal_tx(tx.id());
    for (auto it = undo.rbegin(); it != undo.rend(); ++it, --position) {
      Status st = (*it)();
      if (st.ok() && faults_ != nullptr) {
        // The compensation has already been applied; the injection only
        // makes it *report* failure, so the document stays consistent and
        // the error-aggregation path gets exercised.
        st = faults_->MaybeFail(fault_points::kTxUndo);
      }
      if (!st.ok()) {
        undo_failures_.fetch_add(1, std::memory_order_relaxed);
        if (result.ok()) {
          result = st.Annotate("tx " + std::to_string(tx.id()) +
                               ": undo action " + std::to_string(position) +
                               " of " + std::to_string(total) + " failed");
        }
      }
    }
  }
  undo.clear();
  if (wal_ != nullptr) wal_->AppendEnd(tx.id());
  tx.set_state(TxState::kAborted);
  lock_manager_->ReleaseAll(tx.LockView());
  // Same invariant as at commit — and aborts are exactly where a leaked
  // hold would be most dangerous (deadlock victims retry).
  XTC_CHECK(lock_manager_->protocol().table().LocksHeldBy(tx.id()) == 0,
            "lock set survived ReleaseAll at abort");
  aborted_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock guard(mu_);
    active_.erase(tx.id());
  }
  return result;
}

}  // namespace xtc
