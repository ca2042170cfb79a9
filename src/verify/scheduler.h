// Exhaustive schedule enumerator for the protocol model checker.
//
// Executes 2–3 transaction scripts against the engine's own stack — a
// small in-memory Document, NodeManager and TransactionManager over the
// real LockManager/LockTable/XmlProtocol — single-threaded, one
// NodeManager call at a time, with a LockEventProbe in the lock table,
// whose blocked requests run the engine's wait path but return
// kWouldBlock where a thread would park. Every interleaving is explored
// by depth-first search. Because neither the document nor the lock table
// can undo, backtracking replays the schedule prefix from scratch on a
// document reopened from one snapshot; one protocol instance (whose
// mode-table derivation is the expensive part) is reused across replays
// by fully releasing all transactions between runs.
//
// Pruning, both optional and sound:
//  * state memoization — two prefixes reaching the same canonical state
//    (per-tx progress + lock-table holds + document + item versions +
//    order-free history) have identical futures, see verify/oracle.h;
//  * sleep sets over read-only/read-only steps of runnable transactions.
//    Disabled at isolation level kCommitted, where EndOperation releases
//    short locks and read steps therefore do not commute with the
//    blocked-transaction retry eligibility they unlock.
//
// A CheckProbe mirrors the table's wait-for edges and cross-checks the
// deadlock detector: a request that reports would-block while the
// mirrored graph already has a cycle is an undetected deadlock; a victim
// without a cycle is a false victim; a stalled schedule (no enabled
// transaction, some unfinished) is an undetected deadlock the scheduler
// itself observes. A blocked call that changed the document, and a leaf
// document that fails Document::Validate, are violations too.

#ifndef XTC_VERIFY_SCHEDULER_H_
#define XTC_VERIFY_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/lock_table.h"
#include "node/document.h"
#include "node/node_manager.h"
#include "tx/transaction_manager.h"
#include "verify/oracle.h"
#include "verify/scripts.h"

namespace xtc::verify {

/// One model-checking scenario: a named set of transaction scripts, all
/// run against the scenario document (roles in verify/scripts.h).
struct Scenario {
  std::string name;
  std::vector<TxScriptSpec> scripts;
};

/// Corruption hooks (protoverify --selftest): applied to the freshly
/// created protocol / the table options before any schedule runs.
using ProtocolMutator = std::function<void(XmlProtocol*)>;
using OptionsMutator = std::function<void(LockTableOptions*)>;

struct EnumOptions {
  std::string protocol;
  IsolationLevel isolation = IsolationLevel::kRepeatable;
  int lock_depth = 7;
  /// Enable memoization + sleep sets. Pruning never changes the set of
  /// distinct outcomes — tests compare pruned vs unpruned runs.
  bool prune = true;
  /// Budget on executed steps (including replay steps) before the run
  /// gives up and sets budget_exhausted.
  uint64_t max_steps = 20'000'000;
  ProtocolMutator mutate_protocol;
  OptionsMutator mutate_options;
};

struct EnumResult {
  uint64_t schedules = 0;  // maximal schedules (leaves) reached
  uint64_t states = 0;     // DFS nodes visited
  uint64_t pruned = 0;     // subtrees cut by memoization
  uint64_t steps = 0;      // operation steps executed, replays included
  /// Union over all explored schedules.
  AnomalyMask anomalies = 0;
  bool nonserializable = false;
  /// Some schedule ended with a deadlock victim.
  bool deadlock = false;
  bool budget_exhausted = false;
  /// Checker-invariant violations (undetected deadlock, false victim,
  /// stall, unexpected status, a blocked call that mutated the document,
  /// a leaf document failing Validate). Always a finding — a correct stack
  /// produces none, at any isolation level.
  std::vector<std::string> violations;
};

/// Wait-for-graph mirror + deadlock-detector cross-check (see file
/// comment). Installed as the table's LockEventProbe, which selects its
/// model-checker mode.
class CheckProbe : public LockEventProbe {
 public:
  explicit CheckProbe(std::set<std::string>* violations)
      : violations_(violations) {}

  void Clear() { edges_.clear(); }
  /// Execution calls this on commit/abort (ReleaseAll has no probe hook).
  void OnRelease(uint64_t tx) { edges_.erase(tx); }
  bool HasEdges(uint64_t tx) const { return edges_.count(tx) != 0; }

  void OnGrant(uint64_t tx, std::string_view resource, ModeId previous,
               ModeId effective, LockDuration duration) override;
  void OnWouldBlock(uint64_t tx, std::string_view resource, ModeId target,
                    const std::vector<uint64_t>& blockers) override;
  void OnDeadlockVictim(uint64_t tx, std::string_view resource, ModeId target,
                        const std::vector<uint64_t>& blockers) override;

 private:
  bool CycleFrom(uint64_t start) const;

  std::map<uint64_t, std::vector<uint64_t>> edges_;  // waiter -> blockers
  std::set<std::string>* violations_;
};

/// One deterministic execution of a scenario: the document, node and
/// transaction managers it runs on, the per-transaction program
/// counters, and the history recorded from each call's result. The
/// caller owns the LockManager/protocol pair so the expensive protocol
/// can be reused across replays; Reset() requires that every transaction
/// has been released (Execution releases terminally on
/// commit/abort/victim and Reset releases the rest).
class Execution {
 public:
  enum class StepOutcome : uint8_t {
    kProgress = 0,  // the operation (or commit/abort) completed
    kBlocked = 1,   // a lock request would block; retry after a release
    kVictim = 2,    // deadlock victim: the transaction aborted
  };

  Execution(const Scenario& scenario, IsolationLevel isolation, int lock_depth,
            LockManager* mgr, CheckProbe* probe,
            std::set<std::string>* violations);

  /// Back to the initial state (document reopened from the scenario
  /// snapshot, fresh transactions, empty history, all transactions at
  /// pc 0). The cumulative step counter survives.
  void Reset();

  int num_txs() const { return static_cast<int>(scripts_.size()); }
  bool Finished(int t) const;
  bool AllFinished() const;
  /// Runnable, or blocked with a release since it last blocked.
  bool Enabled(int t) const;
  /// Runnable with a read-only next operation (sleep-set commutation).
  bool ReadOnlyNext(int t) const;

  StepOutcome Step(int t);

  /// Canonical state fingerprint: per-tx progress/eligibility + lock
  /// holds + document + item versions + order-free history.
  std::string CanonicalState() const;

  const History& history() const { return history_; }
  const Document& document() const { return *doc_; }
  bool any_victim() const { return any_victim_; }
  uint64_t steps_taken() const { return steps_; }

 private:
  enum class Phase : uint8_t {
    kRunnable = 0,
    kBlocked = 1,
    kCommitted = 2,
    kAborted = 3,
  };
  struct Progress {
    size_t pc = 0;
    Phase phase = Phase::kRunnable;
    uint64_t blocked_gen = 0;
  };

  /// A fresh TransactionManager numbers its transactions from 1, and
  /// Reset begins them in script order.
  uint64_t TxId(int t) const { return static_cast<uint64_t>(t) + 1; }

  /// Makes the operation's NodeManager call and, once it succeeds,
  /// records the items it read or wrote.
  Status RunOp(int t, const ScriptOp& op);
  void RecordRead(int t, ItemKind kind, const Splid& node);
  void RecordWrite(int t, ItemKind kind, const Splid& node);
  void FinishTx(int t, bool commit);
  /// Every node's label and record, in document order.
  std::string DocumentImage() const;

  std::vector<TxScriptSpec> scripts_;  // normalized: terminal commit/abort
  IsolationLevel isolation_;
  int lock_depth_;
  LockManager* mgr_;
  CheckProbe* probe_;
  std::set<std::string>* violations_;

  DocumentSnapshot scenario_;  // the scenario document, taken once
  std::unique_ptr<Document> doc_;
  std::unique_ptr<TransactionManager> txm_;
  std::unique_ptr<NodeManager> nodes_;
  std::vector<std::unique_ptr<Transaction>> txs_;
  std::vector<Splid> roles_;  // resolved on the first document

  std::map<std::string, Version> versions_;   // item -> current version
  std::vector<std::vector<ItemWrite>> writes_;  // per tx, undone at abort
  uint32_t seq_ = 0;
  History history_;
  std::vector<Progress> tx_;
  uint64_t release_gen_ = 0;
  bool any_victim_ = false;
  uint64_t steps_ = 0;
};

/// Runs the full DFS over one scenario. Creates the protocol named by
/// `options` (plus corruption hooks) and explores every interleaving.
EnumResult EnumerateSchedules(const Scenario& scenario,
                              const EnumOptions& options);

}  // namespace xtc::verify

#endif  // XTC_VERIFY_SCHEDULER_H_
