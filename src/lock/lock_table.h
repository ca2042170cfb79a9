// Generic lock table used by every protocol (paper §3.3: the lock manager
// as an exchangeable abstract data type).
//
// Resources are opaque byte strings (encoded SPLIDs for nodes, tagged
// SPLID+kind strings for edges — see lock/xml_protocol.h). Each
// transaction holds at most one lock per resource: requests on an
// already-held resource go through the protocol's conversion matrix
// (single lock per node rule, §2.3). Locks carry a duration class so the
// isolation levels of §4.3/§5.1 can be expressed:
//   kCommit    — held until ReleaseAll (long locks),
//   kOperation — released by EndOperation (short read locks of isolation
//                level "committed").
//
// Scalability: the table is sharded by resource hash; an uncontended
// request touches only one shard mutex, and a lock-set hit (below) none.
// The wait-for graph (deadlock detection) has its own global mutex
// touched only when a request actually blocks. Blocking requests enqueue
// FIFO per resource (conversions jump the queue); a cycle check runs on
// every (re-)block, so deadlocks are detected immediately. The requester
// that closes a cycle is the victim; it receives kDeadlock and must
// abort.
//
// Model-checker mode: a table with LockTableOptions::probe set takes the
// same blocked-request path — enqueue, blocker scan, wait-for edges,
// cycle check — and forks only where a thread would park on the shard
// condition variable: it leaves the queue and returns kWouldBlock, with
// its wait-for edges still registered, so tools/protoverify verifies the
// code the threaded engine runs.
//
// Lock sets: every DOM operation re-acquires the whole ancestor path of
// intention locks (§3.2), so most requests ask for a mode the transaction
// already holds. LockTable keeps one lock set per transaction — resource
// -> {Resource*, long_mode, effective, has_short} — as the only record of
// what that transaction holds; the resource shards keep only the holder
// lists. A set is a flat vector of entries whose keys live in one arena,
// with an open-addressing index over it; sets are pooled and reused, so
// a transaction's requests allocate nothing once its set has grown.
//  * Ownership rule: only the thread driving a transaction calls Lock,
//    EndOperation or ReleaseAll (and LocksHeldBy) for it. A transaction
//    may move to another thread (a server session changing workers) as
//    long as the hand-off orders its calls by happens-before. Under that
//    rule the set has one writer at a time and needs no mutex; nothing
//    else ever reads its entries, so it cannot go stale.
//  * Finding the set: a one-entry thread_local cache {table uid, tx,
//    set} answers when the set's atomic owner still equals tx (the uid
//    is a per-instance counter, never the table's address, which a later
//    table may reuse). Otherwise the tx-id-sharded registry — TxShard, a
//    mutex over tx -> set — finds it, and opens a pooled set on a
//    transaction's first grant.
//  * Lock() hashes the resource name once; the set probe, ShardIndex and
//    the shard's resource map all use that hash. It answers a request
//    from the set alone when the conversion matrix proves it a no-op:
//    Convert(effective, mode) == {effective, kNoMode}, and for kCommit
//    requests the same for long_mode (a short hold never stands in for a
//    commit lock). Such a hit bumps the set's own hit counter and takes
//    no mutex. Every other request takes the resource shard; its grant
//    writes the entry. A denied request changes neither table nor set.
//  * EndOperation compacts the set and rebuilds its index; ReleaseAll
//    walks the flat array, clears it keeping its capacity, and returns
//    the set to its registry shard's pool. Both lock only the resource
//    shards the set names, each once: O(locks held).
//  * Resources are recycled: a resource left with no holder and no
//    waiter moves its map node (and its holder and queue capacity) to a
//    bounded spare list of its shard, and the next new resource there is
//    re-keyed from it in place. Spare nodes are outside the map, so
//    NumLockedResources and SnapshotHolds count only held resources.
//  * Lock order: a tx-shard mutex and a resource-shard mutex are never
//    held at the same time.
//
// Cancellation: a waiter parked on a shard CV sleeps toward wait_timeout
// (10 s by default) — far too long for coordinator stop, server drain, or
// a disconnected client. CancelWaiters() (global, irreversible) and
// CancelTx() (per transaction, sticky until ReleaseAll) wake the shard
// CVs; affected requests — parked and future — return kCancelled, a
// non-retryable status whose only correct handling is to abort the
// transaction.

#ifndef XTC_LOCK_LOCK_TABLE_H_
#define XTC_LOCK_LOCK_TABLE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/deadlock_detector.h"
#include "lock/mode_table.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/mutex.h"
#include "util/relaxed_stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {

enum class LockDuration : uint8_t { kOperation = 0, kCommit = 1 };

/// Observation hook for the protocol model checker (tools/protoverify).
/// Installing one selects the table's model-checker mode (see the file
/// comment and LockTableOptions::probe). Callbacks fire from inside
/// Lock(), mostly while the resource shard mutex is held, so
/// implementations must not call back into the table.
class LockEventProbe {
 public:
  virtual ~LockEventProbe() = default;
  /// A request was granted (fresh lock or conversion), lock-set hits
  /// included. `effective` is the mode now held; `previous` the effective
  /// mode before the request (kNoMode for a fresh lock).
  virtual void OnGrant(uint64_t tx, std::string_view resource,
                       ModeId previous, ModeId effective,
                       LockDuration duration) = 0;
  /// The request had to wait on `blockers`, the cycle check found no
  /// cycle, and Lock() is about to return kWouldBlock.
  virtual void OnWouldBlock(uint64_t tx, std::string_view resource,
                            ModeId target,
                            const std::vector<uint64_t>& blockers) = 0;
  /// The request closed a wait-for cycle and `tx` was chosen as the
  /// victim (Lock() returns kDeadlock).
  virtual void OnDeadlockVictim(uint64_t tx, std::string_view resource,
                                ModeId target,
                                const std::vector<uint64_t>& blockers) = 0;
};

struct LockOutcome {
  Status status;
  /// Mode the transaction now holds on the resource (on success).
  ModeId resulting_mode = kNoMode;
  /// Non-kNoMode when the conversion demands locks on all direct
  /// children (Fig. 4 subscripted rules); the protocol performs them.
  ModeId children_mode = kNoMode;
};

struct LockTableStats {
  uint64_t requests = 0;
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t conversion_deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t conversions = 0;
  /// Requests denied with kCancelled (coordinator stop, server drain, or
  /// a per-transaction cancel on client disconnect).
  uint64_t cancelled = 0;
  /// Requests answered from the transaction's lock set without a
  /// resource-shard round trip (these still count as requests +
  /// immediate_grants).
  uint64_t cache_hits = 0;

  /// Calls f(name, unit, field) for every field, const or mutable as `s`
  /// — the one place a field's name is written (tamix/metrics.cc). The
  /// owner counts into a RelaxedStats block of this struct.
  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("requests", "count", s.requests);
    f("immediate_grants", "count", s.immediate_grants);
    f("waits", "count", s.waits);
    f("deadlocks", "count", s.deadlocks);
    f("conversion_deadlocks", "count", s.conversion_deadlocks);
    f("timeouts", "count", s.timeouts);
    f("conversions", "count", s.conversions);
    f("cancelled", "count", s.cancelled);
    f("cache_hits", "count", s.cache_hits);
  }
};

struct LockTableOptions {
  Duration wait_timeout = std::chrono::seconds(10);
  uint32_t shards = 32;
  /// When set, Lock() evaluates the "lock.timeout" and "lock.deadlock"
  /// fault points on entry (spurious timeout / forced victim status).
  FaultInjector* fault_injector = nullptr;
  /// When set, the table runs in the protocol model checker's
  /// deterministic single-threaded mode and reports to this probe: a
  /// request that would have to wait returns kWouldBlock instead of
  /// parking on the shard condition variable. The waiter's wait-for
  /// edges stay registered in the deadlock detector until the
  /// transaction is granted the resource, is victimized, or releases —
  /// exactly the window a blocked thread would occupy them — so a later
  /// request by another transaction that closes a cycle is victimized
  /// just as in threaded operation. FIFO fairness does not apply (the
  /// request leaves the queue); the caller decides retry order, which is
  /// precisely what a schedule enumerator wants to control. The threaded
  /// engine never sets this.
  LockEventProbe* probe = nullptr;
  /// Testing backdoor for protoverify --selftest: when false, the one
  /// cycle check of the blocked-request path is skipped, so real
  /// deadlocks go undetected (a probe table reports kWouldBlock forever).
  /// The checker must flag the resulting stall as an undetected
  /// deadlock; never disable this anywhere else.
  bool deadlock_detection = true;
};

/// One recorded deadlock (the victim's view at detection time).
struct DeadlockEvent {
  uint64_t victim = 0;
  std::string resource;        // where the victim was waiting
  std::string requested_mode;  // target mode of the victim
  bool conversion = false;     // lock-conversion deadlock (frequent case)
  size_t blockers = 0;         // transactions the victim waited for
  size_t waiting_transactions = 0;  // wait-for-graph size at detection
  bool injected = false;       // fault-injected victim (no real cycle)
  /// Why *this* transaction was chosen as the victim (post-mortem
  /// tooling reads this straight out of RecentDeadlocks()).
  std::string victim_reason;
};

class LockTable {
 public:
  LockTable(const ModeTable* modes, LockTableOptions options = {});
  ~LockTable();

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Acquires (or converts to) `mode` on `resource` for transaction `tx`.
  /// Blocks until granted, deadlock, or timeout.
  LockOutcome Lock(uint64_t tx, std::string_view resource, ModeId mode,
                   LockDuration duration);

  /// Releases this transaction's operation-duration locks (downgrading
  /// mixed-duration holds to their long component). In model-checker
  /// mode a transaction whose last request returned kWouldBlock stands
  /// for a parked thread, still inside its operation: the call is a
  /// no-op until the retry is granted.
  void EndOperation(uint64_t tx);

  /// Releases everything the transaction holds (commit/abort).
  void ReleaseAll(uint64_t tx);

  // --- Cancellation (shutdown/drain; see file comment) -----------------
  /// Shuts lock waiting down: every parked waiter is woken and returns
  /// kCancelled, and every future request is denied the same way. Used by
  /// the coordinator when the run stops (a waiter must not sleep toward
  /// the full wait_timeout with the testbed already joining) and by the
  /// server's graceful drain. Irreversible for the table's lifetime.
  void CancelWaiters();
  /// Cancels one transaction's current and future lock waits (server
  /// session teardown: the client vanished, its parked request must not
  /// keep the worker thread hostage). Sticky until ReleaseAll(tx).
  void CancelTx(uint64_t tx);
  /// Whether CancelWaiters() has been called.
  bool cancelling() const {
    return cancel_all_.load(std::memory_order_acquire);
  }

  const ModeTable& modes() const { return *modes_; }

  // Introspection (tests / reporting).
  /// One granted (tx, resource) hold. effective == Convert-closure of the
  /// duration components; see Held in the implementation.
  struct HoldSnapshot {
    uint64_t tx = 0;
    std::string resource;
    ModeId long_mode = kNoMode;
    ModeId short_mode = kNoMode;
    ModeId effective = kNoMode;
    bool operator==(const HoldSnapshot&) const = default;
  };
  /// Every hold in the table, sorted by (resource, tx) so the result is a
  /// deterministic fingerprint of the lock state (the model checker hashes
  /// it for schedule-state deduplication).
  std::vector<HoldSnapshot> SnapshotHolds() const;
  ModeId HeldMode(uint64_t tx, std::string_view resource) const;
  size_t NumLockedResources() const;
  /// Size of the transaction's lock set. Owner-only, like Lock (see the
  /// file comment): its callers are the thread driving `tx` and
  /// single-threaded tests.
  size_t LocksHeldBy(uint64_t tx) const;
  /// Residual wait-for-graph entries (must be 0 when the system is
  /// quiescent — every waiter clears its edges on grant/deadlock/timeout
  /// and ReleaseAll clears the rest).
  size_t NumWaitingTransactions() const;
  /// Exact, live sets' hits included (each set's counter is summed under
  /// its registry shard's mutex).
  LockTableStats GetStats() const;
  /// Zeroes every counter. A hit counted concurrently by a running
  /// transaction may survive the reset; call it between runs.
  void ResetStats();

  /// How many deadlock events the table keeps for analysis (paper §4.2:
  /// TaMix + XTCdeadlockDetector record the circumstances of each
  /// deadlock).
  static constexpr size_t kDeadlockLogCapacity = 256;
  /// The most recent deadlock events (oldest first).
  std::vector<DeadlockEvent> RecentDeadlocks() const;

 private:
  struct Held {
    ModeId long_mode = kNoMode;
    ModeId short_mode = kNoMode;
    ModeId effective = kNoMode;
  };

  struct Waiter {
    uint64_t tx;
    ModeId target;
    bool is_conversion;
  };

  struct Resource {
    /// The shard map's key views this name; a recycled Resource is
    /// re-keyed in place (GetOrCreate).
    std::string name;
    size_t hash = 0;
    std::vector<std::pair<uint64_t, Held>> granted;
    /// FIFO waiters (conversions at the front). A vector, not a deque:
    /// queues are short, and an empty std::deque still allocates.
    std::vector<Waiter*> queue;
  };

  /// A resource name with its hash, computed once per request.
  struct ResourceKey {
    std::string_view name;
    size_t hash = 0;
    bool operator==(const ResourceKey& other) const {
      return name == other.name;
    }
  };
  struct ResourceKeyHash {
    size_t operator()(const ResourceKey& key) const { return key.hash; }
  };
  using ResourceMap = std::unordered_map<ResourceKey, std::unique_ptr<Resource>,
                                         ResourceKeyHash>;

  /// Idle map nodes a shard keeps for reuse. A CLUSTER1 commit frees
  /// about 100 resources over 32 shards and the next one creates about
  /// as many. In 3 s perfbench runs a bound of 16 still dropped 0.4 % of
  /// the idle nodes on update-wal (3 threads); at 64, neither c1-local
  /// nor update-wal dropped one, and past warm-up no resource was
  /// allocated afresh.
  static constexpr size_t kSpareResources = 64;

  struct Shard {
    mutable Mutex mu;
    std::condition_variable cv;
    ResourceMap resources XTC_GUARDED_BY(mu);
    /// Nodes of resources that went idle, outside the map (see the file
    /// comment); at most kSpareResources.
    std::vector<ResourceMap::node_type> spare XTC_GUARDED_BY(mu);
  };

  /// What a grant leaves in the transaction's lock-set entry.
  struct Grant {
    Resource* resource = nullptr;
    ModeId long_mode = kNoMode;
    ModeId effective = kNoMode;
    bool has_short = false;
  };

  /// One transaction's lock set (lock_table.cc).
  class TxLocks;

  /// The registry of lock sets, sharded by transaction id, with the pool
  /// of released sets the shard's transactions reuse. A set lives until
  /// the table does (a thread cache may still name it). `hits` holds the
  /// hit counts of sets released since the last ResetStats. Aligned so
  /// adjacent shards never share a cache line.
  struct alignas(128) TxShard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<TxLocks>> live
        XTC_GUARDED_BY(mu);
    std::vector<std::unique_ptr<TxLocks>> pool XTC_GUARDED_BY(mu);
    uint64_t hits XTC_GUARDED_BY(mu) = 0;
  };

  /// The thread's one-entry set cache; valid for (uid_, tx) while the
  /// set's owner is tx.
  struct SetCache {
    uint64_t table = 0;
    uint64_t tx = 0;
    TxLocks* set = nullptr;
  };
  static SetCache& ThreadSetCache();

  TxShard& TxShardFor(uint64_t tx) const;
  /// The transaction's live set, or nullptr. Owner-only.
  TxLocks* FindSet(uint64_t tx) const;
  /// FindSet, opening a pooled (or new) set when there is none.
  TxLocks* OpenSet(uint64_t tx);
  /// Returns the transaction's emptied set to the pool.
  void CloseSet(uint64_t tx);

  static size_t HashKey(std::string_view resource) {
    return std::hash<std::string_view>{}(resource);
  }
  uint32_t ShardIndex(size_t hash) const {
    return static_cast<uint32_t>(hash % shards_.size());
  }

  /// True when CancelWaiters() fired or `tx` is individually cancelled.
  bool IsCancelled(uint64_t tx) const XTC_EXCLUDES(cancel_mu_);
  /// Wakes every shard CV so parked waiters re-check their cancel state.
  void WakeAllShards();

  /// The resource-shard path of Lock() (everything after the lock-set
  /// probe). On a grant, fills *granted for the lock-set entry.
  LockOutcome LockSlow(uint64_t tx, const ResourceKey& key, ModeId mode,
                       LockDuration duration, Grant* granted);
  /// Drops the transaction's grant on each resource in the set's
  /// `releases` list — or, with `short_only`, its short component —
  /// locking each shard once.
  void ReleaseInShards(uint64_t tx, TxLocks* set, bool short_only);

  /// Drops the transaction's wait-for edges. Takes graph_mu_, consistent
  /// with the shard-then-graph lock order.
  void ClearWaitEdges(uint64_t tx) XTC_EXCLUDES(graph_mu_);
  /// Model-checker bookkeeping for every successful grant, lock-set hits
  /// included (no-op without a probe): clears the transaction's wait-for
  /// edges (its pending retry succeeded) and fires the probe.
  void ProbeGrant(uint64_t tx, std::string_view resource, ModeId previous,
                  ModeId effective, LockDuration duration)
      XTC_EXCLUDES(graph_mu_);
  /// Logs a deadlock victim (injected or a real cycle) and counts it in
  /// deadlocks/conversion_deadlocks.
  void RecordDeadlock(DeadlockEvent event) XTC_REQUIRES(graph_mu_);

  // The following require the shard mutex (Resource objects themselves
  // are only reachable through Shard::resources, so helpers that take a
  // bare Resource* inherit the caller's shard lock).
  static Resource* GetOrCreate(Shard* shard, const ResourceKey& key)
      XTC_REQUIRES(shard->mu);
  static Held* FindHeld(Resource* r, uint64_t tx);
  bool CompatibleWithHolders(const Resource& r, uint64_t tx,
                             ModeId target) const;
  std::vector<uint64_t> BlockersOf(const Resource& r, uint64_t tx,
                                   ModeId target, bool is_conversion,
                                   const Waiter* self) const;
  static void RemoveWaiter(Resource* r, Waiter* w);
  static void EraseResourceIfIdle(Shard* shard, Resource* r)
      XTC_REQUIRES(shard->mu);
  /// Applies the grant to the holder entry and returns it.
  Held* GrantLocked(Resource* r, uint64_t tx, ModeId request, ModeId target,
                    LockDuration duration);

  const ModeTable* modes_;
  LockTableOptions options_;
  /// Distinguishes this table in the thread set caches.
  const uint64_t uid_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<TxShard>> tx_shards_;

  // Wait-for graph; only touched when a request blocks. Ordering: a
  // thread may take graph_mu_ while holding a shard mutex (Lock's block
  // path), never the reverse.
  mutable Mutex graph_mu_ XTC_ACQUIRED_AFTER();
  DeadlockDetector detector_ XTC_GUARDED_BY(graph_mu_);
  std::deque<DeadlockEvent> deadlock_log_ XTC_GUARDED_BY(graph_mu_);

  // Cancellation state. cancel_all_ is checked lock-free on the hot
  // path; the per-tx set is only consulted when num_cancelled_txs_ says
  // it is non-empty, so normal operation never touches cancel_mu_.
  // Ordering: cancel_mu_ may be taken while holding a shard mutex
  // (waiter re-check), so Cancel* must never hold cancel_mu_ while
  // taking a shard mutex.
  std::atomic<bool> cancel_all_{false};
  std::atomic<size_t> num_cancelled_txs_{0};
  mutable Mutex cancel_mu_ XTC_ACQUIRED_AFTER();
  std::unordered_set<uint64_t> cancelled_txs_ XTC_GUARDED_BY(cancel_mu_);

  // Statistics: bumped in place (relaxed) from any thread. cache_hits
  // stays zero here; GetStats adds the sets' and tx shards' hit counts.
  RelaxedStats<LockTableStats> stats_;
};

}  // namespace xtc

#endif  // XTC_LOCK_LOCK_TABLE_H_
