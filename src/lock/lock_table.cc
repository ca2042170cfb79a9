#include "lock/lock_table.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

#include "util/check.h"

namespace xtc {

namespace {

/// Converting `held` by `mode` changes nothing and owes no child locks.
bool IsNoOp(const ModeTable& modes, ModeId held, ModeId mode) {
  const Conversion conv = modes.Convert(held, mode);
  return conv.result == held && conv.children_mode == kNoMode;
}

/// Source of LockTable::uid_.
std::atomic<uint64_t> next_table_uid{1};

}  // namespace

/// One transaction's lock set: a flat vector of entries, their keys in
/// one arena, and a power-of-two open-addressing index over the vector.
/// Only the thread driving `owner` touches it (see the file comment);
/// `owner` and `hits` are atomic so a stale thread cache and GetStats
/// may read them meanwhile. Aligned so two threads' sets never share a
/// cache line: every hit writes `hits`.
class alignas(128) LockTable::TxLocks {
 public:
  /// The owner of a pooled set; no transaction may use this id.
  static constexpr uint64_t kPooled = ~uint64_t{0};
  /// A set that held more entries than this gives its memory back when
  /// released instead of keeping it for the next transaction.
  static constexpr size_t kShrinkAbove = 4096;

  struct Entry {
    size_t hash;
    uint32_t key_offset;
    uint32_t key_size;
    Resource* resource;
    uint32_t shard;
    ModeId long_mode;
    ModeId effective;
    bool has_short;
  };

  std::atomic<uint64_t> owner{kPooled};
  /// Lock-set hits; the owner is the one writer, so a relaxed load and
  /// store count without a locked instruction.
  std::atomic<uint64_t> hits{0};

  std::vector<Entry> entries;
  /// What ReleaseInShards works through: (shard, resource) per hold.
  std::vector<std::pair<uint32_t, Resource*>> releases;
  /// ReleaseInShards' counting-sort buffers, kept with the set.
  std::vector<uint32_t> shard_end;
  std::vector<Resource*> grouped;

  void CountHit() {
    hits.store(hits.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  Entry* Find(size_t hash, std::string_view key) {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return nullptr;
      Entry& e = entries[slot - 1];
      if (e.hash == hash && KeyOf(e) == key) return &e;
    }
  }

  void Add(size_t hash, std::string_view key, uint32_t shard,
           const Grant& g) {
    if ((entries.size() + 1) * 2 > slots_.size()) {
      Reindex(std::max<size_t>(16, slots_.size() * 2));
    }
    entries.push_back({hash, static_cast<uint32_t>(keys_.size()),
                       static_cast<uint32_t>(key.size()), g.resource, shard,
                       g.long_mode, g.effective, g.has_short});
    keys_.append(key);
    Place(entries.size() - 1);
  }

  /// EndOperation's transition: effective := long, pure-short entries
  /// dropped. Lists every entry that had a short component in
  /// `releases`, and compacts the vector, its keys and the index.
  void DropShorts() {
    releases.clear();
    size_t kept = 0;
    uint32_t key_end = 0;
    for (Entry e : entries) {
      if (e.has_short) {
        releases.emplace_back(e.shard, e.resource);
        if (e.long_mode == kNoMode) continue;
        e.effective = e.long_mode;
        e.has_short = false;
      }
      std::memmove(keys_.data() + key_end, keys_.data() + e.key_offset,
                   e.key_size);
      e.key_offset = key_end;
      key_end += e.key_size;
      entries[kept++] = e;
    }
    if (releases.empty()) return;
    entries.resize(kept);
    keys_.resize(key_end);
    Reindex(slots_.size());
  }

  /// Lists every entry in `releases` and empties the set, keeping its
  /// capacity.
  void Clear() {
    releases.clear();
    for (const Entry& e : entries) releases.emplace_back(e.shard, e.resource);
    entries.clear();
    keys_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

  /// Gives the memory of a set that grew past kShrinkAbove back.
  void ShrinkIfLarge() {
    if (entries.capacity() <= kShrinkAbove) return;
    entries = {};
    releases = {};
    grouped = {};
    keys_ = {};
    slots_ = {};
  }

 private:
  std::string_view KeyOf(const Entry& e) const {
    return std::string_view(keys_.data() + e.key_offset, e.key_size);
  }

  void Place(size_t index) {
    const size_t mask = slots_.size() - 1;
    size_t i = entries[index].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(index + 1);
  }

  void Reindex(size_t capacity) {
    slots_.assign(capacity, 0);
    for (size_t i = 0; i < entries.size(); ++i) Place(i);
  }

  std::string keys_;
  /// Entry index + 1 per slot; 0 is empty. Empty or a power of two, at
  /// most half full.
  std::vector<uint32_t> slots_;
};

LockTable::LockTable(const ModeTable* modes, LockTableOptions options)
    : modes_(modes),
      options_(options),
      uid_(next_table_uid.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  tx_shards_.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    tx_shards_.push_back(std::make_unique<TxShard>());
  }
}

LockTable::~LockTable() = default;

LockTable::TxShard& LockTable::TxShardFor(uint64_t tx) const {
  return *tx_shards_[std::hash<uint64_t>{}(tx) % tx_shards_.size()];
}

LockTable::SetCache& LockTable::ThreadSetCache() {
  thread_local SetCache cache;
  return cache;
}

LockTable::TxLocks* LockTable::FindSet(uint64_t tx) const {
  SetCache& cache = ThreadSetCache();
  if (cache.table == uid_ && cache.tx == tx &&
      cache.set->owner.load(std::memory_order_relaxed) == tx) {
    return cache.set;
  }
  TxShard& ts = TxShardFor(tx);
  MutexLock guard(ts.mu);
  auto it = ts.live.find(tx);
  if (it == ts.live.end()) return nullptr;
  cache = {uid_, tx, it->second.get()};
  return it->second.get();
}

LockTable::TxLocks* LockTable::OpenSet(uint64_t tx) {
  XTC_CHECK(tx != TxLocks::kPooled, "transaction id reserved for lock sets");
  TxShard& ts = TxShardFor(tx);
  MutexLock guard(ts.mu);
  std::unique_ptr<TxLocks>& set = ts.live[tx];
  if (set == nullptr) {
    if (ts.pool.empty()) {
      set = std::make_unique<TxLocks>();
    } else {
      set = std::move(ts.pool.back());
      ts.pool.pop_back();
    }
    set->owner.store(tx, std::memory_order_relaxed);
  }
  ThreadSetCache() = {uid_, tx, set.get()};
  return set.get();
}

void LockTable::CloseSet(uint64_t tx) {
  TxShard& ts = TxShardFor(tx);
  MutexLock guard(ts.mu);
  auto it = ts.live.find(tx);
  TxLocks& set = *it->second;
  set.owner.store(TxLocks::kPooled, std::memory_order_relaxed);
  ts.hits += set.hits.load(std::memory_order_relaxed);
  set.hits.store(0, std::memory_order_relaxed);
  ts.pool.push_back(std::move(it->second));
  ts.live.erase(it);
}

LockTable::Resource* LockTable::GetOrCreate(Shard* shard,
                                            const ResourceKey& key) {
  auto it = shard->resources.find(key);
  if (it != shard->resources.end()) return it->second.get();
  if (shard->spare.empty()) {
    auto r = std::make_unique<Resource>();
    r->name.assign(key.name);
    r->hash = key.hash;
    Resource* raw = r.get();
    shard->resources.emplace(ResourceKey{raw->name, key.hash}, std::move(r));
    return raw;
  }
  // Re-key an idle resource's node: no allocation, and its holder list
  // and queue keep their capacity.
  ResourceMap::node_type node = std::move(shard->spare.back());
  shard->spare.pop_back();
  Resource* r = node.mapped().get();
  r->name.assign(key.name);
  r->hash = key.hash;
  node.key() = ResourceKey{r->name, key.hash};
  shard->resources.insert(std::move(node));
  return r;
}

LockTable::Held* LockTable::FindHeld(Resource* r, uint64_t tx) {
  for (auto& [id, held] : r->granted) {
    if (id == tx) return &held;
  }
  return nullptr;
}

bool LockTable::CompatibleWithHolders(const Resource& r, uint64_t tx,
                                      ModeId target) const {
  for (const auto& [id, held] : r.granted) {
    if (id == tx) continue;
    if (!modes_->Compatible(held.effective, target)) return false;
  }
  return true;
}

std::vector<uint64_t> LockTable::BlockersOf(const Resource& r, uint64_t tx,
                                            ModeId target, bool is_conversion,
                                            const Waiter* self) const {
  std::vector<uint64_t> blockers;
  for (const auto& [id, held] : r.granted) {
    if (id == tx) continue;
    if (!modes_->Compatible(held.effective, target)) blockers.push_back(id);
  }
  if (!is_conversion) {
    // FIFO fairness: a fresh request also waits for earlier waiters.
    for (const Waiter* w : r.queue) {
      if (w == self) break;
      if (w->tx != tx) blockers.push_back(w->tx);
    }
  }
  return blockers;
}

void LockTable::RemoveWaiter(Resource* r, Waiter* w) {
  auto it = std::find(r->queue.begin(), r->queue.end(), w);
  if (it != r->queue.end()) r->queue.erase(it);
}

void LockTable::EraseResourceIfIdle(Shard* shard, Resource* r) {
  if (!r->granted.empty() || !r->queue.empty()) return;
  ResourceMap::node_type node =
      shard->resources.extract(ResourceKey{r->name, r->hash});
  if (shard->spare.size() < kSpareResources) {
    shard->spare.push_back(std::move(node));
  }
}

LockTable::Held* LockTable::GrantLocked(Resource* r, uint64_t tx,
                                        ModeId request, ModeId target,
                                        LockDuration duration) {
  Held* held = FindHeld(r, tx);
  if (held == nullptr) {
    r->granted.push_back({tx, Held{}});
    held = &r->granted.back().second;
  }
  if (duration == LockDuration::kCommit) {
    held->long_mode = modes_->Convert(held->long_mode, request).result;
  } else {
    held->short_mode = modes_->Convert(held->short_mode, request).result;
  }
  held->effective = target;
  return held;
}

LockOutcome LockTable::Lock(uint64_t tx, std::string_view resource,
                            ModeId mode, LockDuration duration) {
  // Cancellation outranks the lock set: a cancelled transaction must see
  // kCancelled on its next request even when its set could answer it.
  // The check is one acquire load (plus a counter load) in normal
  // operation; cancel_mu_ is only touched while sessions are actually
  // being torn down.
  if (IsCancelled(tx)) {
    stats_.Add(&LockTableStats::requests);
    stats_.Add(&LockTableStats::cancelled);
    return {Status::Cancelled(), kNoMode, kNoMode};
  }
  // No-op fast path: the conversion matrix proves the request changes
  // nothing the transaction holds — the table's own "already strong
  // enough" early exit. kCommit requests also need the long component to
  // cover the mode, or EndOperation would drop a lock the caller was
  // promised until commit; with that, the duration bookkeeping the early
  // exit does is moot (a kOperation request is covered at least until
  // the next EndOperation).
  // A hit takes no mutex and touches no resource shard and no
  // fault-injection point (those model denials of real table requests);
  // GetStats folds the sets' hit counters into requests +
  // immediate_grants.
  const ResourceKey key{resource, HashKey(resource)};
  TxLocks* set = FindSet(tx);
  TxLocks::Entry* entry =
      set == nullptr ? nullptr : set->Find(key.hash, resource);
  if (entry != nullptr && IsNoOp(*modes_, entry->effective, mode) &&
      (duration != LockDuration::kCommit ||
       entry->long_mode == entry->effective ||
       IsNoOp(*modes_, entry->long_mode, mode))) {
    set->CountHit();
    ProbeGrant(tx, resource, entry->effective, entry->effective, duration);
    return {Status::OK(), entry->effective, kNoMode};
  }

  stats_.Add(&LockTableStats::requests);
  Grant granted;
  LockOutcome out = LockSlow(tx, key, mode, duration, &granted);
  // A denied request changed nothing in the table, so the set stays too.
  if (!out.status.ok()) return out;
  // Nothing but this thread touched the set meanwhile, so `entry` is
  // still the resource's entry.
  if (entry != nullptr) {
    entry->long_mode = granted.long_mode;
    entry->effective = granted.effective;
    entry->has_short = granted.has_short;
  } else {
    if (set == nullptr) set = OpenSet(tx);
    set->Add(key.hash, resource, ShardIndex(key.hash), granted);
  }
  return out;
}

LockOutcome LockTable::LockSlow(uint64_t tx, const ResourceKey& key,
                                ModeId mode, LockDuration duration,
                                Grant* granted) {
  const std::string_view resource = key.name;
  if (options_.fault_injector != nullptr) {
    // Injection happens before any table state changes: the request is
    // denied exactly as a real timeout/victim denial would be, and the
    // caller must abort (releasing whatever it already holds).
    if (options_.fault_injector->ShouldFail(fault_points::kLockTimeout)) {
      stats_.Add(&LockTableStats::timeouts);
      return {Status::LockTimeout("injected lock timeout"), kNoMode, kNoMode};
    }
    if (options_.fault_injector->ShouldFail(fault_points::kLockDeadlock)) {
      MutexLock g(graph_mu_);
      RecordDeadlock({.victim = tx,
                      .resource = std::string(resource),
                      .requested_mode = std::string(modes_->Name(mode)),
                      .injected = true,
                      .victim_reason = "injected fault: victim chosen by the "
                                       "fault plan, no real cycle existed"});
      return {Status::Deadlock("injected deadlock victim"), kNoMode, kNoMode};
    }
  }
  Shard& shard = *shards_[ShardIndex(key.hash)];
  MutexLock guard(shard.mu);

  Resource* r = GetOrCreate(&shard, key);
  Held* held = FindHeld(r, tx);
  const bool is_conversion = (held != nullptr);
  // Read before any wait: other holders pushed onto r->granted meanwhile
  // may reallocate it and leave `held` dangling.
  const ModeId previous = is_conversion ? held->effective : kNoMode;
  auto grant = [&](const Held& h) {
    *granted = {r, h.long_mode, h.effective, h.short_mode != kNoMode};
    ProbeGrant(tx, resource, previous, h.effective, duration);
  };

  ModeId target = mode;
  ModeId children_mode = kNoMode;
  if (is_conversion) {
    Conversion conv = modes_->Convert(held->effective, mode);
    target = conv.result;
    children_mode = conv.children_mode;
    if (target == held->effective) {
      // Already strong enough; only the duration bookkeeping may change.
      // The conversion's child-lock side effect still applies: e.g. a CX
      // holder requesting LR keeps CX but owes NR on every child (Fig. 4
      // CX_NR), so children_mode must reach the caller even though the
      // node grant itself is a no-op.
      if (duration == LockDuration::kCommit) {
        held->long_mode = modes_->Convert(held->long_mode, mode).result;
      } else {
        held->short_mode = modes_->Convert(held->short_mode, mode).result;
      }
      stats_.Add(&LockTableStats::immediate_grants);
      grant(*held);
      return {Status::OK(), held->effective, children_mode};
    }
    stats_.Add(&LockTableStats::conversions);
  }

  // Fast path.
  if ((is_conversion || r->queue.empty()) &&
      CompatibleWithHolders(*r, tx, target)) {
    grant(*GrantLocked(r, tx, mode, target, duration));
    stats_.Add(&LockTableStats::immediate_grants);
    return {Status::OK(), target, children_mode};
  }

  // Slow path: every request that must wait — threaded or model checker —
  // enqueues, scans for blockers, sets its wait-for edges and runs the one
  // cycle check. The only fork is where a thread would park on the CV.
  stats_.Add(&LockTableStats::waits);
  Waiter waiter{tx, target, is_conversion};
  if (is_conversion) {
    r->queue.insert(r->queue.begin(), &waiter);  // conversions jump the queue
  } else {
    r->queue.push_back(&waiter);
  }

  Status denied;
  const TimePoint deadline = Now() + options_.wait_timeout;
  for (;;) {
    // Re-checked on every wakeup: CancelWaiters/CancelTx set their flag
    // and then notify every shard CV, so a parked waiter lands here
    // within one scheduler quantum instead of sleeping toward the full
    // wait_timeout.
    if (IsCancelled(tx)) {
      ClearWaitEdges(tx);
      stats_.Add(&LockTableStats::cancelled);
      denied = Status::Cancelled();
      break;
    }
    std::vector<uint64_t> blockers =
        BlockersOf(*r, tx, target, is_conversion, &waiter);
    if (blockers.empty()) {
      grant(*GrantLocked(r, tx, mode, target, duration));
      RemoveWaiter(r, &waiter);
      ClearWaitEdges(tx);
      shard.cv.notify_all();  // our dequeue may unblock fairness-waiters
      return {Status::OK(), target, children_mode};
    }

    bool victim = false;
    {
      MutexLock g(graph_mu_);
      detector_.SetEdges(tx, blockers);
      if (options_.deadlock_detection && detector_.HasCycleFrom(tx)) {
        RecordDeadlock(
            {.victim = tx,
             .resource = r->name,
             .requested_mode = std::string(modes_->Name(target)),
             .conversion = is_conversion,
             .blockers = blockers.size(),
             .waiting_transactions = detector_.num_waiters(),
             .victim_reason =
                 std::string("cycle closer: this transaction's new wait "
                             "edge completed the cycle, and the closer "
                             "aborts (") +
                 (is_conversion ? "conversion wait)" : "fresh-request wait)")});
        // Cleared under the same graph_mu_ hold, so no other waiter sees
        // this cycle and picks a second victim.
        detector_.ClearEdges(tx);
        victim = true;
      }
    }
    if (victim) {
      if (options_.probe != nullptr) {
        options_.probe->OnDeadlockVictim(tx, resource, target, blockers);
      }
      denied = Status::Deadlock();
      break;
    }

    if (options_.probe != nullptr) {
      // Model checker: the caller owns retry scheduling. The request
      // leaves the queue but keeps its wait-for edges, as a parked thread
      // would, until it is granted, victimized, or released.
      options_.probe->OnWouldBlock(tx, resource, target, blockers);
      denied = Status::WouldBlock();
      break;
    }

    // The wait goes through the guard's native handle: the analysis
    // cannot see through condition_variable, but the net lock state is
    // unchanged (wait reacquires before returning).
    if (shard.cv.wait_until(guard.native(), deadline) ==
        std::cv_status::timeout) {
      // One last re-check: we may have become grantable at the deadline.
      if (BlockersOf(*r, tx, target, is_conversion, &waiter).empty()) {
        continue;
      }
      ClearWaitEdges(tx);
      stats_.Add(&LockTableStats::timeouts);
      denied = Status::LockTimeout();
      break;
    }
  }
  // Every exit but a grant leaves the queue; our dequeue may unblock
  // fairness-waiters.
  RemoveWaiter(r, &waiter);
  EraseResourceIfIdle(&shard, r);
  shard.cv.notify_all();
  return {std::move(denied), kNoMode, kNoMode};
}

bool LockTable::IsCancelled(uint64_t tx) const {
  if (cancel_all_.load(std::memory_order_acquire)) return true;
  if (num_cancelled_txs_.load(std::memory_order_acquire) == 0) return false;
  MutexLock g(cancel_mu_);
  return cancelled_txs_.count(tx) != 0;
}

void LockTable::WakeAllShards() {
  // The notify runs under each shard mutex so it cannot slip between a
  // waiter's cancel re-check and its cv.wait (the missed-wakeup race):
  // any waiter not yet parked still holds the shard mutex and will see
  // the flag before it sleeps.
  for (auto& shard_ptr : shards_) {
    MutexLock guard(shard_ptr->mu);
    shard_ptr->cv.notify_all();
  }
}

void LockTable::CancelWaiters() {
  cancel_all_.store(true, std::memory_order_release);
  WakeAllShards();
}

void LockTable::CancelTx(uint64_t tx) {
  {
    MutexLock g(cancel_mu_);
    if (!cancelled_txs_.insert(tx).second) return;  // already cancelled
  }
  num_cancelled_txs_.fetch_add(1, std::memory_order_release);
  WakeAllShards();
}

void LockTable::ClearWaitEdges(uint64_t tx) {
  MutexLock g(graph_mu_);
  detector_.ClearEdges(tx);
}

void LockTable::ProbeGrant(uint64_t tx, std::string_view resource,
                           ModeId previous, ModeId effective,
                           LockDuration duration) {
  if (options_.probe == nullptr) return;
  ClearWaitEdges(tx);
  options_.probe->OnGrant(tx, resource, previous, effective, duration);
}

void LockTable::RecordDeadlock(DeadlockEvent event) {
  stats_.Add(&LockTableStats::deadlocks);
  if (event.conversion) stats_.Add(&LockTableStats::conversion_deadlocks);
  deadlock_log_.push_back(std::move(event));
  if (deadlock_log_.size() > kDeadlockLogCapacity) deadlock_log_.pop_front();
}

void LockTable::ReleaseInShards(uint64_t tx, TxLocks* set,
                                bool short_only) {
  // Group the holds by shard with a counting sort: shard indexes are
  // small, and a comparison sort's mispredicted branches on ~100 random
  // keys cost about 4 of the 25 µs a CLUSTER1 commit's release took
  // (4-vCPU VM). Afterwards shard s's holds are grouped[end[s - 1] ..
  // end[s]), with end[-1] taken as 0. The buffers belong to the set, so
  // a release allocates nothing once the set has grown.
  const auto& holds = set->releases;
  std::vector<uint32_t>& end = set->shard_end;
  end.assign(shards_.size() + 1, 0);
  for (const auto& h : holds) ++end[h.first + 1];
  std::partial_sum(end.begin(), end.end(), end.begin());
  std::vector<Resource*>& grouped = set->grouped;
  grouped.resize(holds.size());
  for (const auto& [index, r] : holds) grouped[end[index]++] = r;

  uint32_t begin = 0;
  for (size_t s = 0; s < shards_.size(); begin = end[s], ++s) {
    if (begin == end[s]) continue;
    Shard& shard = *shards_[s];
    MutexLock guard(shard.mu);
    for (uint32_t i = begin; i < end[s]; ++i) {
      Resource* r = grouped[i];
      auto git = std::find_if(r->granted.begin(), r->granted.end(),
                              [tx](const auto& p) { return p.first == tx; });
      // The set and the holder lists change together; a miss means one
      // side was updated without the other.
      XTC_CHECK(git != r->granted.end(),
                "lock set names a resource the transaction does not hold");
      Held& h = git->second;
      if (short_only && h.long_mode != kNoMode) {
        h.short_mode = kNoMode;
        h.effective = h.long_mode;
      } else {
        r->granted.erase(git);
        EraseResourceIfIdle(&shard, r);
      }
    }
    shard.cv.notify_all();
  }
}

void LockTable::EndOperation(uint64_t tx) {
  if (options_.probe != nullptr) {
    MutexLock g(graph_mu_);
    if (detector_.IsWaiting(tx)) return;  // parked: the operation goes on
  }
  // The table's transition, applied to the set first.
  TxLocks* set = FindSet(tx);
  if (set == nullptr) return;
  set->DropShorts();
  if (!set->releases.empty()) ReleaseInShards(tx, set, /*short_only=*/true);
}

void LockTable::ReleaseAll(uint64_t tx) {
  if (TxLocks* set = FindSet(tx); set != nullptr) {
    set->Clear();
    ReleaseInShards(tx, set, /*short_only=*/false);
    set->ShrinkIfLarge();
    CloseSet(tx);
  }
  ClearWaitEdges(tx);
  // The transaction is gone; a later run may reuse its id, so the sticky
  // per-tx cancel must not outlive it.
  if (num_cancelled_txs_.load(std::memory_order_acquire) != 0) {
    MutexLock g(cancel_mu_);
    if (cancelled_txs_.erase(tx) != 0) {
      num_cancelled_txs_.fetch_sub(1, std::memory_order_release);
    }
  }
}

std::vector<LockTable::HoldSnapshot> LockTable::SnapshotHolds() const {
  std::vector<HoldSnapshot> out;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    for (const auto& [key, r] : shard->resources) {
      for (const auto& [id, held] : r->granted) {
        out.push_back(HoldSnapshot{id, std::string(key.name), held.long_mode,
                                   held.short_mode, held.effective});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HoldSnapshot& a, const HoldSnapshot& b) {
              if (a.resource != b.resource) return a.resource < b.resource;
              return a.tx < b.tx;
            });
  return out;
}

ModeId LockTable::HeldMode(uint64_t tx, std::string_view resource) const {
  const size_t hash = HashKey(resource);
  Shard& shard = *shards_[ShardIndex(hash)];
  MutexLock guard(shard.mu);
  auto it = shard.resources.find(ResourceKey{resource, hash});
  if (it == shard.resources.end()) return kNoMode;
  for (const auto& [id, held] : it->second->granted) {
    if (id == tx) return held.effective;
  }
  return kNoMode;
}

size_t LockTable::NumLockedResources() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mu);
    total += shard->resources.size();
  }
  return total;
}

size_t LockTable::NumWaitingTransactions() const {
  MutexLock g(graph_mu_);
  return detector_.num_waiters();
}

size_t LockTable::LocksHeldBy(uint64_t tx) const {
  const TxLocks* set = FindSet(tx);
  return set == nullptr ? 0 : set->entries.size();
}

LockTableStats LockTable::GetStats() const {
  LockTableStats s = stats_.Load();
  for (const auto& ts : tx_shards_) {
    MutexLock guard(ts->mu);
    s.cache_hits += ts->hits;
    for (const auto& [tx, set] : ts->live) {
      s.cache_hits += set->hits.load(std::memory_order_relaxed);
    }
  }
  // A lock-set hit is an immediately granted request that never reached
  // the global counters.
  s.requests += s.cache_hits;
  s.immediate_grants += s.cache_hits;
  return s;
}

std::vector<DeadlockEvent> LockTable::RecentDeadlocks() const {
  MutexLock g(graph_mu_);
  return std::vector<DeadlockEvent>(deadlock_log_.begin(),
                                    deadlock_log_.end());
}

void LockTable::ResetStats() {
  stats_.Reset();
  for (const auto& ts : tx_shards_) {
    MutexLock guard(ts->mu);
    ts->hits = 0;
    for (const auto& [tx, set] : ts->live) {
      set->hits.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace xtc
