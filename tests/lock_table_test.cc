// Lock table tests: grants, conflicts, conversions, durations, blocking,
// deadlock detection, timeouts, and the lock sets' ownership rules.

#include "lock/lock_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <string>
#include <thread>
#include <vector>

namespace xtc {
namespace {

/// Shared fixture: the classic IS/IX/S/X table.
class LockTableTest : public ::testing::Test {
 protected:
  LockTableTest() {
    is_ = modes_.AddMode("IS");
    ix_ = modes_.AddMode("IX");
    s_ = modes_.AddMode("S");
    x_ = modes_.AddMode("X");
    modes_.SetCompatRow(is_, "+ + + -");
    modes_.SetCompatRow(ix_, "+ + - -");
    modes_.SetCompatRow(s_, "+ - + -");
    modes_.SetCompatRow(x_, "- - - -");
    EXPECT_TRUE(modes_.DeriveMissingConversions().ok());
    LockTableOptions options;
    options.wait_timeout = Millis(300);
    table_ = std::make_unique<LockTable>(&modes_, options);
  }

  ModeTable modes_;
  ModeId is_, ix_, s_, x_;
  std::unique_ptr<LockTable> table_;
};

TEST_F(LockTableTest, CompatibleGrantsDoNotBlock) {
  EXPECT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(table_->Lock(2, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(table_->Lock(3, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->HeldMode(1, "r"), s_);
  EXPECT_EQ(table_->NumLockedResources(), 1u);
  EXPECT_EQ(table_->LocksHeldBy(1), 1u);
}

TEST_F(LockTableTest, ReacquireSameModeIsCheap) {
  EXPECT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->LocksHeldBy(1), 1u);
  LockTableStats stats = table_->GetStats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.immediate_grants, 2u);
  EXPECT_EQ(stats.waits, 0u);
}

TEST_F(LockTableTest, ConversionUpgradesHeldMode) {
  EXPECT_TRUE(table_->Lock(1, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->HeldMode(1, "r"), x_);
  EXPECT_EQ(table_->GetStats().conversions, 1u);
}

TEST_F(LockTableTest, IncompatibleRequestTimesOut) {
  EXPECT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  auto out = table_->Lock(2, "r", s_, LockDuration::kCommit);
  EXPECT_EQ(out.status.code(), StatusCode::kLockTimeout);
  EXPECT_EQ(table_->GetStats().timeouts, 1u);
}

TEST_F(LockTableTest, ReleaseAllWakesWaiters) {
  ASSERT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&]() {
    auto out = table_->Lock(2, "r", s_, LockDuration::kCommit);
    if (out.status.ok()) granted = true;
  });
  SleepFor(Millis(30));
  EXPECT_FALSE(granted.load());
  table_->ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(table_->HeldMode(2, "r"), s_);
  EXPECT_EQ(table_->HeldMode(1, "r"), kNoMode);
}

TEST_F(LockTableTest, EndOperationReleasesOnlyShortLocks) {
  ASSERT_TRUE(table_->Lock(1, "short", s_, LockDuration::kOperation).status.ok());
  ASSERT_TRUE(table_->Lock(1, "long", s_, LockDuration::kCommit).status.ok());
  table_->EndOperation(1);
  EXPECT_EQ(table_->HeldMode(1, "short"), kNoMode);
  EXPECT_EQ(table_->HeldMode(1, "long"), s_);
  EXPECT_EQ(table_->LocksHeldBy(1), 1u);
}

TEST_F(LockTableTest, MixedDurationDowngradesToLongComponent) {
  // Short S + long X: after EndOperation the X must remain.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kOperation).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->HeldMode(1, "r"), x_);
  table_->EndOperation(1);
  EXPECT_EQ(table_->HeldMode(1, "r"), x_);
  // Long S + short X: after EndOperation only S remains and readers can
  // enter again.
  ASSERT_TRUE(table_->Lock(2, "q", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "q", x_, LockDuration::kOperation).status.ok());
  EXPECT_EQ(table_->HeldMode(2, "q"), x_);
  table_->EndOperation(2);
  EXPECT_EQ(table_->HeldMode(2, "q"), s_);
  EXPECT_TRUE(table_->Lock(3, "q", s_, LockDuration::kCommit).status.ok());
}

TEST_F(LockTableTest, TwoTransactionConversionDeadlockDetected) {
  // Both hold S and both request X: the second requester closes the
  // cycle and becomes the victim.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "r", s_, LockDuration::kCommit).status.ok());
  std::atomic<int> t1_result{-1};
  std::thread t1([&]() {
    auto out = table_->Lock(1, "r", x_, LockDuration::kCommit);
    t1_result = out.status.ok() ? 1 : 0;
    if (out.status.ok()) table_->ReleaseAll(1);
  });
  SleepFor(Millis(50));  // let t1 block on t2's S
  auto out2 = table_->Lock(2, "r", x_, LockDuration::kCommit);
  EXPECT_EQ(out2.status.code(), StatusCode::kDeadlock);
  table_->ReleaseAll(2);  // victim aborts; t1 proceeds
  t1.join();
  EXPECT_EQ(t1_result.load(), 1);
  LockTableStats stats = table_->GetStats();
  EXPECT_EQ(stats.deadlocks, 1u);
  EXPECT_EQ(stats.conversion_deadlocks, 1u);
}

TEST_F(LockTableTest, CrossResourceDeadlockDetected) {
  // T1 holds a, T2 holds b; T1 requests b, T2 requests a.
  ASSERT_TRUE(table_->Lock(1, "a", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "b", x_, LockDuration::kCommit).status.ok());
  std::thread t1([&]() {
    auto out = table_->Lock(1, "b", x_, LockDuration::kCommit);
    if (out.status.ok()) table_->ReleaseAll(1);
  });
  SleepFor(Millis(50));
  auto out2 = table_->Lock(2, "a", x_, LockDuration::kCommit);
  EXPECT_EQ(out2.status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(table_->GetStats().conversion_deadlocks, 0u);
  table_->ReleaseAll(2);
  t1.join();
  table_->ReleaseAll(1);
}

TEST_F(LockTableTest, FifoFairnessPreventsReaderStarvation) {
  // Holder S; writer X queues; a later reader must wait behind the
  // writer instead of overtaking it forever.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  std::atomic<bool> writer_granted{false}, reader_granted{false};
  std::thread writer([&]() {
    auto out = table_->Lock(2, "r", x_, LockDuration::kCommit);
    if (out.status.ok()) {
      writer_granted = true;
      SleepFor(Millis(20));
      table_->ReleaseAll(2);
    }
  });
  SleepFor(Millis(30));
  std::thread reader([&]() {
    auto out = table_->Lock(3, "r", s_, LockDuration::kCommit);
    if (out.status.ok()) {
      // The writer must have run first.
      EXPECT_TRUE(writer_granted.load());
      reader_granted = true;
    }
  });
  SleepFor(Millis(30));
  EXPECT_FALSE(reader_granted.load());
  table_->ReleaseAll(1);  // unblocks writer, then reader
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_granted.load());
  EXPECT_TRUE(reader_granted.load());
}

TEST_F(LockTableTest, ManyThreadsSharedExclusiveStress) {
  constexpr int kThreads = 16;
  constexpr int kRounds = 200;
  std::atomic<int> in_exclusive{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        uint64_t tx = static_cast<uint64_t>(t * kRounds + r + 1000);
        bool exclusive = (r % 5 == 0);
        auto out = table_->Lock(tx, "hot", exclusive ? x_ : s_,
                                LockDuration::kCommit);
        if (out.status.ok()) {
          if (exclusive) {
            if (in_exclusive.fetch_add(1) != 0) ++violations;
            in_exclusive.fetch_sub(1);
          }
          table_->ReleaseAll(tx);
        } else {
          table_->ReleaseAll(tx);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(table_->NumLockedResources(), 0u);
}

TEST_F(LockTableTest, ThreeTransactionCycleVictimIsTheCycleCloser) {
  // T1 holds a, T2 holds b, T3 holds c; T1 waits for b, T2 waits for c,
  // and T3's request for a closes the 3-cycle — T3 must be the victim,
  // and after everyone unwinds the wait-for graph must be empty.
  ASSERT_TRUE(table_->Lock(1, "a", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "b", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(3, "c", x_, LockDuration::kCommit).status.ok());
  std::atomic<int> granted{0};
  std::thread t1([&]() {
    auto out = table_->Lock(1, "b", x_, LockDuration::kCommit);
    if (out.status.ok()) ++granted;
    table_->ReleaseAll(1);
  });
  SleepFor(Millis(50));  // T1 blocked on T2
  std::thread t2([&]() {
    auto out = table_->Lock(2, "c", x_, LockDuration::kCommit);
    if (out.status.ok()) ++granted;
    table_->ReleaseAll(2);
  });
  SleepFor(Millis(50));  // T2 blocked on T3
  auto out3 = table_->Lock(3, "a", x_, LockDuration::kCommit);
  EXPECT_EQ(out3.status.code(), StatusCode::kDeadlock);
  table_->ReleaseAll(3);  // victim aborts; T2 then T1 proceed
  t2.join();
  t1.join();
  EXPECT_EQ(granted.load(), 2);
  EXPECT_EQ(table_->GetStats().deadlocks, 1u);
  EXPECT_EQ(table_->NumWaitingTransactions(), 0u);
  EXPECT_EQ(table_->LocksHeldBy(3), 0u);
  auto events = table_->RecentDeadlocks();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, 3u);
  EXPECT_EQ(events[0].resource, "a");
  EXPECT_FALSE(events[0].conversion);
  EXPECT_GE(events[0].waiting_transactions, 3u);
}

TEST_F(LockTableTest, TimeoutVictimAbortsToZeroLocks) {
  // The timed-out transaction keeps its earlier grants until it aborts;
  // after ReleaseAll it must hold nothing and wait for nothing.
  ASSERT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "other", s_, LockDuration::kCommit).status.ok());
  auto out = table_->Lock(2, "r", s_, LockDuration::kCommit);
  EXPECT_EQ(out.status.code(), StatusCode::kLockTimeout);
  EXPECT_EQ(table_->GetStats().timeouts, 1u);
  EXPECT_EQ(table_->HeldMode(2, "r"), kNoMode);
  EXPECT_EQ(table_->LocksHeldBy(2), 1u);  // "other" still held
  table_->ReleaseAll(2);                  // the caller's abort
  EXPECT_EQ(table_->LocksHeldBy(2), 0u);
  EXPECT_EQ(table_->NumWaitingTransactions(), 0u);
}

TEST_F(LockTableTest, InjectedLockFaultsShortCircuitRequests) {
  FaultInjector faults(21);
  ModeTable m;
  ModeId s = m.AddMode("S");
  m.SetCompatRow(s, "+");
  ASSERT_TRUE(m.DeriveMissingConversions().ok());
  LockTableOptions options;
  options.fault_injector = &faults;
  LockTable t(&m, options);

  faults.Arm(fault_points::kLockTimeout, {.probability = 1.0});
  auto out = t.Lock(1, "r", s, LockDuration::kCommit);
  EXPECT_EQ(out.status.code(), StatusCode::kLockTimeout);
  EXPECT_EQ(t.LocksHeldBy(1), 0u);  // the request never touched a shard
  EXPECT_EQ(t.GetStats().timeouts, 1u);

  faults.Disarm(fault_points::kLockTimeout);
  faults.Arm(fault_points::kLockDeadlock, {.probability = 1.0});
  auto out2 = t.Lock(2, "r", s, LockDuration::kCommit);
  EXPECT_EQ(out2.status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(t.GetStats().deadlocks, 1u);
  auto events = t.RecentDeadlocks();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].injected);
  EXPECT_EQ(events[0].victim, 2u);
}

/// Records what a model-checker table reports.
class RecordingProbe : public LockEventProbe {
 public:
  void OnGrant(uint64_t, std::string_view, ModeId, ModeId,
               LockDuration) override {}
  void OnWouldBlock(uint64_t tx, std::string_view, ModeId,
                    const std::vector<uint64_t>& blockers) override {
    blocked.push_back(tx);
    blocked_on = blockers;
  }
  void OnDeadlockVictim(uint64_t tx, std::string_view, ModeId,
                        const std::vector<uint64_t>&) override {
    victims.push_back(tx);
  }

  std::vector<uint64_t> blocked;
  std::vector<uint64_t> blocked_on;
  std::vector<uint64_t> victims;
};

TEST_F(LockTableTest, ThreadedAndProbeTablesRecordTheSameDeadlock) {
  // One two-transaction cycle: tx2 holds r2 S, tx1 holds r X, tx2 waits
  // for r, and tx1's request for r2 closes the cycle. The threaded table
  // parks tx2 on its own thread; the probe table answers kWouldBlock.
  // Both take the same blocked-request path, so both record the same
  // victim.
  ASSERT_TRUE(table_->Lock(2, "r2", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  std::atomic<bool> tx2_granted{false};
  std::thread tx2([&]() {
    tx2_granted = table_->Lock(2, "r", s_, LockDuration::kCommit).status.ok();
  });
  SleepFor(Millis(50));  // let tx2 block on tx1's X
  EXPECT_EQ(table_->Lock(1, "r2", x_, LockDuration::kCommit).status.code(),
            StatusCode::kDeadlock);
  table_->ReleaseAll(1);  // the victim aborts; tx2 proceeds
  tx2.join();
  EXPECT_TRUE(tx2_granted.load());
  table_->ReleaseAll(2);

  RecordingProbe probe;
  LockTableOptions options;
  options.probe = &probe;
  LockTable probed(&modes_, options);
  ASSERT_TRUE(probed.Lock(2, "r2", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(probed.Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(probed.Lock(2, "r", s_, LockDuration::kCommit).status.code(),
            StatusCode::kWouldBlock);
  // tx2 left the queue but keeps its wait-for edge for the retry.
  EXPECT_EQ(probed.NumWaitingTransactions(), 1u);
  EXPECT_EQ(probed.Lock(1, "r2", x_, LockDuration::kCommit).status.code(),
            StatusCode::kDeadlock);
  probed.ReleaseAll(1);
  EXPECT_TRUE(probed.Lock(2, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(probed.NumWaitingTransactions(), 0u);
  EXPECT_EQ(probe.blocked, std::vector<uint64_t>{2});
  EXPECT_EQ(probe.blocked_on, std::vector<uint64_t>{1});
  EXPECT_EQ(probe.victims, std::vector<uint64_t>{1});

  const auto threaded_events = table_->RecentDeadlocks();
  const auto probe_events = probed.RecentDeadlocks();
  ASSERT_EQ(threaded_events.size(), 1u);
  ASSERT_EQ(probe_events.size(), 1u);
  const DeadlockEvent& threaded = threaded_events[0];
  const DeadlockEvent& modeled = probe_events[0];
  EXPECT_EQ(threaded.victim, 1u);
  EXPECT_EQ(threaded.resource, "r2");
  EXPECT_EQ(threaded.waiting_transactions, 2u);
  EXPECT_EQ(modeled.victim, threaded.victim);
  EXPECT_EQ(modeled.resource, threaded.resource);
  EXPECT_EQ(modeled.requested_mode, threaded.requested_mode);
  EXPECT_EQ(modeled.conversion, threaded.conversion);
  EXPECT_EQ(modeled.blockers, threaded.blockers);
  EXPECT_EQ(modeled.waiting_transactions, threaded.waiting_transactions);
  EXPECT_EQ(modeled.victim_reason, threaded.victim_reason);
  EXPECT_EQ(probed.GetStats().deadlocks, table_->GetStats().deadlocks);
}

TEST_F(LockTableTest, ProbeBlockedTransactionKeepsShortLocksUntilGranted) {
  // A kWouldBlock stands for a parked thread, which is still inside its
  // operation: EndOperation must not drop the short locks it took before
  // the blocked request.
  RecordingProbe probe;
  LockTableOptions options;
  options.probe = &probe;
  LockTable probed(&modes_, options);
  ASSERT_TRUE(probed.Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(probed.Lock(2, "a", s_, LockDuration::kOperation).status.ok());
  ASSERT_EQ(probed.Lock(2, "r", s_, LockDuration::kOperation).status.code(),
            StatusCode::kWouldBlock);
  probed.EndOperation(2);
  EXPECT_EQ(probed.LocksHeldBy(2), 1u);
  probed.ReleaseAll(1);
  ASSERT_TRUE(probed.Lock(2, "r", s_, LockDuration::kOperation).status.ok());
  probed.EndOperation(2);
  EXPECT_EQ(probed.LocksHeldBy(2), 0u);
}

/// The per-transaction lock set: requests the conversion matrix proves
/// to be no-ops are answered from it without a resource-shard round trip.
class LockSetTest : public LockTableTest {};

TEST_F(LockSetTest, RepeatLocksAreAnsweredFromTheSet) {
  ASSERT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  // Re-lock at the same and at covered weaker modes: all hits.
  EXPECT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(table_->Lock(1, "r", is_, LockDuration::kOperation).status.ok());
  LockTableStats stats = table_->GetStats();
  EXPECT_EQ(stats.cache_hits, 3u);
  // Hits still count as (immediately granted) requests.
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.immediate_grants, 4u);
  EXPECT_EQ(stats.conversions, 0u);
  EXPECT_EQ(table_->LocksHeldBy(1), 1u);
}

TEST_F(LockSetTest, OperationDurationDoesNotMasqueradeAsCommit) {
  // Held only for the operation: the effective mode covers S, but the
  // long component is empty, so a kCommit request must take the table
  // round trip (which upgrades the long component) — a hit here would
  // let EndOperation drop a lock promised until commit.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kOperation).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->GetStats().cache_hits, 0u);
  // Now the long component covers S and the same request is a hit.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->GetStats().cache_hits, 1u);
  table_->EndOperation(1);
  EXPECT_EQ(table_->HeldMode(1, "r"), s_);  // survived: it is a commit lock
}

TEST_F(LockSetTest, EndOperationDropsPureShortHoldsAndKeepsCommitHolds) {
  ASSERT_TRUE(table_->Lock(1, "s", s_, LockDuration::kOperation).status.ok());
  ASSERT_TRUE(table_->Lock(1, "l", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "m", is_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "m", x_, LockDuration::kOperation).status.ok());
  EXPECT_EQ(table_->LocksHeldBy(1), 3u);
  table_->EndOperation(1);
  // The pure-short hold is gone, the mixed one fell back to its long
  // component, and the commit hold is untouched.
  EXPECT_EQ(table_->LocksHeldBy(1), 2u);
  EXPECT_EQ(table_->HeldMode(1, "s"), kNoMode);
  EXPECT_EQ(table_->HeldMode(1, "m"), is_);
  EXPECT_EQ(table_->HeldMode(1, "l"), s_);
  // Another transaction can now take X on the released resource.
  EXPECT_TRUE(table_->Lock(2, "s", x_, LockDuration::kCommit).status.ok());
  const uint64_t hits = table_->GetStats().cache_hits;
  ASSERT_TRUE(table_->Lock(1, "l", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "m", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->GetStats().cache_hits, hits + 2);
  // The downgraded entry no longer covers X: that request takes the table.
  ASSERT_TRUE(table_->Lock(1, "m", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->GetStats().cache_hits, hits + 2);
}

TEST_F(LockSetTest, ReleaseAllEmptiesTheSet) {
  ASSERT_TRUE(table_->Lock(1, "a", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "b", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->LocksHeldBy(1), 2u);
  table_->ReleaseAll(1);
  EXPECT_EQ(table_->LocksHeldBy(1), 0u);
  EXPECT_EQ(table_->NumLockedResources(), 0u);
  // A fresh acquisition goes through the table, not a leftover entry.
  ASSERT_TRUE(table_->Lock(1, "a", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->GetStats().cache_hits, 0u);
}

TEST_F(LockSetTest, ConversionsUpdateTheEntry) {
  ASSERT_TRUE(table_->Lock(1, "r", is_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->HeldMode(1, "r"), x_);
  EXPECT_EQ(table_->LocksHeldBy(1), 1u);
  // The converted entry covers S.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->GetStats().cache_hits, 1u);
}

TEST_F(LockSetTest, ResetStatsClearsHitCounter) {
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  // A conversion, a wait that times out, and a cancelled request.
  ASSERT_TRUE(table_->Lock(2, "c", is_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "c", x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->Lock(2, "r", x_, LockDuration::kCommit).status.code(),
            StatusCode::kLockTimeout);
  table_->CancelTx(3);
  EXPECT_EQ(table_->Lock(3, "d", s_, LockDuration::kCommit).status.code(),
            StatusCode::kCancelled);
  for (uint64_t tx : {1, 2, 3}) table_->ReleaseAll(tx);
  LockTableStats stats = table_->GetStats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.immediate_grants, 4u);
  EXPECT_EQ(stats.conversions, 1u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  table_->ResetStats();
  stats = table_->GetStats();
  LockTableStats::ForEachField(
      stats, [](const char* name, const char*, uint64_t v) {
        EXPECT_EQ(v, 0u) << name;
      });
}

/// The lock set's ownership rules (lock_table.h): a set is found through
/// a one-entry thread cache or the tx-id-sharded registry, must never
/// answer for another transaction or another table, and follows its
/// transaction from thread to thread.
class LockSetOwnershipTest : public LockTableTest {
 protected:
  uint64_t Hits() const { return table_->GetStats().cache_hits; }
};

TEST_F(LockSetOwnershipTest, TxIdsInOneRegistryShardKeepSeparateSets) {
  const uint64_t a = 1;
  const uint64_t b = a + LockTableOptions{}.shards;  // same registry shard
  ASSERT_TRUE(table_->Lock(a, "r", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(b, "q", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(table_->LocksHeldBy(a), 1u);
  EXPECT_EQ(table_->LocksHeldBy(b), 1u);
  // b holds nothing on "r": its request reaches the shard.
  ASSERT_TRUE(table_->Lock(b, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(table_->HeldMode(b, "r"), is_);
  EXPECT_EQ(table_->HeldMode(a, "r"), s_);
  ASSERT_TRUE(table_->Lock(a, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 1u);
  table_->ReleaseAll(a);
  EXPECT_EQ(table_->LocksHeldBy(a), 0u);
  EXPECT_EQ(table_->LocksHeldBy(b), 2u);
  EXPECT_EQ(table_->HeldMode(b, "q"), s_);
  table_->ReleaseAll(b);
  EXPECT_EQ(table_->NumLockedResources(), 0u);
}

TEST_F(LockSetOwnershipTest, OneThreadInterleavesTwoTransactions) {
  // A server worker serving two sessions alternates between their
  // transactions request by request; each answer must come from the
  // requesting transaction's own set.
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(2, "q", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 1u);
  ASSERT_TRUE(table_->Lock(2, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(table_->HeldMode(2, "r"), is_);
  ASSERT_TRUE(table_->Lock(1, "p", ix_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 1u);
  ASSERT_TRUE(table_->Lock(2, "q", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 2u);
  EXPECT_EQ(table_->HeldMode(2, "q"), x_);
  ASSERT_TRUE(table_->Lock(1, "p", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 3u);
  EXPECT_EQ(table_->HeldMode(1, "p"), ix_);
  EXPECT_EQ(table_->HeldMode(2, "p"), kNoMode);
  EXPECT_EQ(table_->LocksHeldBy(1), 2u);
  EXPECT_EQ(table_->LocksHeldBy(2), 2u);
  table_->ReleaseAll(2);
  EXPECT_EQ(table_->LocksHeldBy(1), 2u);
  table_->ReleaseAll(1);
  EXPECT_EQ(table_->NumLockedResources(), 0u);
}

TEST_F(LockSetOwnershipTest, TablesOnOneThreadDoNotShareTheCache) {
  LockTable other(&modes_);
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 1u);
  // Same thread, same transaction id, other table: not a hit.
  ASSERT_TRUE(other.Lock(1, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(other.GetStats().cache_hits, 0u);
  EXPECT_EQ(other.HeldMode(1, "r"), s_);
  EXPECT_EQ(other.NumLockedResources(), 1u);
  other.ReleaseAll(1);
  table_->ReleaseAll(1);

  // A table built where a destroyed one lived must not answer from the
  // old table's set either.
  alignas(LockTable) unsigned char storage[sizeof(LockTable)];
  auto* first = new (storage) LockTable(&modes_);
  ASSERT_TRUE(first->Lock(7, "r", x_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(first->Lock(7, "r", x_, LockDuration::kCommit).status.ok());
  first->~LockTable();
  auto* second = new (storage) LockTable(&modes_);
  ASSERT_TRUE(second->Lock(7, "r", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(second->GetStats().cache_hits, 0u);
  EXPECT_EQ(second->HeldMode(7, "r"), s_);
  second->ReleaseAll(7);
  second->~LockTable();
}

TEST_F(LockSetOwnershipTest, SetFollowsItsTransactionToAnotherThread) {
  const uint64_t tx = 1;
  const uint64_t neighbour = tx + LockTableOptions{}.shards;
  ASSERT_TRUE(table_->Lock(tx, "a", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table_->Lock(tx, "a", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 1u);
  // The hand-off: the join orders this thread's calls before the
  // worker's. The worker continues the transaction from the same set,
  // releases it, and then a transaction of the same registry shard
  // reuses the pooled set and takes "a".
  std::thread worker([&] {
    EXPECT_TRUE(table_->Lock(tx, "b", s_, LockDuration::kCommit).status.ok());
    EXPECT_TRUE(table_->Lock(tx, "a", is_, LockDuration::kCommit).status.ok());
    EXPECT_EQ(table_->LocksHeldBy(tx), 2u);
    table_->ReleaseAll(tx);
    EXPECT_TRUE(
        table_->Lock(neighbour, "a", s_, LockDuration::kCommit).status.ok());
  });
  worker.join();
  EXPECT_EQ(Hits(), 2u);
  // This thread reuses the id: its first request reaches a shard, even
  // though its cache still names the set that now serves `neighbour`.
  EXPECT_EQ(table_->LocksHeldBy(tx), 0u);
  ASSERT_TRUE(table_->Lock(tx, "a", s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(Hits(), 2u);
  EXPECT_EQ(table_->HeldMode(tx, "a"), s_);
  EXPECT_EQ(table_->LocksHeldBy(tx), 1u);
  table_->ReleaseAll(tx);
  EXPECT_EQ(table_->HeldMode(neighbour, "a"), s_);
  table_->ReleaseAll(neighbour);
  EXPECT_EQ(table_->NumLockedResources(), 0u);
}

TEST_F(LockSetOwnershipTest, RecycledResourcesAreReKeyedAndNotCounted) {
  // One shard, so every resource reuses the node the last one left.
  LockTableOptions options;
  options.shards = 1;
  LockTable t(&modes_, options);
  const std::string longer(40, 'L');  // past any short-string buffer
  ASSERT_TRUE(t.Lock(1, "s", s_, LockDuration::kCommit).status.ok());
  t.ReleaseAll(1);
  EXPECT_EQ(t.NumLockedResources(), 0u);
  ASSERT_TRUE(t.Lock(2, longer, x_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(t.HeldMode(2, longer), x_);
  EXPECT_EQ(t.HeldMode(2, "s"), kNoMode);
  EXPECT_EQ(t.NumLockedResources(), 1u);
  t.ReleaseAll(2);
  ASSERT_TRUE(t.Lock(3, "r", s_, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(t.Lock(4, "r", is_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(t.HeldMode(3, "r"), s_);
  EXPECT_EQ(t.HeldMode(4, "r"), is_);
  EXPECT_EQ(t.HeldMode(3, longer), kNoMode);
  const std::vector<LockTable::HoldSnapshot> holds = t.SnapshotHolds();
  ASSERT_EQ(holds.size(), 2u);
  EXPECT_EQ(holds[0].resource, "r");
  EXPECT_EQ(holds[1].resource, "r");
  // A request on the longer name again: a fresh resource, not the one
  // re-keyed to "r".
  ASSERT_TRUE(t.Lock(3, longer, s_, LockDuration::kCommit).status.ok());
  EXPECT_EQ(t.NumLockedResources(), 2u);
  t.ReleaseAll(3);
  t.ReleaseAll(4);
  EXPECT_EQ(t.NumLockedResources(), 0u);
  EXPECT_TRUE(t.SnapshotHolds().empty());
  EXPECT_EQ(t.HeldMode(3, "r"), kNoMode);
}

TEST_F(LockTableTest, AsymmetricCompatibilityRespected) {
  // Build a U-style asymmetric table: held U admits R, held R denies U
  // (the convention printed in the paper's URIX matrix).
  ModeTable m;
  ModeId r = m.AddMode("R");
  ModeId u = m.AddMode("U");
  m.SetCompatible(r, r, true);
  m.SetCompatible(r, u, false);  // held R, requested U -> deny
  m.SetCompatible(u, r, true);   // held U, requested R -> allow
  m.SetCompatible(u, u, false);
  ASSERT_TRUE(m.DeriveMissingConversions().ok());
  LockTableOptions options;
  options.wait_timeout = Millis(100);
  LockTable t(&m, options);
  ASSERT_TRUE(t.Lock(1, "r", u, LockDuration::kCommit).status.ok());
  EXPECT_TRUE(t.Lock(2, "r", r, LockDuration::kCommit).status.ok());
  t.ReleaseAll(1);
  t.ReleaseAll(2);
  ASSERT_TRUE(t.Lock(3, "r", r, LockDuration::kCommit).status.ok());
  EXPECT_EQ(t.Lock(4, "r", u, LockDuration::kCommit).status.code(),
            StatusCode::kLockTimeout);
}

TEST(LockTableCancelTest, CancelWaitersWakesParkedWaitersInMilliseconds) {
  // The regression this guards: a waiter parked at stop time used to
  // sleep toward the full wait_timeout (10 s in production), so shutdown
  // joins took seconds. With cancellation the join must be bounded by
  // scheduling noise, not the timeout.
  ModeTable m;
  ModeId s = m.AddMode("S");
  ModeId x = m.AddMode("X");
  m.SetCompatRow(s, "+ -");
  m.SetCompatRow(x, "- -");
  ASSERT_TRUE(m.DeriveMissingConversions().ok());
  LockTableOptions options;
  options.wait_timeout = std::chrono::seconds(10);
  LockTable t(&m, options);

  ASSERT_TRUE(t.Lock(1, "r", x, LockDuration::kCommit).status.ok());
  constexpr int kWaiters = 4;
  std::atomic<int> cancelled{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&t, &cancelled, s, i]() {
      auto out = t.Lock(10 + i, "r", s, LockDuration::kCommit);
      if (out.status.IsCancelled()) cancelled.fetch_add(1);
    });
  }
  // Let every thread reach the shard CV before cancelling.
  while (t.GetStats().waits < kWaiters) SleepFor(Millis(1));

  const TimePoint cancel_at = Now();
  EXPECT_FALSE(t.cancelling());
  t.CancelWaiters();
  EXPECT_TRUE(t.cancelling());
  for (auto& w : waiters) w.join();
  const int64_t join_ms = ToMillis(Now() - cancel_at);

  EXPECT_EQ(cancelled.load(), kWaiters);
  // Milliseconds, not the 10 s timeout. 1 s leaves two orders of
  // magnitude of slack for a loaded CI machine.
  EXPECT_LT(join_ms, 1000);
  EXPECT_EQ(t.GetStats().cancelled, static_cast<uint64_t>(kWaiters));
  // The cancelled waiters left no residue: no queue entries, no
  // wait-for edges.
  EXPECT_EQ(t.NumWaitingTransactions(), 0u);

  // CancelWaiters is table shutdown: future requests — even trivially
  // grantable ones, even from the existing holder — are denied too.
  EXPECT_EQ(t.Lock(99, "other", s, LockDuration::kCommit).status.code(),
            StatusCode::kCancelled);
  EXPECT_EQ(t.Lock(1, "r", x, LockDuration::kCommit).status.code(),
            StatusCode::kCancelled);
  EXPECT_FALSE(Status::Cancelled().IsRetryable());
  t.ReleaseAll(1);
}

TEST(LockTableCancelTest, CancelTxWakesOnlyThatTransaction) {
  ModeTable m;
  ModeId s = m.AddMode("S");
  ModeId x = m.AddMode("X");
  m.SetCompatRow(s, "+ -");
  m.SetCompatRow(x, "- -");
  ASSERT_TRUE(m.DeriveMissingConversions().ok());
  LockTableOptions options;
  options.wait_timeout = std::chrono::seconds(10);
  LockTable t(&m, options);

  ASSERT_TRUE(t.Lock(1, "r", x, LockDuration::kCommit).status.ok());
  std::atomic<bool> tx2_cancelled{false};
  std::atomic<bool> tx3_granted{false};
  std::thread w2([&]() {
    auto out = t.Lock(2, "r", s, LockDuration::kCommit);
    if (out.status.IsCancelled()) tx2_cancelled = true;
  });
  std::thread w3([&]() {
    auto out = t.Lock(3, "r", s, LockDuration::kCommit);
    if (out.status.ok()) tx3_granted = true;
  });
  while (t.GetStats().waits < 2) SleepFor(Millis(1));

  // Cancelling tx 2 (its client vanished) wakes it with kCancelled but
  // leaves tx 3 parked.
  t.CancelTx(2);
  w2.join();
  EXPECT_TRUE(tx2_cancelled.load());
  EXPECT_FALSE(tx3_granted.load());
  EXPECT_FALSE(t.cancelling());

  // The cancel is sticky while the transaction lives...
  EXPECT_EQ(t.Lock(2, "other", s, LockDuration::kCommit).status.code(),
            StatusCode::kCancelled);
  // ...and cleared by ReleaseAll, so a recycled transaction id starts
  // fresh.
  t.ReleaseAll(2);
  EXPECT_TRUE(t.Lock(2, "other", s, LockDuration::kCommit).status.ok());

  // tx 3 was untouched: releasing the blocker grants it normally.
  t.ReleaseAll(1);
  w3.join();
  EXPECT_TRUE(tx3_granted.load());
  t.ReleaseAll(2);
  t.ReleaseAll(3);
}

}  // namespace
}  // namespace xtc
