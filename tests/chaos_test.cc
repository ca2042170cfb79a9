// Chaos tests: deterministic fault injection across the whole stack, the
// bounded-retry worker loop, and the post-run invariants (quiescence +
// committed-transaction replay). See docs/robustness.md.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "protocols/protocol_registry.h"
#include "tamix/coordinator.h"
#include "tamix/invariants.h"
#include "tx/transaction_manager.h"
#include "util/fault_injector.h"

namespace xtc {
namespace {

// --- FaultInjector unit tests ----------------------------------------------

TEST(FaultInjectorTest, UnarmedPointsNeverFire) {
  FaultInjector faults(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(faults.ShouldFail(fault_points::kIoRead));
  }
  EXPECT_TRUE(faults.MaybeFail(fault_points::kIoWrite).ok());
  EXPECT_EQ(faults.total_injections(), 0u);
}

TEST(FaultInjectorTest, ProbabilityOneAlwaysFiresAndZeroNever) {
  FaultInjector faults(1);
  faults.Arm(fault_points::kIoRead, {.probability = 1.0});
  faults.Arm(fault_points::kIoWrite, {.probability = 0.0});
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(faults.ShouldFail(fault_points::kIoRead));
    EXPECT_FALSE(faults.ShouldFail(fault_points::kIoWrite));
  }
  EXPECT_EQ(faults.injections(fault_points::kIoRead), 50u);
  EXPECT_EQ(faults.evaluations(fault_points::kIoWrite), 50u);
}

TEST(FaultInjectorTest, SameSeedSameConfigGivesIdenticalSequence) {
  FaultInjector a(99), b(99);
  for (FaultInjector* f : {&a, &b}) {
    f->Arm(fault_points::kLockTimeout, {.probability = 0.2});
    f->Arm(fault_points::kNodeIud, {.probability = 0.05});
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.ShouldFail(fault_points::kLockTimeout),
              b.ShouldFail(fault_points::kLockTimeout));
    EXPECT_EQ(a.ShouldFail(fault_points::kNodeIud),
              b.ShouldFail(fault_points::kNodeIud));
  }
  EXPECT_GT(a.total_injections(), 0u);
  const auto log_a = a.InjectionLog();
  const auto log_b = b.InjectionLog();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].point, log_b[i].point);
    EXPECT_EQ(log_a[i].evaluation, log_b[i].evaluation);
  }
}

TEST(FaultInjectorTest, DifferentSeedsGiveDifferentSequences) {
  FaultInjector a(1), b(2);
  a.Arm(fault_points::kIoRead, {.probability = 0.3});
  b.Arm(fault_points::kIoRead, {.probability = 0.3});
  bool diverged = false;
  for (int i = 0; i < 500; ++i) {
    if (a.ShouldFail(fault_points::kIoRead) !=
        b.ShouldFail(fault_points::kIoRead)) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, ThreadInterleavingCannotChangeTheDecisionSet) {
  // The n-th evaluation's decision is a pure function of (seed, point, n):
  // hammering one point from many threads must fire exactly the same
  // number of injections as a single-threaded reference run.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  FaultInjector concurrent(77);
  concurrent.Arm(fault_points::kBufferPin, {.probability = 0.1});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent]() {
      for (int i = 0; i < kPerThread; ++i) {
        concurrent.ShouldFail(fault_points::kBufferPin);
      }
    });
  }
  for (auto& t : threads) t.join();

  FaultInjector reference(77);
  reference.Arm(fault_points::kBufferPin, {.probability = 0.1});
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    reference.ShouldFail(fault_points::kBufferPin);
  }
  EXPECT_EQ(concurrent.evaluations(fault_points::kBufferPin),
            reference.evaluations(fault_points::kBufferPin));
  EXPECT_EQ(concurrent.injections(fault_points::kBufferPin),
            reference.injections(fault_points::kBufferPin));
}

TEST(FaultInjectorTest, OneShotFiresAtMostOnce) {
  FaultInjector faults(5);
  faults.Arm(fault_points::kTxUndo, {.probability = 1.0, .one_shot = true});
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    if (faults.ShouldFail(fault_points::kTxUndo)) ++fired;
  }
  EXPECT_EQ(fired, 1);
}

TEST(FaultInjectorTest, SkipFirstProtectsEarlyEvaluations) {
  FaultInjector faults(5);
  faults.Arm(fault_points::kIoWrite,
             {.probability = 1.0, .skip_first = 10});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(faults.ShouldFail(fault_points::kIoWrite)) << i;
  }
  EXPECT_TRUE(faults.ShouldFail(fault_points::kIoWrite));
}

TEST(FaultInjectorTest, ScopedSuppressMasksAndNests) {
  FaultInjector faults(5);
  faults.Arm(fault_points::kIoRead, {.probability = 1.0});
  {
    FaultInjector::ScopedSuppress outer;
    EXPECT_FALSE(faults.ShouldFail(fault_points::kIoRead));
    {
      FaultInjector::ScopedSuppress inner;
      EXPECT_TRUE(faults.MaybeFail(fault_points::kIoRead).ok());
    }
    EXPECT_FALSE(faults.ShouldFail(fault_points::kIoRead));
  }
  EXPECT_TRUE(faults.ShouldFail(fault_points::kIoRead));
}

TEST(FaultInjectorTest, MaybeFailCarriesConfiguredCodeAndMessage) {
  FaultInjector faults(5);
  faults.Arm(fault_points::kLockTimeout,
             {.probability = 1.0,
              .code = StatusCode::kLockTimeout,
              .message = "synthetic timeout"});
  Status st = faults.MaybeFail(fault_points::kLockTimeout);
  EXPECT_EQ(st.code(), StatusCode::kLockTimeout);
  EXPECT_EQ(st.message(), "synthetic timeout");
  EXPECT_TRUE(st.IsRetryable());

  faults.Arm(fault_points::kIoRead, {.probability = 1.0});
  Status io = faults.MaybeFail(fault_points::kIoRead);
  EXPECT_TRUE(io.IsIoError());
  EXPECT_TRUE(io.IsRetryable());

  faults.Arm(fault_points::kIoWrite,
             {.probability = 1.0,
              .code = StatusCode::kCancelled,
              .message = "synthetic cancel"});
  Status cancelled = faults.MaybeFail(fault_points::kIoWrite);
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_EQ(cancelled.message(), "synthetic cancel");
}

TEST(FaultInjectorTest, AllFaultPointsEnumeratesTheWholeStack) {
  const auto points = AllFaultPoints();
  // 7 clean-failure points + wal.flush + the five crash.* kill points +
  // the four net.* wire points (tests/fault_points_test.cc pins the
  // exact list against the docs).
  EXPECT_EQ(points.size(), 17u);
  const FaultPlan plan = FaultPlan::AllPoints(0.5);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.points.size(), points.size());
  for (const auto& [name, config] : plan.points) {
    EXPECT_DOUBLE_EQ(config.probability, 0.5);
  }
}

// --- Abort path under injected undo failures --------------------------------

TEST(ChaosAbortTest, InjectedUndoFailuresDoNotStopTheRollback) {
  auto protocol = CreateProtocol("taDOM3+");
  LockManager lm(protocol.get());
  FaultInjector faults(3);
  faults.Arm(fault_points::kTxUndo, {.probability = 1.0});
  TransactionManager tm(&lm, &faults);

  auto tx = tm.Begin(IsolationLevel::kRepeatable, 7);
  ASSERT_TRUE(lm.NodeRead(tx->LockView(), *Splid::Parse("1.3")).ok());
  std::vector<int> order;
  for (int i = 1; i <= 3; ++i) {
    tx->AddUndo([&order, i]() {
      order.push_back(i);
      return Status::OK();
    });
  }
  Status st = tm.Abort(*tx);
  EXPECT_FALSE(st.ok());
  // Every undo still ran, in reverse order, despite every one of them
  // being reported as failed.
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(tx->state(), TxState::kAborted);
  EXPECT_EQ(protocol->table().LocksHeldBy(tx->id()), 0u);
  EXPECT_EQ(tm.num_undo_failures(), 3u);
  // The first failure is reported with its position in the rollback.
  EXPECT_NE(st.message().find("undo action 3 of 3"), std::string::npos)
      << st.ToString();
}

TEST(ChaosAbortTest, DeniedRequestLeavesTheLockSetIntact) {
  // However a lock request is denied — timeout, real or injected
  // deadlock, cancellation — it changed no holding, so the table and the
  // transaction's lock set stay exactly as they were: a covered re-lock
  // still succeeds (except once cancelled), and the abort's ReleaseAll
  // empties the set (TransactionManager::Abort hard-checks it too).
  enum class Denial {
    kTimeout,
    kInjectedTimeout,
    kDeadlock,
    kInjectedDeadlock,
    kCancelled
  };
  for (Denial denial : {Denial::kTimeout, Denial::kInjectedTimeout,
                        Denial::kDeadlock, Denial::kInjectedDeadlock,
                        Denial::kCancelled}) {
    SCOPED_TRACE("denial " + std::to_string(static_cast<int>(denial)));
    FaultInjector faults(7);
    LockTableOptions options;
    options.fault_injector = &faults;
    options.wait_timeout = Millis(100);
    auto protocol = CreateProtocol("taDOM3+", options);
    LockManager lm(protocol.get());
    TransactionManager tm(&lm, &faults);
    LockTable& table = protocol->table();

    auto tx = tm.Begin(IsolationLevel::kRepeatable, 7);
    auto rival = tm.Begin(IsolationLevel::kRepeatable, 7);
    const Splid mine = *Splid::Parse("1.3.3");
    const Splid theirs = *Splid::Parse("1.3.5");
    ASSERT_TRUE(lm.NodeRead(tx->LockView(), mine).ok());
    ASSERT_TRUE(lm.NodeWrite(rival->LockView(), theirs).ok());
    const size_t held = table.LocksHeldBy(tx->id());
    const ModeId mine_mode = table.HeldMode(tx->id(), NodeResource(mine));
    ASSERT_GT(held, 0u);

    // For the real deadlock: the rival parks on the tx's read lock, so
    // the tx's own wait on the rival's write lock closes the cycle.
    Status rival_wait = Status::OK();
    std::thread parked;
    Status st;
    switch (denial) {
      case Denial::kTimeout:
        st = lm.NodeRead(tx->LockView(), theirs);
        EXPECT_EQ(st.code(), StatusCode::kLockTimeout) << st.ToString();
        break;
      case Denial::kInjectedTimeout:
        faults.Arm(fault_points::kLockTimeout, {.probability = 1.0});
        st = lm.NodeWrite(tx->LockView(), mine);
        faults.Disarm(fault_points::kLockTimeout);
        EXPECT_EQ(st.code(), StatusCode::kLockTimeout) << st.ToString();
        break;
      case Denial::kDeadlock:
        parked = std::thread([&] {
          rival_wait = lm.NodeWrite(rival->LockView(), mine);
        });
        while (table.NumWaitingTransactions() < 1) SleepFor(Millis(1));
        st = lm.NodeRead(tx->LockView(), theirs);
        EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
        break;
      case Denial::kInjectedDeadlock:
        faults.Arm(fault_points::kLockDeadlock, {.probability = 1.0});
        st = lm.NodeWrite(tx->LockView(), mine);
        faults.Disarm(fault_points::kLockDeadlock);
        EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
        break;
      case Denial::kCancelled:
        table.CancelTx(tx->id());
        st = lm.NodeRead(tx->LockView(), mine);
        EXPECT_TRUE(st.IsCancelled()) << st.ToString();
        break;
    }
    EXPECT_EQ(table.LocksHeldBy(tx->id()), held);
    EXPECT_EQ(table.HeldMode(tx->id(), NodeResource(mine)), mine_mode);
    if (denial == Denial::kCancelled) {
      EXPECT_TRUE(lm.NodeRead(tx->LockView(), mine).IsCancelled());
    } else {
      const uint64_t hits = table.GetStats().cache_hits;
      EXPECT_TRUE(lm.NodeRead(tx->LockView(), mine).ok());
      EXPECT_GT(table.GetStats().cache_hits, hits);
    }

    ASSERT_TRUE(tm.Abort(*tx).ok());
    EXPECT_EQ(table.LocksHeldBy(tx->id()), 0u);
    if (parked.joinable()) parked.join();
    EXPECT_TRUE(rival_wait.ok()) << rival_wait.ToString();
    ASSERT_TRUE(tm.Commit(*rival).ok());
    EXPECT_EQ(table.NumLockedResources(), 0u);
    EXPECT_EQ(table.NumWaitingTransactions(), 0u);
  }
}

// --- Invariant helpers -------------------------------------------------------

TEST(InvariantsTest, FingerprintIsStableAcrossIdenticalBuilds) {
  StorageOptions storage;
  Document a(storage), b(storage);
  ASSERT_TRUE(GenerateBib(&a, BibConfig::Tiny()).ok());
  ASSERT_TRUE(GenerateBib(&b, BibConfig::Tiny()).ok());
  auto fa = DocumentFingerprint(a);
  auto fb = DocumentFingerprint(b);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(*fa, *fb);

  // Any surviving mutation must change the fingerprint.
  auto topic = a.ElementsByName("topic");
  ASSERT_FALSE(topic.empty());
  ASSERT_TRUE(
      a.RenameElement(topic[0], a.vocabulary().Intern("renamed")).ok());
  auto fa2 = DocumentFingerprint(a);
  ASSERT_TRUE(fa2.ok());
  EXPECT_NE(*fa2, *fb);
}

TEST(InvariantsTest, FreshStackIsQuiescent) {
  StorageOptions storage;
  Document doc(storage);
  ASSERT_TRUE(GenerateBib(&doc, BibConfig::Tiny()).ok());
  auto protocol = CreateProtocol("taDOM3+");
  EXPECT_TRUE(CheckQuiescent(protocol->table(), doc).ok());
}

// --- Chaos CLUSTER1 runs -----------------------------------------------------

RunConfig ChaosConfig(const std::string& protocol, IsolationLevel isolation) {
  RunConfig config;
  config.protocol = protocol;
  config.isolation = isolation;
  config.bib = BibConfig::Tiny();
  config.time_scale = 1.0 / 300.0;  // 5 min -> 1 s
  config.mix.clients = 1;
  config.mix.query_book = 3;
  config.mix.chapter = 2;
  config.mix.rename_topic = 1;
  config.mix.lend_and_return = 2;
  // A small pool forces real evictions, so io.read / io.write / buffer.pin
  // are all exercised (the tiny document would otherwise stay resident).
  config.storage.buffer_pool_pages = 32;
  config.seed = 11;
  // Every fault point armed at >= 1%.
  config.faults = FaultPlan::AllPoints(0.01);
  return config;
}

TEST(ChaosRunTest, TaDom3PlusSerializableSurvivesChaosWithReplayCheck) {
  RunConfig config = ChaosConfig("taDOM3+", IsolationLevel::kSerializable);
  ChaosReport report;
  auto stats = RunCluster1(config, &report);
  // RunCluster1 itself enforces quiescence and, for serializable runs,
  // that the surviving document equals a single-threaded replay of the
  // committed transactions in commit order.
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(report.injected_faults, 0u);
  EXPECT_EQ(report.injection_log.size(), report.injected_faults);
  // Commit sequence numbers are unique and sorted in the report.
  for (size_t i = 1; i < report.committed.size(); ++i) {
    EXPECT_LT(report.committed[i - 1].seq, report.committed[i].seq);
  }
  EXPECT_EQ(stats->total_committed() > 0, !report.committed.empty());
}

TEST(ChaosRunTest, Node2PLRepeatableSurvivesChaosStructurally) {
  // Node2PL supports neither serializable isolation nor the replay
  // invariant; the run still must end quiescent with a valid document.
  RunConfig config = ChaosConfig("Node2PL", IsolationLevel::kRepeatable);
  ChaosReport report;
  auto stats = RunCluster1(config, &report);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(report.injected_faults, 0u);
}

TEST(ChaosRunTest, RetryCounterFeedsRunStats) {
  // With aggressive lock faults every worker aborts often; the bounded
  // retry loop must record its retries.
  RunConfig config = ChaosConfig("taDOM3+", IsolationLevel::kRepeatable);
  config.faults.points.clear();
  config.faults.points.emplace_back(
      std::string(fault_points::kLockTimeout),
      FaultPointConfig{.probability = 0.2});
  auto stats = RunCluster1(config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->total_retries(), 0u);
  EXPECT_GT(stats->lock_stats.timeouts, 0u);
}

}  // namespace
}  // namespace xtc
