// Tests for transactions, the transaction manager, metrics and the
// deadlock event log.

#include <gtest/gtest.h>

#include "protocols/protocol_registry.h"
#include "tamix/metrics.h"
#include "tx/transaction_manager.h"

namespace xtc {
namespace {

class TxTest : public ::testing::Test {
 protected:
  TxTest() : protocol_(CreateProtocol("taDOM3+")), lm_(protocol_.get()),
             tm_(&lm_) {}

  std::unique_ptr<XmlProtocol> protocol_;
  LockManager lm_;
  TransactionManager tm_;
};

TEST_F(TxTest, IdsAreUniqueAndMonotone) {
  auto a = tm_.Begin(IsolationLevel::kRepeatable, 4);
  auto b = tm_.Begin(IsolationLevel::kCommitted, 2);
  EXPECT_LT(a->id(), b->id());
  EXPECT_EQ(a->isolation(), IsolationLevel::kRepeatable);
  EXPECT_EQ(b->lock_depth(), 2);
  EXPECT_EQ(a->state(), TxState::kActive);
}

TEST_F(TxTest, CommitReleasesLocksAndCounts) {
  auto tx = tm_.Begin(IsolationLevel::kRepeatable, 7);
  ASSERT_TRUE(lm_.NodeRead(tx->LockView(), *Splid::Parse("1.3")).ok());
  EXPECT_GT(protocol_->table().LocksHeldBy(tx->id()), 0u);
  ASSERT_TRUE(tm_.Commit(*tx).ok());
  EXPECT_EQ(tx->state(), TxState::kCommitted);
  EXPECT_EQ(protocol_->table().LocksHeldBy(tx->id()), 0u);
  EXPECT_EQ(tm_.num_committed(), 1u);
  EXPECT_EQ(tm_.num_aborted(), 0u);
}

TEST_F(TxTest, ActiveCountTracksLifecycle) {
  EXPECT_EQ(tm_.num_active(), 0u);
  auto a = tm_.Begin(IsolationLevel::kRepeatable, 4);
  auto b = tm_.Begin(IsolationLevel::kCommitted, 2);
  EXPECT_EQ(tm_.num_active(), 2u);
  ASSERT_TRUE(tm_.Commit(*a).ok());
  EXPECT_EQ(tm_.num_active(), 1u);
  ASSERT_TRUE(tm_.Abort(*b).ok());
  EXPECT_EQ(tm_.num_active(), 0u);
  // A rejected double-finish must not decrement past zero.
  EXPECT_FALSE(tm_.Commit(*a).ok());
  EXPECT_EQ(tm_.num_active(), 0u);
}

TEST_F(TxTest, DoubleCommitRejected) {
  auto tx = tm_.Begin(IsolationLevel::kRepeatable, 7);
  ASSERT_TRUE(tm_.Commit(*tx).ok());
  EXPECT_FALSE(tm_.Commit(*tx).ok());
  EXPECT_FALSE(tm_.Abort(*tx).ok());
}

TEST_F(TxTest, AbortRunsUndoInReverseOrder) {
  auto tx = tm_.Begin(IsolationLevel::kRepeatable, 7);
  std::vector<int> order;
  tx->AddUndo([&order]() {
    order.push_back(1);
    return Status::OK();
  });
  tx->AddUndo([&order]() {
    order.push_back(2);
    return Status::OK();
  });
  tx->AddUndo([&order]() {
    order.push_back(3);
    return Status::OK();
  });
  ASSERT_TRUE(tm_.Abort(*tx).ok());
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(tx->state(), TxState::kAborted);
  EXPECT_EQ(tm_.num_aborted(), 1u);
}

TEST_F(TxTest, AbortKeepsUndoingAfterAFailingEntry) {
  auto tx = tm_.Begin(IsolationLevel::kRepeatable, 7);
  std::vector<int> order;
  tx->AddUndo([&order]() {
    order.push_back(1);
    return Status::OK();
  });
  tx->AddUndo([]() { return Status::Internal("undo bug"); });
  tx->AddUndo([&order]() {
    order.push_back(3);
    return Status::OK();
  });
  Status st = tm_.Abort(*tx);
  EXPECT_FALSE(st.ok());  // the failure is reported ...
  EXPECT_EQ(order, (std::vector<int>{3, 1}));  // ... but undo continued
}

TEST_F(TxTest, FailedUndoStillReleasesLocksAndMarksAborted) {
  auto tx = tm_.Begin(IsolationLevel::kRepeatable, 7);
  ASSERT_TRUE(lm_.NodeRead(tx->LockView(), *Splid::Parse("1.3")).ok());
  ASSERT_GT(protocol_->table().LocksHeldBy(tx->id()), 0u);
  tx->AddUndo([]() { return Status::OK(); });
  tx->AddUndo([]() { return Status::IoError("disk gone"); });
  Status st = tm_.Abort(*tx);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The error carries the failing action's position in the rollback (the
  // last-added action runs first, i.e. position 2 of 2).
  EXPECT_NE(st.message().find("undo action 2 of 2 failed"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("disk gone"), std::string::npos);
  // A failed rollback must not leave the system wedged: state is
  // kAborted, all locks are gone, the abort is counted.
  EXPECT_EQ(tx->state(), TxState::kAborted);
  EXPECT_EQ(protocol_->table().LocksHeldBy(tx->id()), 0u);
  EXPECT_EQ(tm_.num_aborted(), 1u);
  EXPECT_EQ(tm_.num_undo_failures(), 1u);
}

TEST_F(TxTest, FirstOfSeveralUndoFailuresIsReported) {
  auto tx = tm_.Begin(IsolationLevel::kRepeatable, 7);
  tx->AddUndo([]() { return Status::Internal("second failure"); });
  tx->AddUndo([]() { return Status::Internal("first failure"); });
  Status st = tm_.Abort(*tx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("first failure"), std::string::npos);
  EXPECT_EQ(st.message().find("second failure"), std::string::npos);
  EXPECT_EQ(tm_.num_undo_failures(), 2u);
}

TEST_F(TxTest, CommitSequenceNumbersAreMonotone) {
  auto a = tm_.Begin(IsolationLevel::kRepeatable, 7);
  auto b = tm_.Begin(IsolationLevel::kRepeatable, 7);
  EXPECT_EQ(a->commit_seq(), 0u);  // unassigned while active
  ASSERT_TRUE(tm_.Commit(*a).ok());
  ASSERT_TRUE(tm_.Commit(*b).ok());
  EXPECT_EQ(a->commit_seq(), 1u);
  EXPECT_EQ(b->commit_seq(), 2u);
  EXPECT_EQ(tm_.num_committed(), 2u);
}

TEST(MetricsTest, CollectorAggregatesPerType) {
  MetricsCollector metrics;
  metrics.RecordCommit(TxType::kQueryBook, 1000);
  metrics.RecordCommit(TxType::kQueryBook, 3000);
  metrics.RecordCommit(TxType::kChapter, 2000);
  metrics.RecordAbort(TxType::kChapter, Status::Deadlock());
  metrics.RecordAbort(TxType::kChapter, Status::LockTimeout());
  metrics.RecordRetry(TxType::kChapter);
  metrics.RecordRetry(TxType::kChapter);
  metrics.RecordUndoFailure(TxType::kQueryBook);
  RunStats stats = metrics.Snapshot();
  const auto& qb = stats.per_type[static_cast<int>(TxType::kQueryBook)];
  EXPECT_EQ(qb.committed, 2u);
  EXPECT_EQ(qb.latency.min_us, 1000);
  EXPECT_EQ(qb.latency.max_us, 3000);
  EXPECT_DOUBLE_EQ(qb.avg_duration_ms(), 2.0);
  const auto& ch = stats.per_type[static_cast<int>(TxType::kChapter)];
  EXPECT_EQ(ch.aborted, 2u);
  EXPECT_EQ(ch.deadlock_aborts, 1u);
  EXPECT_EQ(ch.timeout_aborts, 1u);
  EXPECT_EQ(ch.retries, 2u);
  EXPECT_EQ(stats.total_committed(), 3u);
  EXPECT_EQ(stats.total_aborted(), 2u);
  EXPECT_EQ(stats.total_retries(), 2u);
  EXPECT_EQ(stats.total_undo_failures(), 1u);
  // Normalization: 3 commits in 1 s -> 900/5min.
  stats.run_duration_ms = 1000;
  EXPECT_DOUBLE_EQ(stats.throughput_per_5min(), 900.0);
}

TEST(DeadlockLogTest, EventsRecordedWithContext) {
  ModeTable modes;
  ModeId s = modes.AddMode("S");
  ModeId x = modes.AddMode("X");
  modes.SetCompatRow(s, "+ -");
  modes.SetCompatRow(x, "- -");
  ASSERT_TRUE(modes.DeriveMissingConversions().ok());
  LockTableOptions options;
  options.wait_timeout = Millis(400);
  LockTable table(&modes, options);

  ASSERT_TRUE(table.Lock(1, "r", s, LockDuration::kCommit).status.ok());
  ASSERT_TRUE(table.Lock(2, "r", s, LockDuration::kCommit).status.ok());
  std::thread t1([&]() {
    auto out = table.Lock(1, "r", x, LockDuration::kCommit);
    if (out.status.ok()) table.ReleaseAll(1);
  });
  SleepFor(Millis(60));
  auto out2 = table.Lock(2, "r", x, LockDuration::kCommit);
  ASSERT_TRUE(out2.status.IsDeadlock());
  table.ReleaseAll(2);
  t1.join();
  table.ReleaseAll(1);

  auto events = table.RecentDeadlocks();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, 2u);
  EXPECT_EQ(events[0].resource, "r");
  EXPECT_EQ(events[0].requested_mode, "X");
  EXPECT_TRUE(events[0].conversion);
  EXPECT_GE(events[0].blockers, 1u);
}

TEST(TxTypeNameTest, AllNamesDistinct) {
  std::set<std::string_view> names;
  for (int t = 0; t < kNumTxTypes; ++t) {
    names.insert(TxTypeName(static_cast<TxType>(t)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumTxTypes));
  EXPECT_EQ(TxTypeName(TxType::kQueryBook), "TAqueryBook");
}

TEST(IsolationNameTest, AllLevelsNamed) {
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kNone), "none");
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kUncommitted), "uncommitted");
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kCommitted), "committed");
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kRepeatable), "repeatable");
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kSerializable),
            "serializable");
}

}  // namespace
}  // namespace xtc
