// Tests for the TaMix coordinator: configuration scaling, error paths,
// CLUSTER2 semantics, the protocol-factory override and the worker
// loop's retry/abort accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "protocols/tadom_protocols.h"
#include "tamix/coordinator.h"
#include "tx/transaction_manager.h"

namespace xtc {
namespace {

TEST(RunConfigTest, ScalingIsUniform) {
  RunConfig config;
  config.time_scale = 1.0 / 50.0;
  EXPECT_EQ(ToMillis(config.Scaled(std::chrono::minutes(5))), 6000);
  EXPECT_EQ(ToMillis(config.Scaled(Millis(2500))), 50);
  EXPECT_EQ(ToMillis(config.Scaled(Millis(100))), 2);
}

TEST(WorkloadMixTest, PaperCluster1Counts) {
  WorkloadMix mix;  // defaults = the paper's CLUSTER1
  EXPECT_EQ(mix.WorkersPerClient(), 24);
  EXPECT_EQ(mix.clients * mix.WorkersPerClient(), 72);
}

/// A TaMixDom whose every operation fails with `status`.
class FailingDom : public TaMixDom {
 public:
  Status status;

  StatusOr<std::optional<Splid>> GetElementById(std::string_view) override {
    return status;
  }
  StatusOr<std::vector<std::pair<std::string, std::string>>> GetAttributes(
      const Splid&) override {
    return status;
  }
  StatusOr<std::optional<DomNode>> GetFirstChild(const Splid&) override {
    return status;
  }
  StatusOr<std::optional<DomNode>> GetLastChild(const Splid&) override {
    return status;
  }
  StatusOr<std::optional<DomNode>> GetNextSibling(const Splid&) override {
    return status;
  }
  StatusOr<std::vector<DomNode>> GetChildNodes(const Splid&) override {
    return status;
  }
  StatusOr<std::string> GetTextContent(const Splid&) override {
    return status;
  }
  Status DeclareUpdateIntent(const Splid&) override { return status; }
  Status UpdateText(const Splid&, std::string_view) override { return status; }
  Status SetAttribute(const Splid&, std::string_view,
                      std::string_view) override {
    return status;
  }
  StatusOr<Splid> AppendSubtree(const Splid&, const SubtreeSpec&) override {
    return status;
  }
  Status DeleteSubtree(const Splid&) override { return status; }
  Status Rename(const Splid&, std::string_view) override { return status; }
};

/// What one Begin of a ScriptedSession does.
struct Step {
  /// Begin fails with kResourceExhausted (admission pushback).
  bool pushback = false;
  /// Otherwise every body operation fails with this; OK runs the body on
  /// the real document.
  Status body;
  /// Abort reports an undo failure.
  bool undo_fails = false;
};

/// A LocalSession whose Begin outcomes, body failures and Abort results
/// follow a script; past its end it stops the run.
class ScriptedSession : public TaMixSession {
 public:
  ScriptedSession(TransactionManager* txm, NodeManager* nm,
                  std::vector<Step> script, std::atomic<bool>* stop)
      : inner_(txm, nm), script_(std::move(script)), stop_(stop) {}

  Status Begin(IsolationLevel isolation, int lock_depth,
               TxType type) override {
    if (next_ == script_.size()) {
      stop_->store(true);
      return Status::Cancelled("script done");
    }
    step_ = script_[next_++];
    if (step_.pushback) return Status::ResourceExhausted("admission cap");
    failing_.status = step_.body;
    return inner_.Begin(isolation, lock_depth, type);
  }
  TaMixDom& dom() override {
    return step_.body.ok() ? inner_.dom() : failing_;
  }
  StatusOr<uint64_t> Commit(std::string_view payload) override {
    return inner_.Commit(payload);
  }
  Status Abort() override {
    const Status undone = inner_.Abort();
    if (step_.undo_fails) return Status::IoError("injected undo failure");
    return undone;
  }

 private:
  LocalSession inner_;
  std::vector<Step> script_;
  std::atomic<bool>* stop_;
  size_t next_ = 0;
  Step step_;
  FailingDom failing_;
};

TEST(WorkerLoopTest, RetriesPushbackCancelAndUndoAccounting) {
  Document doc;
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  ASSERT_TRUE(info.ok());
  auto protocol = CreateProtocol("taDOM3+");
  LockManager lm(protocol.get());
  TransactionManager tm(&lm);
  NodeManager nm(&doc, &lm);

  RunConfig config;
  config.max_retries = 2;
  config.max_initial_wait = Duration::zero();
  config.wait_after_commit = Duration::zero();
  config.wait_after_operation = Duration::zero();
  config.retry_backoff = Millis(1);
  config.retry_backoff_max = Millis(1);

  const Step pushback{true, Status::OK(), false};
  const Step deadlock{false, Status::Deadlock("scripted"), false};
  const Step commit{false, Status::OK(), false};
  std::atomic<bool> stop{false};
  ScriptedSession session(
      &tm, &nm,
      {// Item 1: two pushbacks consume no attempt, so the deadlock is
       // retried and attempt 1 commits.
       pushback, pushback, deadlock, commit,
       // Item 2: three deadlocks — attempts 0..max_retries — then it is
       // given up. Item 3 commits.
       deadlock, deadlock, deadlock, commit,
       // Item 4: cancelled by stop, not an abort.
       {false, Status::Cancelled("scripted"), false},
       // Item 5: a non-retryable failure whose undo fails.
       {false, Status::InvalidArgument("scripted"), true}},
      &stop);
  MetricsCollector metrics;
  RunTaMixWorker(WorkerShared{&config, &*info, &stop, &metrics}, session,
                 TxType::kQueryBook, 0);

  const TxTypeStats stats = metrics.Snapshot().all_types();
  EXPECT_EQ(stats.committed, 2u);
  EXPECT_EQ(stats.aborted, 5u);  // 4 deadlocks + the invalid argument
  EXPECT_EQ(stats.deadlock_aborts, 4u);
  EXPECT_EQ(stats.retries, 3u);  // 1 in item 1, max_retries in item 2
  EXPECT_EQ(stats.undo_failures, 1u);
  EXPECT_EQ(tm.num_active(), 0u);
}

TEST(CoordinatorTest, UnknownProtocolIsAnError) {
  RunConfig config;
  config.protocol = "taDOM99";
  config.bib = BibConfig::Tiny();
  config.time_scale = 1.0 / 1000.0;
  auto stats = RunCluster1(config);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(CoordinatorTest, ProtocolFactoryOverridesName) {
  RunConfig config;
  config.protocol = "this-name-is-ignored";
  config.protocol_factory = [](LockTableOptions options) {
    return std::make_unique<TaDomProtocol>(TaDomVariant::kTaDom2, options);
  };
  config.bib = BibConfig::Tiny();
  config.time_scale = 1.0 / 600.0;  // 0.5 s
  config.mix.clients = 1;
  config.mix.query_book = 2;
  config.mix.chapter = 1;
  config.mix.rename_topic = 1;
  config.mix.lend_and_return = 1;
  auto stats = RunCluster1(config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->total_committed(), 0u);
}

TEST(CoordinatorTest, Cluster2ForcesRepeatableAndCountsDeletions) {
  RunConfig config;
  config.protocol = "taDOM3+";
  config.isolation = IsolationLevel::kNone;  // must be overridden
  config.bib = BibConfig::Tiny();
  auto result = RunCluster2(config, /*deletions=*/4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->deletions, 4);
  EXPECT_GT(result->total_us, 0);
  EXPECT_GT(result->ms_per_deletion(), 0.0);
  // Repeatable read was actually used: locks were requested.
  EXPECT_GT(result->lock_requests, 0u);
}

TEST(CoordinatorTest, Cluster2TwoPlGroupIssuesFarMoreLockRequests) {
  // The Fig. 11 mechanism as an invariant: the *-2PL group's deletion
  // protocol issues several times the lock requests of taDOM3+.
  RunConfig config;
  config.bib = BibConfig::Tiny();
  config.protocol = "Node2PL";
  auto two_pl = RunCluster2(config, 3);
  ASSERT_TRUE(two_pl.ok());
  config.protocol = "taDOM3+";
  auto tadom = RunCluster2(config, 3);
  ASSERT_TRUE(tadom.ok());
  EXPECT_GT(two_pl->lock_requests, 3 * tadom->lock_requests);
}

TEST(CoordinatorTest, RunStatsNormalization) {
  RunStats stats;
  stats.per_type[0].committed = 50;
  stats.per_type[1].committed = 25;
  stats.per_type[1].aborted = 5;
  stats.run_duration_ms = 1500;  // 75 commits / 1.5 s -> 15000 / 5 min
  EXPECT_EQ(stats.total_committed(), 75u);
  EXPECT_EQ(stats.total_aborted(), 5u);
  EXPECT_DOUBLE_EQ(stats.throughput_per_5min(), 15000.0);
}

}  // namespace
}  // namespace xtc
