// Tests of the benchmark's own pieces: the exact percentile and the
// tracing decorators (which must change nothing but the timing).

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "node/node_manager.h"
#include "percentile.h"
#include "protocols/protocol_registry.h"
#include "tamix/bib_generator.h"
#include "tamix/invariants.h"
#include "tamix/transactions.h"
#include "trace.h"
#include "traced_layers.h"
#include "tx/transaction_manager.h"
#include "util/rng.h"

namespace xtc::perfbench {
namespace {

double SortedReference(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = 1;
  while (rank < v.size() && static_cast<double>(rank) < q * v.size()) ++rank;
  return v[rank - 1];
}

TEST(PercentileTest, MatchesSortedReference) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>(rng.Uniform(5000)) / 7.0);
    }
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      std::vector<double> work = samples;
      EXPECT_EQ(Percentile(work, q), SortedReference(samples, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileTest, NeverExceedsTheMaximum) {
  std::vector<double> samples = {3, 1, 2};
  EXPECT_EQ(Percentile(samples, 0.99), 3);
  EXPECT_EQ(Percentile(samples, 0.5), 2);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(empty, 0.5), 0);
}

struct SequenceResult {
  LockTableStats lock;
  uint64_t fingerprint = 0;
  uint64_t committed = 0;
};

/// A seeded single-thread TaMix sequence over every transaction type,
/// through the bare stack (tracer == nullptr) or through both decorators.
SequenceResult RunSequence(Tracer* tracer, IsolationLevel isolation) {
  Document doc;
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  EXPECT_TRUE(info.ok());
  std::unique_ptr<XmlProtocol> protocol = CreateProtocol("taDOM3+", {});
  if (tracer != nullptr) {
    protocol = std::make_unique<TracedProtocol>(std::move(protocol), tracer);
  }
  LockManager locks(protocol.get());
  TransactionManager txm(&locks);
  NodeManager nm(&doc, &locks);
  TaMixBodyRunner bodies(&*info, Duration::zero());
  Rng rng(11);
  SequenceResult out;
  for (int i = 0; i < 60; ++i) {
    const auto type = static_cast<TxType>(i % kNumTxTypes);
    auto tx = txm.Begin(isolation, 7);
    LocalDom local(&nm, tx.get());
    TracedDom traced(&local, tracer, SpanKind::kNodeOp, tx->id());
    TaMixDom& dom = tracer != nullptr ? static_cast<TaMixDom&>(traced) : local;
    Rng body_rng(rng.Next());
    Status st = bodies.RunBody(type, dom, body_rng);
    if (st.ok()) {
      EXPECT_TRUE(txm.Commit(*tx).ok());
      out.committed++;
    } else {
      EXPECT_TRUE(txm.Abort(*tx).ok());
    }
  }
  out.lock = protocol->table().GetStats();
  auto fp = DocumentFingerprint(doc);
  EXPECT_TRUE(fp.ok());
  out.fingerprint = *fp;
  EXPECT_TRUE(CheckQuiescent(protocol->table(), doc).ok());
  return out;
}

// Committed isolation adds the EndOperation release event, serializable
// the id-value locks, so together they reach every protocol entry point.
TEST(DecoratorTest, TracedRunMatchesBareRun) {
  for (IsolationLevel isolation :
       {IsolationLevel::kCommitted, IsolationLevel::kRepeatable,
        IsolationLevel::kSerializable}) {
    SCOPED_TRACE(IsolationLevelName(isolation));
    const SequenceResult bare = RunSequence(nullptr, isolation);
    Tracer tracer;
    tracer.SetRecording(true);
    const SequenceResult traced = RunSequence(&tracer, isolation);
    EXPECT_GT(bare.lock.requests, 0u);
    EXPECT_EQ(traced.lock.requests, bare.lock.requests);
    EXPECT_EQ(traced.lock.conversions, bare.lock.conversions);
    EXPECT_EQ(traced.fingerprint, bare.fingerprint);
    EXPECT_EQ(traced.committed, bare.committed);
    const auto spans = tracer.Aggregate();
    EXPECT_GT(spans[static_cast<size_t>(SpanKind::kNodeOp)].count, 0u);
    EXPECT_GT(spans[static_cast<size_t>(SpanKind::kLockCall)].count, 0u);
    EXPECT_EQ(spans[static_cast<size_t>(SpanKind::kLockReleaseAll)].count,
              60u);
    // LockManager forwards EndOperation only under committed isolation.
    EXPECT_EQ(spans[static_cast<size_t>(SpanKind::kLockEndOp)].count > 0,
              isolation == IsolationLevel::kCommitted);
  }
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer tracer;
  tracer.SetRecording(true);
  {
    Span outer(&tracer, SpanKind::kTxn, 1);
    for (int i = 0; i < 3; ++i) {
      Span inner(&tracer, SpanKind::kNodeOp, 1);
      SleepFor(Millis(2));
    }
  }
  const auto spans = tracer.Aggregate();
  const SpanTotals& txn = spans[static_cast<size_t>(SpanKind::kTxn)];
  const SpanTotals& node = spans[static_cast<size_t>(SpanKind::kNodeOp)];
  ASSERT_EQ(txn.count, 1u);
  ASSERT_EQ(node.count, 3u);
  EXPECT_GE(node.total_us, 6000);
  EXPECT_DOUBLE_EQ(node.self_us, node.total_us);
  EXPECT_NEAR(txn.self_us, txn.total_us - node.total_us, 1e-6);
  EXPECT_LT(txn.self_us, 1000);
}

TEST(TracerTest, SpansOpenedWhileNotRecordingAreNotCounted) {
  Tracer tracer;
  { Span s(&tracer, SpanKind::kLockCall, 1); }
  tracer.SetRecording(true);
  { Span s(&tracer, SpanKind::kLockCall, 2); }
  EXPECT_EQ(tracer.Aggregate()[static_cast<size_t>(SpanKind::kLockCall)].count,
            1u);
}

}  // namespace
}  // namespace xtc::perfbench
