// Chaos / stress tests: concurrent mixed workloads with frequent aborts
// must leave the document structurally intact, the indexes exact, and
// the lock table empty.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/coordinator.h"
#include "tx/transaction_manager.h"

namespace xtc {
namespace {

class StressTest : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(Contest, StressTest,
                         ::testing::Values("taDOM3+", "taDOM2", "URIX",
                                           "Node2PLa", "OO2PL"),
                         [](const auto& info) {
                           std::string n(info.param);
                           for (char& c : n) {
                             if (c == '+') c = 'p';
                           }
                           return n;
                         });

TEST_P(StressTest, ConcurrentChaosLeavesDocumentConsistent) {
  Document doc;
  BibConfig config = BibConfig::Tiny();
  auto info = GenerateBib(&doc, config);
  ASSERT_TRUE(info.ok());
  LockTableOptions options;
  options.wait_timeout = Millis(250);
  auto protocol = CreateProtocol(GetParam(), options);
  LockManager lm(protocol.get());
  TransactionManager tm(&lm);
  NodeManager nm(&doc, &lm);
  TaMixBodyRunner bodies(&*info, Duration::zero());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0}, aborts{0}, errors{0};
  std::vector<std::thread> workers;
  const TxType types[] = {TxType::kQueryBook, TxType::kChapter,
                          TxType::kLendAndReturn, TxType::kRenameTopic};
  for (int w = 0; w < 12; ++w) {
    workers.emplace_back([&, w]() {
      Rng rng(static_cast<uint64_t>(w) + 77);
      while (!stop.load(std::memory_order_relaxed)) {
        auto tx = tm.Begin(IsolationLevel::kRepeatable, 6);
        LocalDom dom(&nm, tx.get());
        Status st = bodies.RunBody(types[w % 4], dom, rng);
        if (st.ok()) {
          if (tm.Commit(*tx).ok()) commits.fetch_add(1);
        } else {
          if (!st.IsRetryable()) errors.fetch_add(1);
          (void)tm.Abort(*tx);
          aborts.fetch_add(1);
        }
      }
    });
  }
  SleepFor(Millis(1200));
  stop.store(true);
  for (auto& w : workers) w.join();

  EXPECT_GT(commits.load(), 100u) << GetParam();
  EXPECT_EQ(errors.load(), 0u) << GetParam();
  // Every lock must be gone, and the document must audit clean.
  EXPECT_EQ(protocol->table().NumLockedResources(), 0u);
  Status audit = doc.Validate();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  // Structure: topics still exist; every surviving book has 5 children.
  EXPECT_EQ(doc.ElementsByName("topic").size(), config.num_topics);
  for (const Splid& book : doc.ElementsByName("book")) {
    auto children = doc.Children(book);
    ASSERT_TRUE(children.ok());
    EXPECT_EQ(children->size(), 5u);
  }
}

TEST_P(StressTest, AbortStormRestoresExactState) {
  // Run transactions that ALWAYS abort; afterwards the document must be
  // byte-identical in structure to the initial one.
  Document doc;
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  ASSERT_TRUE(info.ok());
  const uint64_t nodes_before = doc.num_nodes();
  const size_t lends_before = doc.ElementsByName("lend").size();

  LockTableOptions options;
  options.wait_timeout = Millis(250);
  auto protocol = CreateProtocol(GetParam(), options);
  LockManager lm(protocol.get());
  TransactionManager tm(&lm);
  NodeManager nm(&doc, &lm);
  TaMixBodyRunner bodies(&*info, Duration::zero());

  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w]() {
      Rng rng(static_cast<uint64_t>(w) * 13 + 5);
      const TxType types[] = {TxType::kChapter, TxType::kLendAndReturn,
                              TxType::kRenameTopic, TxType::kDelBook};
      for (int round = 0; round < 30; ++round) {
        auto tx = tm.Begin(IsolationLevel::kRepeatable, 6);
        LocalDom dom(&nm, tx.get());
        (void)bodies.RunBody(types[w % 4], dom, rng);
        (void)tm.Abort(*tx);  // always roll back
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(doc.num_nodes(), nodes_before);
  EXPECT_EQ(doc.ElementsByName("lend").size(), lends_before);
  Status audit = doc.Validate();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_EQ(protocol->table().NumLockedResources(), 0u);
}

TEST(StressLockSetTest, ConcurrentLockSetsStayCoherentWithTheTable) {
  // Hammer one shared ancestor path from many threads, mixing re-locks
  // (lock-set hits), EndOperation downgrades, and full releases. Each
  // thread owns its transaction ids, so the coherence probe — the size of
  // a transaction's lock set must equal the holds the resource shards
  // list for it — can run safely mid-flight. Run under TSan this is also
  // the data-race check for the tx shards.
  LockTableOptions options;
  options.wait_timeout = Millis(250);
  auto protocol = CreateProtocol("taDOM3+", options);
  LockManager lm(protocol.get());
  LockTable& table = protocol->table();
  auto holds_in_shards = [&table](uint64_t id) {
    size_t n = 0;
    for (const auto& h : table.SnapshotHolds()) n += h.tx == id ? 1 : 0;
    return n;
  };

  const Splid parent = *Splid::Parse("1.3.3.3.3");
  std::vector<Splid> leaves;
  for (uint32_t i = 0; i < 8; ++i) leaves.push_back(parent.Child(2 * i + 3));

  std::atomic<uint64_t> incoherent{0}, errors{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 12; ++w) {
    workers.emplace_back([&, w]() {
      for (int round = 0; round < 40; ++round) {
        const uint64_t id = static_cast<uint64_t>(w) * 1000 +
                            static_cast<uint64_t>(round) + 1;
        TxLockView tx{id, round % 2 == 0 ? IsolationLevel::kRepeatable
                                         : IsolationLevel::kCommitted,
                      kMaxLockDepth};
        for (int op = 0; op < 20; ++op) {
          const Splid& leaf = leaves[static_cast<size_t>(op) % leaves.size()];
          Status st = op % 7 == 3 ? lm.NodeWrite(tx, leaf)
                                  : lm.NodeRead(tx, leaf);
          if (!st.ok() && !st.IsRetryable()) errors.fetch_add(1);
          if (table.LocksHeldBy(id) != holds_in_shards(id)) {
            incoherent.fetch_add(1);
          }
          if (!st.ok()) break;
          if (table.HeldMode(id, NodeResource(leaf)) == kNoMode) {
            incoherent.fetch_add(1);
          }
          if (op == 10) lm.EndOperation(tx);
        }
        lm.ReleaseAll(tx);
        if (table.LocksHeldBy(id) != 0 || holds_in_shards(id) != 0) {
          incoherent.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_EQ(table.NumLockedResources(), 0u);
  EXPECT_GT(table.GetStats().cache_hits, 0u);
}

TEST(StressIsolationTest, WeakIsolationChaosKeepsPhysicalIntegrity) {
  // Isolation "none": no locks, full races — the latching layer alone
  // must keep the physical structures coherent.
  Document doc;
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  ASSERT_TRUE(info.ok());
  auto protocol = CreateProtocol("taDOM3+");
  LockManager lm(protocol.get());
  TransactionManager tm(&lm);
  NodeManager nm(&doc, &lm);
  TaMixBodyRunner bodies(&*info, Duration::zero());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fatal{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 10; ++w) {
    workers.emplace_back([&, w]() {
      Rng rng(static_cast<uint64_t>(w) + 999);
      const TxType types[] = {TxType::kQueryBook, TxType::kLendAndReturn,
                              TxType::kChapter, TxType::kRenameTopic,
                              TxType::kDelBook};
      while (!stop.load(std::memory_order_relaxed)) {
        auto tx = tm.Begin(IsolationLevel::kNone, 6);
        LocalDom dom(&nm, tx.get());
        Status st = bodies.RunBody(types[w % 5], dom, rng);
        if (st.ok()) {
          (void)tm.Commit(*tx);
        } else {
          if (!st.IsRetryable() && st.code() != StatusCode::kInvalidArgument) {
            fatal.fetch_add(1);
          }
          (void)tm.Abort(*tx);
        }
      }
    });
  }
  SleepFor(Millis(800));
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(fatal.load(), 0u);
  Status audit = doc.Validate();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

}  // namespace
}  // namespace xtc
