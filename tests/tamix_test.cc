// Tests for the TaMix benchmark framework: bib generator shape, the five
// transaction bodies, and short CLUSTER1/CLUSTER2 runs across protocols.

#include <gtest/gtest.h>

#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/coordinator.h"
#include "tx/transaction_manager.h"

namespace xtc {
namespace {

TEST(BibGeneratorTest, PaperShapeCounts) {
  Document doc;
  BibConfig config = BibConfig::Tiny();
  auto info = GenerateBib(&doc, config);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->book_ids.size(), config.num_books);
  EXPECT_EQ(info->topic_ids.size(), config.num_topics);
  EXPECT_EQ(info->person_ids.size(), config.num_persons);
  EXPECT_EQ(doc.ElementsByName("book").size(), config.num_books);
  EXPECT_EQ(doc.ElementsByName("topic").size(), config.num_topics);
  EXPECT_EQ(doc.ElementsByName("person").size(), config.num_persons);
  // 12 books over 4 topics = 3 per topic.
  for (const auto& tid : info->topic_ids) {
    auto topic = doc.LookupId(tid);
    ASSERT_TRUE(topic.has_value());
    auto children = doc.Children(*topic);
    ASSERT_TRUE(children.ok());
    EXPECT_EQ(children->size(), 3u);
  }
  // Chapters within [min, max]; history lends within [min, max].
  for (const auto& bid : info->book_ids) {
    auto book = doc.LookupId(bid);
    ASSERT_TRUE(book.has_value());
    auto children = doc.Children(*book);
    ASSERT_TRUE(children.ok());
    ASSERT_EQ(children->size(), 5u);  // title author price chapters history
    auto chapters = doc.Children((*children)[3].splid);
    ASSERT_TRUE(chapters.ok());
    EXPECT_GE(chapters->size(), config.min_chapters);
    EXPECT_LE(chapters->size(), config.max_chapters);
    auto lends = doc.Children((*children)[4].splid);
    ASSERT_TRUE(lends.ok());
    EXPECT_GE(lends->size(), config.min_lends);
    EXPECT_LE(lends->size(), config.max_lends);
  }
}

TEST(BibGeneratorTest, DeterministicForFixedSeed) {
  Document a, b;
  auto ia = GenerateBib(&a, BibConfig::Tiny());
  auto ib = GenerateBib(&b, BibConfig::Tiny());
  ASSERT_TRUE(ia.ok() && ib.ok());
  EXPECT_EQ(ia->num_nodes, ib->num_nodes);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
}

class TaMixBodyTest : public ::testing::Test {
 protected:
  TaMixBodyTest() {
    EXPECT_TRUE(GenerateBib(&doc_, BibConfig::Tiny()).ok());
    info_ = *GenerateBibInfo();
    protocol_ = CreateProtocol("taDOM3+");
    lm_ = std::make_unique<LockManager>(protocol_.get());
    tm_ = std::make_unique<TransactionManager>(lm_.get());
    nm_ = std::make_unique<NodeManager>(&doc_, lm_.get());
    bodies_ = std::make_unique<TaMixBodyRunner>(&info_, Duration::zero());
  }

  StatusOr<BibInfo> GenerateBibInfo() {
    // Regenerate the id lists without rebuilding (same config+seed).
    Document scratch;
    return GenerateBib(&scratch, BibConfig::Tiny());
  }

  Status RunOne(TxType type, uint64_t seed = 1) {
    auto tx = tm_->Begin(IsolationLevel::kRepeatable, 7);
    Rng rng(seed);
    LocalDom dom(nm_.get(), tx.get());
    Status st = bodies_->RunBody(type, dom, rng);
    if (st.ok()) return tm_->Commit(*tx);
    (void)tm_->Abort(*tx);
    return st;
  }

  Document doc_;
  BibInfo info_;
  std::unique_ptr<XmlProtocol> protocol_;
  std::unique_ptr<LockManager> lm_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<NodeManager> nm_;
  std::unique_ptr<TaMixBodyRunner> bodies_;
};

TEST_F(TaMixBodyTest, QueryBookReadsWithoutModifying) {
  const uint64_t before = doc_.num_nodes();
  ASSERT_TRUE(RunOne(TxType::kQueryBook).ok());
  EXPECT_EQ(doc_.num_nodes(), before);
}

TEST_F(TaMixBodyTest, ChapterUpdatesASummary) {
  ASSERT_TRUE(RunOne(TxType::kChapter).ok());
  // Some summary text node now carries the revised content.
  bool found = false;
  for (const auto& s : doc_.ElementsByName("summary")) {
    auto text = doc_.FirstChild(s);
    if (!text.ok() || !text->has_value()) continue;
    auto str = doc_.Get((*text)->splid.AttributeChild());
    if (str.ok() && str->content.rfind("revised summary", 0) == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TaMixBodyTest, DelBookRemovesOneBook) {
  const size_t books_before = doc_.ElementsByName("book").size();
  ASSERT_TRUE(RunOne(TxType::kDelBook).ok());
  EXPECT_EQ(doc_.ElementsByName("book").size(), books_before - 1);
}

TEST_F(TaMixBodyTest, LendAndReturnChangesLendCount) {
  const size_t lends_before = doc_.ElementsByName("lend").size();
  ASSERT_TRUE(RunOne(TxType::kLendAndReturn).ok());
  EXPECT_NE(doc_.ElementsByName("lend").size(), lends_before);
}

TEST_F(TaMixBodyTest, RenameTopicKeepsStructure) {
  const uint64_t before = doc_.num_nodes();
  ASSERT_TRUE(RunOne(TxType::kRenameTopic).ok());
  EXPECT_EQ(doc_.num_nodes(), before);
  EXPECT_EQ(doc_.ElementsByName("topic").size(),
            BibConfig::Tiny().num_topics);
}

TEST_F(TaMixBodyTest, AllTypesRunBackToBack) {
  for (int round = 0; round < 5; ++round) {
    for (TxType type :
         {TxType::kQueryBook, TxType::kChapter, TxType::kLendAndReturn,
          TxType::kRenameTopic}) {
      Status st = RunOne(type, static_cast<uint64_t>(round * 10 +
                                                     static_cast<int>(type)));
      ASSERT_TRUE(st.ok()) << TxTypeName(type) << ": " << st.ToString();
    }
  }
}

// --------------------------------------------------------------------------
// Short end-to-end cluster runs across every protocol.
// --------------------------------------------------------------------------

class ClusterSmokeTest : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(Contest, ClusterSmokeTest,
                         ::testing::ValuesIn(AllProtocolNames()),
                         [](const auto& info) {
                           std::string n(info.param);
                           for (char& c : n) {
                             if (c == '+') c = 'p';
                           }
                           return n;
                         });

TEST_P(ClusterSmokeTest, Cluster1ShortRunCommitsTransactions) {
  RunConfig config;
  config.protocol = std::string(GetParam());
  config.bib = BibConfig::Tiny();
  config.time_scale = 1.0 / 300.0;  // 5 min -> 1 s
  config.mix.clients = 1;
  config.mix.query_book = 3;
  config.mix.chapter = 2;
  config.mix.rename_topic = 1;
  config.mix.lend_and_return = 2;
  config.lock_depth = 5;
  auto stats = RunCluster1(config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->total_committed(), 0u) << GetParam();
  // Every transaction type must make progress even under contention.
  EXPECT_GT(stats->per_type[static_cast<int>(TxType::kQueryBook)].committed,
            0u)
      << GetParam();
  // Aborts can only stem from deadlocks or lock timeouts.
  for (const auto& type_stats : stats->per_type) {
    EXPECT_EQ(type_stats.aborted,
              type_stats.deadlock_aborts + type_stats.timeout_aborts);
  }
}

TEST_P(ClusterSmokeTest, Cluster2SingleUserDeletions) {
  RunConfig config;
  config.protocol = std::string(GetParam());
  config.bib = BibConfig::Tiny();
  auto result = RunCluster2(config, /*deletions=*/3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->deletions, 3);
  EXPECT_GT(result->lock_requests, 0u);
}

TEST(ClusterConfigTest, IsolationNoneMatchesLocklessExecution) {
  RunConfig config;
  config.protocol = "taDOM3+";
  config.isolation = IsolationLevel::kNone;
  config.bib = BibConfig::Tiny();
  config.time_scale = 1.0 / 300.0;
  config.mix.clients = 1;
  config.mix.query_book = 2;
  config.mix.chapter = 1;
  config.mix.rename_topic = 1;
  config.mix.lend_and_return = 1;
  auto stats = RunCluster1(config);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->total_committed(), 0u);
  EXPECT_EQ(stats->lock_stats.requests, 0u);  // no locks at all
  EXPECT_EQ(stats->total_deadlocks(), 0u);
}

}  // namespace
}  // namespace xtc
