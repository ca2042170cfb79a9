// Scenario tests pinning the qualitative differences between the
// protocol groups that drive the paper's §5 results:
//  * rename granularity (taDOM3 node-only NX vs. MGL subtree X vs.
//    Node2PLa parent M),
//  * level locks (taDOM LR vs. MGL per-child locks),
//  * conversion side effects (taDOM2 locks children, taDOM2+ does not),
//  * *-2PL direct-jump handling (IDX scan before subtree deletion),
//  * Node2PL blocking the entire level vs. NO2PL neighborhood locking.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tx/transaction_manager.h"

namespace xtc {
namespace {

SubtreeSpec Bib() {
  SubtreeSpec bib{"bib", {}, "", {}};
  SubtreeSpec topics{"topics", {}, "", {}};
  for (int t = 0; t < 2; ++t) {
    SubtreeSpec topic{"topic", {{"id", "t" + std::to_string(t)}}, "", {}};
    for (int b = 0; b < 3; ++b) {
      int n = t * 3 + b;
      SubtreeSpec book{"book", {{"id", "b" + std::to_string(n)}}, "", {}};
      book.children.push_back(SubtreeSpec{"title", {}, "T", {}});
      SubtreeSpec history{"history", {}, "", {}};
      for (int l = 0; l < 3; ++l) {
        history.children.push_back(SubtreeSpec{
            "lend", {{"person", "p" + std::to_string(l)}}, "", {}});
      }
      book.children.push_back(std::move(history));
      topic.children.push_back(std::move(book));
    }
    topics.children.push_back(std::move(topic));
  }
  bib.children.push_back(std::move(topics));
  return bib;
}

class Stack {
 public:
  explicit Stack(std::string_view protocol_name,
                 Duration timeout = Millis(150)) {
    EXPECT_TRUE(doc.BuildFromSpec(Bib()).ok());
    LockTableOptions options;
    options.wait_timeout = timeout;
    protocol = CreateProtocol(protocol_name, options);
    EXPECT_NE(protocol, nullptr);
    lm = std::make_unique<LockManager>(protocol.get());
    tm = std::make_unique<TransactionManager>(lm.get());
    nm = std::make_unique<NodeManager>(&doc, lm.get());
  }

  std::unique_ptr<Transaction> Begin(int depth = 7) {
    return tm->Begin(IsolationLevel::kRepeatable, depth);
  }

  Splid ById(Transaction& tx, const char* id) {
    auto r = nm->GetElementById(tx, id);
    EXPECT_TRUE(r.ok() && r->has_value()) << id;
    return **r;
  }

  Document doc;
  std::unique_ptr<XmlProtocol> protocol;
  std::unique_ptr<LockManager> lm;
  std::unique_ptr<TransactionManager> tm;
  std::unique_ptr<NodeManager> nm;
};

// --------------------------------------------------------------------------
// Rename granularity (Fig. 10d).
// --------------------------------------------------------------------------

// Under taDOM3+, renaming a topic must NOT block a reader inside one of
// the topic's books (NX is compatible with IR/IX intentions).
TEST(RenameGranularity, TaDom3RenameDoesNotBlockDeepReaders) {
  Stack s("taDOM3+");
  auto writer = s.Begin();
  Splid topic = s.ById(*writer, "t0");
  ASSERT_TRUE(s.nm->Rename(*writer, topic, "topic").ok());
  // Reader dives into a book under the renamed topic.
  auto reader = s.Begin();
  Splid book = s.ById(*reader, "b0");
  auto children = s.nm->GetChildNodes(*reader, book);
  EXPECT_TRUE(children.ok());  // no block, no timeout
  ASSERT_TRUE(s.tm->Commit(*reader).ok());
  ASSERT_TRUE(s.tm->Commit(*writer).ok());
}

// Under MGL (URIX), rename is an X on the whole subtree: the deep reader
// must block (and here: time out).
TEST(RenameGranularity, MglRenameBlocksDeepReaders) {
  Stack s("URIX");
  auto writer = s.Begin();
  Splid topic = s.ById(*writer, "t0");
  ASSERT_TRUE(s.nm->Rename(*writer, topic, "topic").ok());
  auto reader = s.Begin();
  auto jump = s.nm->GetElementById(*reader, "b0");
  EXPECT_FALSE(jump.ok());  // IR on topic vs X on topic -> blocked
  EXPECT_TRUE(jump.status().IsRetryable());
  ASSERT_TRUE(s.tm->Abort(*reader).ok());
  ASSERT_TRUE(s.tm->Commit(*writer).ok());
}

// Node2PLa renames with M on the *parent* (the topics node), which even
// blocks readers of the sibling topic — the very large granule of §5.2.
TEST(RenameGranularity, Node2PlaRenameBlocksSiblingTopics) {
  Stack s("Node2PLa");
  auto writer = s.Begin();
  Splid topic = s.ById(*writer, "t0");
  ASSERT_TRUE(s.nm->Rename(*writer, topic, "topic").ok());
  auto reader = s.Begin();
  // Navigating to the *other* topic requires T on topics (its parent),
  // which M on topics blocks.
  auto other = s.nm->GetElementById(*reader, "t1");
  EXPECT_FALSE(other.ok());
  EXPECT_TRUE(other.status().IsRetryable());
  ASSERT_TRUE(s.tm->Abort(*reader).ok());
  ASSERT_TRUE(s.tm->Commit(*writer).ok());
}

// --------------------------------------------------------------------------
// Level locks (taDOM's LR/CX vs. per-child locking).
// --------------------------------------------------------------------------

TEST(LevelLocks, TaDomGetChildNodesIsOneLockRequest) {
  Stack s("taDOM3+");
  auto tx = s.Begin();
  Splid book = s.ById(*tx, "b0");
  s.protocol->table().ResetStats();
  ASSERT_TRUE(s.nm->GetChildNodes(*tx, book).ok());
  // LR on book + IR path (3 ancestors) = 4 requests.
  EXPECT_LE(s.protocol->table().GetStats().requests, 4u);
  ASSERT_TRUE(s.tm->Commit(*tx).ok());
}

TEST(LevelLocks, MglGetChildNodesLocksEveryChild) {
  Stack s("IRIX");
  auto tx = s.Begin();
  Splid book = s.ById(*tx, "b0");
  s.protocol->table().ResetStats();
  ASSERT_TRUE(s.nm->GetChildNodes(*tx, book).ok());
  // No level lock: one request per child (attribute root + title +
  // history) plus the node and path.
  EXPECT_GE(s.protocol->table().GetStats().requests, 6u);
  ASSERT_TRUE(s.tm->Commit(*tx).ok());
}

TEST(LevelLocks, LevelReadBlocksChildDeletion) {
  Stack s("taDOM2");
  auto reader = s.Begin();
  auto writerTx = s.Begin();
  Splid book_r = s.ById(*reader, "b0");
  ASSERT_TRUE(s.nm->GetChildNodes(*reader, book_r).ok());  // LR on book
  // Writer deletes the history child: needs CX on book — blocked by LR.
  Splid book_w = s.ById(*writerTx, "b0");
  auto history = s.doc.LastChild(book_w);
  ASSERT_TRUE(history.ok() && history->has_value());
  Status st = s.nm->DeleteSubtree(*writerTx, (*history)->splid);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsRetryable());
  ASSERT_TRUE(s.tm->Abort(*writerTx).ok());
  ASSERT_TRUE(s.tm->Commit(*reader).ok());
}

// --------------------------------------------------------------------------
// Conversion side effects: taDOM2 locks children on LR->CX, taDOM2+ uses
// LRCX instead (the depth > 4 degradation of Fig. 10b).
// --------------------------------------------------------------------------

TEST(ConversionSideEffects, TaDom2ConvertsWithChildLocks) {
  Stack s2("taDOM2");
  Stack s2p("taDOM2+");
  for (Stack* s : {&s2, &s2p}) {
    auto tx = s->Begin();
    Splid book = s->ById(*tx, "b0");
    ASSERT_TRUE(s->nm->GetChildNodes(*tx, book).ok());  // LR on book
    s->protocol->table().ResetStats();
    // Delete the history child: CX on book. taDOM2: LR->CX_NR => one NR
    // per child; taDOM2+: LR->LRCX, no child locks.
    auto history = s->doc.LastChild(book);
    ASSERT_TRUE(s->nm->DeleteSubtree(*tx, (*history)->splid).ok());
    ASSERT_TRUE(s->tm->Commit(*tx).ok());
  }
  // The plus variant must issue strictly fewer lock requests.
  // (Both stacks executed the identical operation sequence.)
  // Note: stats were reset right before the conversion-triggering op.
  EXPECT_GT(s2.protocol->table().GetStats().requests,
            s2p.protocol->table().GetStats().requests);
}

// --------------------------------------------------------------------------
// Direct jumps and subtree deletion (*-2PL, Fig. 11).
// --------------------------------------------------------------------------

TEST(DirectJumps, TwoPlDeletionMustScanForIdAttributes) {
  Stack s("Node2PL");
  auto tx = s.Begin();
  Splid topic = s.ById(*tx, "t0");
  s.protocol->table().ResetStats();
  ASSERT_TRUE(s.nm->DeleteSubtree(*tx, topic).ok());
  // Three books with id attributes inside the topic: three IDX locks
  // (plus per-node M locks on the whole subtree).
  const auto& modes = s.protocol->table().modes();
  ModeId idx = modes.Find("IDX");
  ASSERT_NE(idx, kNoMode);
  // After the delete the IDX locks are still held (long duration).
  int idx_held = 0;
  // Deleted subtree: jump resources for t0 + b0..b2.
  for (const char* id : {"t0", "b0", "b1", "b2"}) {
    (void)id;
  }
  // We can't look up deleted labels by id anymore, so count via stats:
  // the request count must be much larger than the intention-protocol
  // equivalent (which needs no scan).
  Stack s3p("taDOM3+");
  auto tx3 = s3p.Begin();
  Splid topic3 = s3p.ById(*tx3, "t0");
  s3p.protocol->table().ResetStats();
  ASSERT_TRUE(s3p.nm->DeleteSubtree(*tx3, topic3).ok());
  EXPECT_GT(s.protocol->table().GetStats().requests,
            4 * s3p.protocol->table().GetStats().requests);
  (void)idx_held;
  ASSERT_TRUE(s.tm->Commit(*tx).ok());
  ASSERT_TRUE(s3p.tm->Commit(*tx3).ok());
}

TEST(DirectJumps, IdxLockBlocksJumpIntoDoomedSubtree) {
  Stack s("OO2PL");
  auto deleter = s.Begin();
  Splid topic = s.ById(*deleter, "t0");
  ASSERT_TRUE(s.nm->DeleteSubtree(*deleter, topic).ok());
  // (The subtree is already physically gone; a jumper simply misses.)
  auto jumper = s.Begin();
  auto b = s.nm->GetElementById(*jumper, "b0");
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->has_value());
  ASSERT_TRUE(s.tm->Commit(*jumper).ok());
  ASSERT_TRUE(s.tm->Commit(*deleter).ok());
}

// --------------------------------------------------------------------------
// Node2PL blocks the whole level; NO2PL only the neighborhood (§2.1).
// --------------------------------------------------------------------------

TEST(LevelBlocking, Node2PlWriterBlocksWholeLevelNo2PlDoesNot) {
  for (const char* name : {"Node2PL", "NO2PL"}) {
    Stack s(name);
    // Writer appends a new lend under history(b0): Node2PL M-locks the
    // history node (the parent of the context node), NO2PL only the
    // adjacent sibling (the previous last lend).
    auto writer = s.Begin();
    Splid b0 = s.ById(*writer, "b0");
    auto history = s.nm->GetLastChild(*writer, b0);
    ASSERT_TRUE(history.ok() && history->has_value());
    SubtreeSpec lend{"lend", {{"person", "p9"}}, "", {}};
    ASSERT_TRUE(s.nm->AppendSubtree(*writer, (*history)->splid, lend).ok());

    // A reader navigates to the *first* lend of the same history — a
    // different node of the same level.
    auto reader = s.Begin();
    Splid b0r = s.ById(*reader, "b0");
    auto history_r = s.doc.LastChild(b0r);
    ASSERT_TRUE(history_r.ok() && history_r->has_value());
    auto r = s.nm->GetFirstChild(*reader, (*history_r)->splid);
    if (std::string_view(name) == "NO2PL") {
      // Neighborhood locking: the first lend is untouched.
      EXPECT_TRUE(r.ok()) << name;
      ASSERT_TRUE(s.tm->Commit(*reader).ok());
    } else {
      // Node2PL: M on history blocks traversal to every lend.
      EXPECT_FALSE(r.ok()) << name;
      EXPECT_TRUE(r.status().IsRetryable()) << name;
      ASSERT_TRUE(s.tm->Abort(*reader).ok());
    }
    ASSERT_TRUE(s.tm->Commit(*writer).ok());
  }
}

// --------------------------------------------------------------------------
// Update mode prevents the classic conversion deadlock (URIX vs. IRIX).
// --------------------------------------------------------------------------

TEST(UpdateMode, UrixSerializesUpdatersInsteadOfDeadlocking) {
  Stack s("URIX", /*timeout=*/Millis(250));
  auto t1 = s.Begin();
  Splid h1 = s.ById(*t1, "b0");
  auto history1 = s.nm->GetLastChild(*t1, h1);
  ASSERT_TRUE(s.nm->DeclareUpdateIntent(*t1, (*history1)->splid).ok());
  // Second updater announcing intent on the same node must wait (U-U
  // conflict) instead of both reading and deadlocking on conversion.
  std::atomic<bool> t2_blocked_then_ok{false};
  std::thread other([&]() {
    auto t2 = s.Begin();
    Splid h2 = s.ById(*t2, "b0");
    auto history2 = s.nm->GetLastChild(*t2, h2);
    Status st = s.nm->DeclareUpdateIntent(*t2, (*history2)->splid);
    if (st.ok()) {
      t2_blocked_then_ok = true;
      (void)s.tm->Commit(*t2);
    } else {
      (void)s.tm->Abort(*t2);
    }
  });
  SleepFor(Millis(80));
  ASSERT_TRUE(s.tm->Commit(*t1).ok());
  other.join();
  EXPECT_TRUE(t2_blocked_then_ok.load());
  EXPECT_EQ(s.protocol->table().GetStats().deadlocks, 0u);
}

// --------------------------------------------------------------------------
// Deadlock end-to-end: two writers converting on the same node; the
// victim aborts, its undo restores the document.
// --------------------------------------------------------------------------

TEST(DeadlockEndToEnd, ConversionDeadlockVictimAbortsCleanly) {
  Stack s("taDOM2", Millis(2000));
  Splid text_node;
  {
    auto tx = s.Begin();
    Splid book = s.ById(*tx, "b0");
    auto title = s.nm->GetFirstChild(*tx, book);
    auto text = s.nm->GetFirstChild(*tx, (*title)->splid);
    text_node = (*text)->splid;
    ASSERT_TRUE(s.tm->Commit(*tx).ok());
  }
  // Both transactions read the text (shared), then both write it.
  auto t1 = s.Begin();
  auto t2 = s.Begin();
  ASSERT_TRUE(s.nm->GetTextContent(*t1, text_node).ok());
  ASSERT_TRUE(s.nm->GetTextContent(*t2, text_node).ok());
  std::atomic<int> t1_ok{-1};
  std::thread w1([&]() {
    Status st = s.nm->UpdateText(*t1, text_node, "T1");
    if (st.ok()) {
      t1_ok = 1;
      (void)s.tm->Commit(*t1);
    } else {
      t1_ok = 0;
      (void)s.tm->Abort(*t1);
    }
  });
  SleepFor(Millis(100));
  Status st2 = s.nm->UpdateText(*t2, text_node, "T2");
  // t2 closes the cycle: it must be the deadlock victim.
  EXPECT_TRUE(st2.IsDeadlock());
  ASSERT_TRUE(s.tm->Abort(*t2).ok());
  w1.join();
  EXPECT_EQ(t1_ok.load(), 1);
  EXPECT_GE(s.protocol->table().GetStats().conversion_deadlocks, 1u);
  // T1's write survived; nothing of T2's remains.
  auto check = s.Begin();
  auto content = s.nm->GetTextContent(*check, text_node);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "T1");
  ASSERT_TRUE(s.tm->Commit(*check).ok());
}

// --------------------------------------------------------------------------
// Fig. 4 conversion side effects must never be dropped.
// --------------------------------------------------------------------------

// Regression: a conversion whose Fig. 4 target carries a children
// subscript (taDOM2's LR -> CX_NR) used to silently skip the child locks
// when no document accessor was wired — an isolation hole where readers
// of the children never conflicted with the writer. It must be a hard
// error instead.
TEST(ConversionSideEffects, ChildLockSideEffectWithoutAccessorIsAnError) {
  LockTableOptions options;
  options.wait_timeout = Millis(150);
  auto protocol = CreateProtocol("taDOM2", options);
  ASSERT_NE(protocol, nullptr);
  // Deliberately no set_document_accessor: the protocol cannot enumerate
  // children, so it cannot honour CX_NR.
  LockManager lm(protocol.get());
  TxLockView tx{1, IsolationLevel::kRepeatable, 7};
  ASSERT_TRUE(lm.LevelRead(tx, *Splid::Parse("1.3")).ok());  // LR on 1.3
  // Writing a child converts 1.3's LR to CX, whose taDOM2 target is
  // CX_NR: without an accessor the operation must be refused outright.
  Status st = lm.NodeWrite(tx, *Splid::Parse("1.3.3"));
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("document accessor"), std::string::npos);
  lm.ReleaseAll(tx);
}

// A warm lock set must not short-circuit around the side effect either:
// the LR -> CX conversion changes the held mode, which the set can never
// answer, so the request reaches the table and the per-child NR locks
// really appear.
TEST(ConversionSideEffects, WarmLockSetNeverSkipsChildLockSideEffect) {
  Stack s("taDOM2", Millis(150));
  auto tx = s.Begin();
  Splid book = s.ById(*tx, "b0");
  ASSERT_TRUE(s.nm->GetChildNodes(*tx, book).ok());  // LR on book
  // Warm the set on the whole path with a repeat of the same request.
  ASSERT_TRUE(s.nm->GetChildNodes(*tx, book).ok());
  EXPECT_GT(s.protocol->table().GetStats().cache_hits, 0u);

  auto history = s.doc.LastChild(book);
  ASSERT_TRUE(history.ok());
  const size_t before = s.protocol->table().LocksHeldBy(tx->id());
  ASSERT_TRUE(s.nm->DeleteSubtree(*tx, (*history)->splid).ok());
  // The conversion's child locks materialized: the sibling children of
  // the deleted subtree are now individually NR-locked.
  auto title = s.doc.FirstChild(book);
  ASSERT_TRUE(title.ok());
  const LockTable& table = s.protocol->table();
  EXPECT_EQ(std::string(table.modes().Name(
                table.HeldMode(tx->id(), NodeResource((*title)->splid)))),
            "NR");
  EXPECT_GT(s.protocol->table().LocksHeldBy(tx->id()), before);
  ASSERT_TRUE(s.tm->Commit(*tx).ok());
  // Commit's ReleaseAll emptied the lock set.
  EXPECT_EQ(s.protocol->table().LocksHeldBy(tx->id()), 0u);
}

}  // namespace
}  // namespace xtc
