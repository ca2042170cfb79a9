// WAL unit tests: record framing and scan, torn-tail detection, group
// commit, flush-chunk boundary cases, page checksums, WAL-before-data,
// the recovery edge cases of DESIGN.md §6 (empty log, checkpoint-only
// log), and undo parity: for every NodeManager IUD operation, runtime
// abort and restart undo restore the same document.

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "node/document.h"
#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "tamix/bib_generator.h"
#include "tamix/invariants.h"
#include "tx/transaction_manager.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace xtc {
namespace {

/// Fabricates deterministic page bytes with `end_lsn` stamped where the
/// recovery redo expects it (what WalScope's reader does for real pages).
Wal::PageReader FakeReader(uint32_t page_size) {
  return [page_size](PageId id, Lsn end_lsn, std::string* out) {
    std::string bytes(page_size, static_cast<char>('a' + (id % 23)));
    std::memcpy(bytes.data() + kPageLsnOffset, &end_lsn, sizeof(end_lsn));
    out->append(bytes);
  };
}

WalTreeMeta SomeMeta() {
  WalTreeMeta meta;
  meta.doc_root = 1;
  meta.doc_count = 3;
  meta.elem_root = 2;
  meta.elem_count = 2;
  meta.id_root = 3;
  meta.id_count = 1;
  return meta;
}

TEST(WalTest, FramingRoundTrip) {
  Wal wal(WalOptions{});
  wal.AppendVocab(2, "chapter");
  UndoOp undo;
  undo.kind = UndoKind::kUpdateContent;
  undo.splid = "s";
  undo.content = "old";
  const uint32_t page_size = 256;
  const Lsn update_lsn = wal.AppendUpdate(7, undo, SomeMeta(), {4, 9},
                                          page_size, FakeReader(page_size));
  ASSERT_TRUE(wal.AppendCommit(7, 1, "payload").ok());

  const std::string image = wal.DurableImage();
  auto scan = Wal::ScanDurable(image);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  EXPECT_FALSE(scan->torn_tail);
  const std::vector<WalRecord>& records = scan->records;
  ASSERT_EQ(records.size(), 3u);

  const WalRecord& vocab = records[0];
  EXPECT_EQ(vocab.type, WalRecordType::kVocab);
  EXPECT_EQ(vocab.surrogate, 2u);
  EXPECT_EQ(vocab.name, "chapter");

  const WalRecord& update = records[1];
  EXPECT_EQ(update.type, WalRecordType::kUpdate);
  // AppendUpdate returns the END lsn (the value stamped into pages);
  // the scan reports the record's start offset as its lsn.
  EXPECT_EQ(update.end_lsn, update_lsn);
  EXPECT_EQ(update.tx, 7u);
  EXPECT_EQ(update.prev_lsn, 0u);
  EXPECT_EQ(update.undo.kind, UndoKind::kUpdateContent);
  EXPECT_EQ(update.undo.content, "old");
  EXPECT_EQ(update.meta.doc_root, 1u);
  EXPECT_EQ(update.meta.id_count, 1u);
  ASSERT_EQ(update.pages.size(), 2u);
  EXPECT_EQ(update.pages[0].id, 4u);
  EXPECT_EQ(update.pages[1].id, 9u);
  EXPECT_EQ(update.pages[0].bytes.size(), page_size);
  EXPECT_EQ(ReadPageLsn(reinterpret_cast<const uint8_t*>(
                update.pages[0].bytes.data())),
            update.end_lsn);

  const WalRecord& commit = records[2];
  EXPECT_EQ(commit.type, WalRecordType::kCommit);
  EXPECT_EQ(commit.tx, 7u);
  EXPECT_EQ(commit.commit_seq, 1u);
  EXPECT_EQ(commit.payload, "payload");

  // Records tile the image: each starts where the previous one ended,
  // and the clean end is the end of the last.
  EXPECT_EQ(vocab.lsn, kWalHeaderSize);
  EXPECT_EQ(update.lsn, vocab.end_lsn);
  EXPECT_EQ(commit.lsn, update.end_lsn);
  EXPECT_EQ(scan->clean_end, commit.end_lsn);
  EXPECT_EQ(scan->clean_end, image.size());

  // The frame reader at the update's start offset yields the same record.
  auto frame = Wal::ReadFrame(image, update.lsn);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->kind, WalFrameKind::kRecord);
  EXPECT_EQ(frame->record.tx, 7u);
  EXPECT_EQ(frame->record.end_lsn, update.end_lsn);
  EXPECT_EQ(frame->record.pages.size(), 2u);

  // Two chained updates of one tx link through prev_lsn (start lsns).
  wal.AppendUpdate(8, undo, SomeMeta(), {4}, page_size,
                   FakeReader(page_size));
  const Lsn third_end = wal.AppendUpdate(8, undo, SomeMeta(), {9}, page_size,
                                         FakeReader(page_size));
  ASSERT_TRUE(wal.Sync().ok());
  const std::string grown = wal.DurableImage();
  auto again = Wal::ScanDurable(grown);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->records.size(), 5u);
  EXPECT_EQ(again->records.back().end_lsn, third_end);
  EXPECT_EQ(again->records.back().prev_lsn, again->records[3].lsn);
}

TEST(WalTest, TornTailIsDetectedAndBounded) {
  Wal wal(WalOptions{});
  const uint32_t page_size = 128;
  wal.AppendUpdate(1, UndoOp{}, SomeMeta(), {1}, page_size,
                   FakeReader(page_size));
  ASSERT_TRUE(wal.AppendCommit(1, 1, "x").ok());
  wal.AppendUpdate(2, UndoOp{}, SomeMeta(), {2}, page_size,
                   FakeReader(page_size));
  ASSERT_TRUE(wal.Sync().ok());
  std::string image = wal.DurableImage();

  // Chop bytes off the final record: every truncation length must come
  // back as a clean torn tail exposing exactly the first two records.
  for (size_t cut = 1; cut < 40; cut += 7) {
    std::string torn_image = image.substr(0, image.size() - cut);
    auto scan = Wal::ScanDurable(torn_image);
    ASSERT_TRUE(scan.ok()) << scan.status().message();
    EXPECT_TRUE(scan->torn_tail);
    ASSERT_EQ(scan->records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(scan->records[1].type, WalRecordType::kCommit);
  }

  // A zeroed frame (length 0) cannot hold a record: it ends the log
  // like a torn tail instead of failing to decode.
  const std::string zeroed = image + std::string(16, '\0');
  auto scan = Wal::ScanDurable(zeroed);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->clean_end, image.size());
  EXPECT_EQ(scan->records.size(), 3u);
}

TEST(WalTest, GroupCommitBuffersUntilOneForcedSync) {
  Wal wal(WalOptions{});
  const size_t header = wal.DurableImage().size();
  const uint32_t page_size = 64;
  for (int i = 0; i < 5; ++i) {
    wal.AppendUpdate(1, UndoOp{}, SomeMeta(), {PageId(i + 1)}, page_size,
                     FakeReader(page_size));
  }
  // Nothing is durable until a force; appends only grow the buffer.
  EXPECT_EQ(wal.DurableImage().size(), header);
  EXPECT_EQ(wal.stats().syncs, 0u);
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.stats().syncs, 1u);
  const std::string image = wal.DurableImage();
  auto scan = Wal::ScanDurable(image);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 5u);  // one sync made all five durable
}

TEST(WalTest, CommitRecordExactlyAtFlushChunkBoundary) {
  // Measure the exact image size after one commit record...
  size_t exact = 0;
  {
    Wal probe(WalOptions{});
    ASSERT_TRUE(probe.AppendCommit(1, 1, "boundary!").ok());
    exact = probe.DurableImage().size();
  }
  // ...then force the same append through flush chunks that (a) end the
  // final chunk exactly at the record end and (b) straddle it oddly.
  for (uint32_t chunk : {static_cast<uint32_t>(exact),
                         static_cast<uint32_t>(exact - 16), 7u, 1u}) {
    WalOptions options;
    options.flush_chunk = chunk;
    Wal wal(options);
    ASSERT_TRUE(wal.AppendCommit(1, 1, "boundary!").ok());
    const std::string image = wal.DurableImage();
    EXPECT_EQ(image.size(), exact) << "chunk=" << chunk;
    auto scan = Wal::ScanDurable(image);
    ASSERT_TRUE(scan.ok()) << scan.status().message();
    EXPECT_FALSE(scan->torn_tail);
    ASSERT_EQ(scan->records.size(), 1u);
    EXPECT_EQ(scan->records[0].payload, "boundary!");
  }
}

TEST(WalTest, PageChecksumCatchesTornPage) {
  StorageOptions options;
  PageFile file(options);
  const PageId id = file.Allocate();
  Page page(options.page_size);
  page.data()[100] = 42;
  ASSERT_TRUE(file.Write(id, page).ok());
  Page out(options.page_size);
  ASSERT_TRUE(file.Read(id, &out).ok());
  EXPECT_EQ(out.data()[100], 42);

  // Corrupt one stored byte behind the file's back via a cloned image:
  // a fresh PageFile over the tampered image must refuse the page.
  PageFileImage image = file.CloneImage();
  image.pages[id - 1][200] ^= 0x5a;
  PageFile reopened(options, image);
  Status st = reopened.Read(id, &out);
  EXPECT_TRUE(st.IsDataLoss()) << st.message();

  // EnsureAllocated produces readable (checksum-stamped) zero pages.
  reopened.EnsureAllocated(id + 5);
  EXPECT_TRUE(reopened.Read(id + 5, &out).ok());
}

TEST(WalTest, WalBeforeDataForcesTheLogOnWriteBack) {
  StorageOptions storage;
  Document doc(storage);
  ASSERT_TRUE(GenerateBib(&doc, BibConfig::Tiny()).ok());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  ASSERT_TRUE(doc.buffer().FlushAll().ok());
  const uint64_t baseline_syncs = wal.stats().syncs;

  // A logged mutation dirties pages; writing them back must first force
  // the covering records durable (checked by XTC_CHECK in WritePage).
  auto subtree = doc.Subtree(Splid::Root());
  ASSERT_TRUE(subtree.ok());
  const Splid* text_node = nullptr;
  for (const Node& n : *subtree) {
    if (n.record.kind == NodeKind::kString) {
      text_node = &n.splid;
      break;
    }
  }
  ASSERT_NE(text_node, nullptr);
  ASSERT_TRUE(doc.UpdateContent(*text_node, "rewritten").ok());
  EXPECT_GT(wal.stats().records_appended, 0u);

  ASSERT_TRUE(doc.buffer().FlushAll().ok());
  EXPECT_GT(wal.stats().syncs, baseline_syncs);  // write-back forced the log

  // Every update record that covered a page is durable now: the scan of
  // the durable prefix sees the content update.
  const std::string image = wal.DurableImage();
  auto scan = Wal::ScanDurable(image);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  bool saw_update = false;
  for (const WalRecord& r : scan->records) {
    saw_update |= r.type == WalRecordType::kUpdate;
  }
  EXPECT_TRUE(saw_update);
}

TEST(WalTest, EmptyImagesOpenFresh) {
  StorageOptions storage;
  auto opened = OpenDatabase(storage, WalOptions{}, PageFileImage{}, "");
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_FALSE(opened->stats.performed);
  EXPECT_TRUE(opened->committed.empty());
  ASSERT_NE(opened->doc, nullptr);
  EXPECT_EQ(opened->doc->wal(), opened->wal.get());
  // The fresh database is usable immediately.
  auto root = opened->doc->CreateRoot("bib");
  EXPECT_TRUE(root.ok());
}

TEST(WalTest, BareHeaderLogOverEmptyDiskOpensFresh) {
  std::string header_only;
  {
    Wal wal(WalOptions{});
    header_only = wal.DurableImage();  // magic + reserved, no records
  }
  StorageOptions storage;
  auto opened =
      OpenDatabase(storage, WalOptions{}, PageFileImage{}, header_only);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_FALSE(opened->stats.performed);
  EXPECT_TRUE(opened->doc->CreateRoot("bib").ok());
}

TEST(WalTest, CheckpointOnlyLogRecovers) {
  StorageOptions storage;
  Document doc(storage);
  ASSERT_TRUE(GenerateBib(&doc, BibConfig::Tiny()).ok());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  ASSERT_TRUE(doc.buffer().FlushAll().ok());
  ASSERT_TRUE(doc.LogCheckpoint().ok());
  auto fingerprint = DocumentFingerprint(doc);
  ASSERT_TRUE(fingerprint.ok());

  auto opened = OpenDatabase(storage, WalOptions{},
                             doc.page_file().CloneImage(), wal.DurableImage());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_TRUE(opened->stats.performed);
  EXPECT_FALSE(opened->stats.torn_log_tail);
  EXPECT_EQ(opened->stats.losers_undone, 0u);
  EXPECT_TRUE(opened->committed.empty());
  auto recovered_fp = DocumentFingerprint(*opened->doc);
  ASSERT_TRUE(recovered_fp.ok());
  EXPECT_EQ(*recovered_fp, *fingerprint);
  // The recovered instance accepts new work.
  auto subtree = opened->doc->Subtree(Splid::Root());
  ASSERT_TRUE(subtree.ok());
  EXPECT_FALSE(subtree->empty());
}

TEST(WalTest, CheckpointedLogOverAnEmptyDiskImageIsAnError) {
  // PageFileImage{} has page size 0 and no pages: it opens as an empty
  // store, and recovery then fails to find the checkpoint's trees — an
  // error status, not an abort on the page size.
  StorageOptions storage;
  Document doc(storage);
  ASSERT_TRUE(GenerateBib(&doc, BibConfig::Tiny()).ok());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  ASSERT_TRUE(doc.buffer().FlushAll().ok());
  ASSERT_TRUE(doc.LogCheckpoint().ok());
  auto opened = OpenDatabase(storage, WalOptions{}, PageFileImage{},
                             wal.DurableImage());
  EXPECT_FALSE(opened.ok());
}

TEST(WalTest, CleanEndIsTheLastRecordStartForEveryCutPoint) {
  Wal wal(WalOptions{});
  const uint32_t page_size = 128;
  wal.AppendUpdate(1, UndoOp{}, SomeMeta(), {1}, page_size,
                   FakeReader(page_size));
  ASSERT_TRUE(wal.AppendCommit(1, 1, "x").ok());
  wal.AppendUpdate(2, UndoOp{}, SomeMeta(), {2}, page_size,
                   FakeReader(page_size));
  ASSERT_TRUE(wal.Sync().ok());
  const std::string image = wal.DurableImage();
  auto full = Wal::ScanDurable(image);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->clean_end, image.size());
  const Lsn last_start = full->records.back().lsn;

  // Every truncation point inside the final record — including cuts
  // through the length field, the CRC and the payload — scans to the
  // first two records, with the clean end where the torn record began.
  for (size_t end = last_start + 1; end < image.size(); ++end) {
    const std::string cut = image.substr(0, end);
    auto scan = Wal::ScanDurable(cut);
    ASSERT_TRUE(scan.ok()) << "cut at " << end;
    EXPECT_TRUE(scan->torn_tail) << "cut at " << end;
    EXPECT_EQ(scan->clean_end, last_start) << "cut at " << end;
    ASSERT_EQ(scan->records.size(), 2u) << "cut at " << end;
  }
}

TEST(WalTest, CommitsAppendedAfterTornTailReopenStayVisible) {
  // Regression: reopening a log whose durable image ends in a torn
  // record used to append *after* the garbage, so every record appended
  // by the recovered instance was invisible to the next restart's scan
  // — commits accepted after a recovery were lost at the second crash.
  // Reopening from the scan's clean end, at every cut point of the
  // final record, keeps them visible.
  Wal wal(WalOptions{});
  const uint32_t page_size = 128;
  wal.AppendUpdate(1, UndoOp{}, SomeMeta(), {1}, page_size,
                   FakeReader(page_size));
  ASSERT_TRUE(wal.AppendCommit(1, 1, "first").ok());
  wal.AppendUpdate(2, UndoOp{}, SomeMeta(), {2}, page_size,
                   FakeReader(page_size));
  ASSERT_TRUE(wal.Sync().ok());
  const std::string image = wal.DurableImage();
  const Lsn last_start = Wal::ScanDurable(image)->records.back().lsn;

  for (size_t end = last_start + 1; end < image.size(); ++end) {
    const std::string cut = image.substr(0, end);
    auto scan = Wal::ScanDurable(cut);
    ASSERT_TRUE(scan.ok()) << "cut at " << end;
    Wal reopened(WalOptions{}, cut.substr(0, scan->clean_end));
    reopened.AppendUpdate(3, UndoOp{}, SomeMeta(), {3}, page_size,
                          FakeReader(page_size));
    ASSERT_TRUE(reopened.AppendCommit(3, 2, "second").ok());

    const std::string grown = reopened.DurableImage();
    auto again = Wal::ScanDurable(grown);
    ASSERT_TRUE(again.ok()) << again.status().message();
    EXPECT_FALSE(again->torn_tail) << "cut at " << end;
    // vocab-free stream: update, commit("first"), update, commit("second")
    ASSERT_EQ(again->records.size(), 4u) << "cut at " << end;
    EXPECT_EQ(again->records.back().type, WalRecordType::kCommit);
    EXPECT_EQ(again->records.back().payload, "second");
  }
}

/// Renames the first `from` element to `to` under `tx` and commits it.
void CommitRename(Document* doc, Wal* wal, uint64_t tx, uint64_t seq,
                  const std::string& from, const std::string& to) {
  auto target = doc->NthElementByName(from, 0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate name = doc->vocabulary().Intern(to);
  {
    ScopedWalTx scope(tx);
    ASSERT_TRUE(doc->RenameElement(*target, name).ok());
  }
  ASSERT_TRUE(wal->AppendCommit(tx, seq, "payload-" + to).ok());
}

std::vector<uint64_t> CommitSeqs(const OpenResult& opened) {
  std::vector<uint64_t> seqs;
  for (const RecoveredCommit& c : opened.committed) seqs.push_back(c.seq);
  return seqs;
}

TEST(WalTest, TornFinalCheckpointRecoversFromThePreviousOne) {
  // A kill can tear the final checkpoint record itself. Recovery then
  // runs from the previous complete checkpoint and reaches the same
  // document and committed set as from the whole log.
  StorageOptions storage;
  Document doc(storage);
  ASSERT_TRUE(GenerateBib(&doc, BibConfig::Tiny()).ok());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  ASSERT_TRUE(doc.buffer().FlushAll().ok());
  ASSERT_TRUE(doc.LogCheckpoint().ok());
  CommitRename(&doc, &wal, 1, 1, "title", "chapter");
  CommitRename(&doc, &wal, 2, 2, "chapter", "title");
  ASSERT_TRUE(doc.LogCheckpoint().ok());
  auto fingerprint = DocumentFingerprint(doc);
  ASSERT_TRUE(fingerprint.ok());
  const PageFileImage disk = doc.page_file().CloneImage();
  const std::string image = wal.DurableImage();

  auto scan = Wal::ScanDurable(image);
  ASSERT_TRUE(scan.ok());
  std::vector<Lsn> checkpoints;
  for (const WalRecord& r : scan->records) {
    if (r.type == WalRecordType::kCheckpoint) checkpoints.push_back(r.lsn);
  }
  ASSERT_EQ(checkpoints.size(), 2u);
  ASSERT_EQ(scan->records.back().lsn, checkpoints[1]);

  auto whole = OpenDatabase(storage, WalOptions{}, disk, image);
  ASSERT_TRUE(whole.ok()) << whole.status().message();
  EXPECT_EQ(whole->stats.checkpoint_lsn, checkpoints[1]);
  const std::vector<uint64_t> committed = CommitSeqs(*whole);
  EXPECT_EQ(committed, (std::vector<uint64_t>{1, 2}));

  for (size_t end = checkpoints[1] + 1; end < image.size(); end += 3) {
    auto opened = OpenDatabase(storage, WalOptions{}, disk,
                               image.substr(0, end));
    ASSERT_TRUE(opened.ok()) << "cut at " << end << ": "
                             << opened.status().message();
    EXPECT_TRUE(opened->stats.torn_log_tail) << "cut at " << end;
    EXPECT_EQ(opened->stats.checkpoint_lsn, checkpoints[0])
        << "cut at " << end;
    EXPECT_EQ(CommitSeqs(*opened), committed) << "cut at " << end;
    auto recovered_fp = DocumentFingerprint(*opened->doc);
    ASSERT_TRUE(recovered_fp.ok());
    EXPECT_EQ(*recovered_fp, *fingerprint) << "cut at " << end;
  }
}

TEST(WalTest, BadOrShortHeaderIsRejected) {
  Wal wal(WalOptions{});
  ASSERT_TRUE(wal.AppendCommit(1, 1, "x").ok());
  std::string bad = wal.DurableImage();
  bad[0] ^= 0xff;
  StorageOptions storage;
  for (const std::string& image : {bad, std::string("short")}) {
    auto scan = Wal::ScanDurable(image);
    ASSERT_FALSE(scan.ok());
    EXPECT_TRUE(scan.status().IsDataLoss());
    auto opened = OpenDatabase(storage, WalOptions{}, PageFileImage{}, image);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsDataLoss());
  }
  // The empty image is a fresh log, not a bad one.
  auto empty = Wal::ScanDurable(std::string_view());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  EXPECT_EQ(empty->clean_end, 0u);
}

TEST(WalTest, UndoChainNamingNoRecordStartIsDataLoss) {
  // A loser's chain head that starts no scanned record (here: an offset
  // inside the header) cannot be undone; recovery reports data loss.
  StorageOptions storage;
  Document doc(storage);
  ASSERT_TRUE(GenerateBib(&doc, BibConfig::Tiny()).ok());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  ASSERT_TRUE(doc.buffer().FlushAll().ok());
  wal.SeedTxChain(99, 5);
  ASSERT_TRUE(doc.LogCheckpoint().ok());

  auto opened = OpenDatabase(storage, WalOptions{},
                             doc.page_file().CloneImage(), wal.DurableImage());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsDataLoss()) << opened.status().message();
}

// --- Undo parity ----------------------------------------------------------

/// One NodeManager IUD operation, applied to a book of the tiny bib.
struct IudCase {
  const char* name;
  Status (*run)(NodeManager& nm, Transaction& tx, const Splid& book);
};

void PrintTo(const IudCase& c, std::ostream* os) { *os << c.name; }

Splid FirstChildOf(NodeManager& nm, const Splid& parent) {
  auto child = nm.document().FirstChild(parent);
  EXPECT_TRUE(child.ok() && child->has_value());
  return (*child)->splid;
}

SubtreeSpec NoteSpec() { return SubtreeSpec{"note", {{"id", "n1"}}, "x", {}}; }

const IudCase kIudCases[] = {
    {"UpdateText",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       const Splid title = FirstChildOf(nm, book);
       return nm.UpdateText(tx, FirstChildOf(nm, title), "rewritten");
     }},
    {"Rename",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.Rename(tx, book, "tome");
     }},
    {"SetAttributeExisting",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.SetAttribute(tx, book, "year", "1999");
     }},
    {"SetAttributeNew",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.SetAttribute(tx, book, "edition", "2");
     }},
    {"AppendSubtree",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.AppendSubtree(tx, book, NoteSpec()).status();
     }},
    {"InsertBefore",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.InsertBefore(tx, FirstChildOf(nm, book), NoteSpec()).status();
     }},
    {"InsertAfter",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.InsertAfter(tx, FirstChildOf(nm, book), NoteSpec()).status();
     }},
    {"RemoveAttribute",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.RemoveAttribute(tx, book, "year");
     }},
    {"DeleteSubtree",
     [](NodeManager& nm, Transaction& tx, const Splid& book) {
       return nm.DeleteSubtree(tx, book);
     }},
};

/// A WAL-attached tiny bib whose base state rides the initial checkpoint,
/// and one uncommitted transaction that ran the case's operation.
class UndoParityTest : public ::testing::TestWithParam<IudCase> {
 protected:
  void SetUp() override {
    auto info = GenerateBib(&doc_, BibConfig::Tiny());
    ASSERT_TRUE(info.ok());
    doc_.AttachWal(&wal_);
    ASSERT_TRUE(doc_.buffer().FlushAll().ok());
    ASSERT_TRUE(doc_.LogCheckpoint().ok());
    base_ = Fingerprint(doc_);
    protocol_ = CreateProtocol("taDOM3+", LockTableOptions{});
    ASSERT_NE(protocol_, nullptr);
    lm_ = std::make_unique<LockManager>(protocol_.get());
    tm_ = std::make_unique<TransactionManager>(lm_.get(), nullptr, &wal_);
    nm_ = std::make_unique<NodeManager>(&doc_, lm_.get());
    const auto book = doc_.LookupId(info->book_ids[0]);
    ASSERT_TRUE(book.has_value());
    tx_ = tm_->Begin(IsolationLevel::kSerializable, 7);
    const Status st = GetParam().run(*nm_, *tx_, *book);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NE(Fingerprint(doc_), base_) << "the operation changed nothing";
  }

  static uint64_t Fingerprint(const Document& doc) {
    auto fp = DocumentFingerprint(doc);
    EXPECT_TRUE(fp.ok()) << fp.status().ToString();
    return fp.ok() ? *fp : 0;
  }

  StorageOptions storage_;
  Document doc_{storage_};
  Wal wal_{WalOptions{}};
  uint64_t base_ = 0;
  std::unique_ptr<XmlProtocol> protocol_;
  std::unique_ptr<LockManager> lm_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<NodeManager> nm_;
  std::unique_ptr<Transaction> tx_;
};

INSTANTIATE_TEST_SUITE_P(EveryIudOp, UndoParityTest,
                         ::testing::ValuesIn(kIudCases),
                         [](const auto& info) { return info.param.name; });

TEST_P(UndoParityTest, RuntimeAbortRestoresTheDocument) {
  ASSERT_TRUE(tm_->Abort(*tx_).ok());
  EXPECT_EQ(Fingerprint(doc_), base_);
  EXPECT_TRUE(doc_.Validate().ok());
}

TEST_P(UndoParityTest, RestartUndoRestoresTheDocument) {
  // Crash with the operation logged but uncommitted: recovery undoes the
  // loser from its kUpdate record alone.
  ASSERT_TRUE(wal_.Sync().ok());
  auto opened = OpenDatabase(storage_, WalOptions{},
                             doc_.page_file().CloneImage(), wal_.DurableImage());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->stats.losers_undone, 1u);
  EXPECT_EQ(Fingerprint(*opened->doc), base_);
  EXPECT_TRUE(opened->doc->Validate().ok());
  ASSERT_TRUE(tm_->Abort(*tx_).ok());
}

TEST(WalTest, NonEmptyDiskWithoutCheckpointIsDataLoss) {
  StorageOptions storage;
  PageFile file(storage);
  file.Allocate();
  std::string header_only;
  {
    Wal wal(WalOptions{});
    header_only = wal.DurableImage();
  }
  auto opened =
      OpenDatabase(storage, WalOptions{}, file.CloneImage(), header_only);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsDataLoss());
}

}  // namespace
}  // namespace xtc
