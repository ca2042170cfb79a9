// Replication tests (DESIGN.md §7): follower bootstrap and tailing,
// replica reads with bounded staleness, torn-chunk resync, bootstrap
// from a torn base log, promotion, and follower restart from its own
// artifacts. The paired crash-restart round trips over every kill site
// run in fuzz_test.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "node/document.h"
#include "repl/follower.h"
#include "repl/log_shipper.h"
#include "repl/repl_harness.h"
#include "tamix/bib_generator.h"
#include "tamix/coordinator.h"
#include "tamix/fuzz.h"
#include "tamix/invariants.h"
#include "util/crash_switch.h"
#include "util/fault_injector.h"
#include "wal/wal.h"

namespace xtc {
namespace {

/// A tiny WAL-attached primary with its base images captured, ready for
/// hand-driven shipping (no coordinator, no threads).
struct MiniPrimary {
  StorageOptions storage;
  std::unique_ptr<Document> doc;
  std::unique_ptr<Wal> wal;
  BibInfo info;
  PageFileImage base_disk;
  std::string base_log;
};

/// Attaches the log to the built primary and captures its base images.
void CaptureBase(MiniPrimary* p) {
  p->wal = std::make_unique<Wal>(WalOptions{});
  p->doc->AttachWal(p->wal.get());
  EXPECT_TRUE(p->doc->buffer().FlushAll().ok());
  EXPECT_TRUE(p->doc->LogCheckpoint().ok());
  p->base_disk = p->doc->page_file().CloneImage();
  p->base_log = p->wal->DurableImage();
}

MiniPrimary MakeMiniPrimary() {
  MiniPrimary p;
  p.storage.buffer_pool_pages = 64;
  p.doc = std::make_unique<Document>(p.storage);
  auto info = GenerateBib(p.doc.get(), BibConfig::Tiny());
  EXPECT_TRUE(info.ok()) << info.status().message();
  p.info = std::move(*info);
  CaptureBase(&p);
  return p;
}

FollowerOptions MiniFollowerOptions(const MiniPrimary& p) {
  FollowerOptions fo;
  fo.storage = p.storage;
  return fo;
}

/// One committed mutation on the primary: renames the first `title`
/// element to `chapter` (or back), logged under `tx` and force-committed.
void CommitRename(MiniPrimary* p, uint64_t tx, uint64_t seq,
                  std::string_view to) {
  auto target = p->doc->NthElementByName(to == "title" ? "chapter" : "title",
                                         0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate name = p->doc->vocabulary().Intern(std::string(to));
  {
    ScopedWalTx scope(tx);
    ASSERT_TRUE(p->doc->RenameElement(*target, name).ok());
  }
  ASSERT_TRUE(p->wal->AppendCommit(tx, seq, "test-payload").ok());
}

TEST(ReplicationTest, BootstrapMatchesPrimaryAndServesReads) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();

  auto primary_fp = DocumentFingerprint(*p.doc);
  ASSERT_TRUE(primary_fp.ok());
  auto follower_fp = DocumentFingerprint((*follower)->document());
  ASSERT_TRUE(follower_fp.ok()) << follower_fp.status().message();
  EXPECT_EQ(*follower_fp, *primary_fp);

  // Replica read against the bootstrapped state.
  ReplicaReadView view;
  auto subtree = (*follower)->ReadSubtree(Splid::Root(), &view);
  ASSERT_TRUE(subtree.ok()) << subtree.status().message();
  EXPECT_FALSE(subtree->empty());
  EXPECT_EQ(view.applied_lsn, (*follower)->applied_lsn());
  EXPECT_EQ(view.lag_bytes, 0u);
}

TEST(ReplicationTest, BootstrapWithoutCheckpointFails) {
  std::string header_only;
  {
    Wal wal(WalOptions{});
    header_only = wal.DurableImage();
  }
  FollowerOptions fo;
  auto follower = Follower::Bootstrap(fo, PageFileImage{}, header_only);
  EXPECT_FALSE(follower.ok());

  // A base checkpoint cut short, or torn by a flipped payload byte.
  const MiniPrimary p = MakeMiniPrimary();
  std::string cut = p.base_log.substr(0, p.base_log.size() - 1);
  std::string torn = p.base_log;
  torn.back() ^= 0x5a;
  for (const std::string& log : {cut, torn}) {
    follower = Follower::Bootstrap(fo, PageFileImage{}, log);
    EXPECT_FALSE(follower.ok());
    follower = Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, log);
    EXPECT_FALSE(follower.ok());
  }

  // A log whose first record is a commit, not the base checkpoint.
  Wal wal(WalOptions{});
  ASSERT_TRUE(wal.AppendCommit(1, 1, "payload").ok());
  follower = Follower::Bootstrap(fo, PageFileImage{}, wal.DurableImage());
  EXPECT_FALSE(follower.ok());
}

TEST(ReplicationTest, TailingAppliesCommitsAndMovesWatermarks) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  LogShipper shipper(p.wal.get(), follower->get());

  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  auto shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok()) << shipped.status().message();
  EXPECT_GT(*shipped, 0u);
  EXPECT_EQ((*follower)->received_lsn(), p.wal->DurableLsn());
  EXPECT_EQ((*follower)->applied_lsn(), p.wal->DurableLsn());

  const std::vector<RecoveredCommit> commits = (*follower)->committed();
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0].seq, 1u);
  EXPECT_EQ(commits[1].seq, 2u);
  EXPECT_EQ(commits[1].payload, "test-payload");

  auto primary_fp = DocumentFingerprint(*p.doc);
  auto follower_fp = DocumentFingerprint((*follower)->document());
  ASSERT_TRUE(primary_fp.ok());
  ASSERT_TRUE(follower_fp.ok()) << follower_fp.status().message();
  EXPECT_EQ(*follower_fp, *primary_fp);

  // A second round with nothing new ships nothing.
  auto idle = shipper.ShipOnce();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(*idle, 0u);
}

TEST(ReplicationTest, UncommittedWorkIsNotShippedUntilDurable) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());
  LogShipper shipper(p.wal.get(), follower->get());

  // A logged-but-unforced update sits in the group-commit buffer: the
  // shipper must not see it.
  auto target = p.doc->NthElementByName("title", 0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate name = p.doc->vocabulary().Intern("chapter");
  {
    ScopedWalTx scope(3);
    ASSERT_TRUE(p.doc->RenameElement(*target, name).ok());
  }
  auto shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok());
  EXPECT_EQ(*shipped, 0u);
  EXPECT_TRUE((*follower)->committed().empty());

  // The commit forces everything durable; now it ships and applies.
  ASSERT_TRUE(p.wal->AppendCommit(3, 1, "x").ok());
  shipped = shipper.ShipOnce();
  ASSERT_TRUE(shipped.ok());
  EXPECT_GT(*shipped, 0u);
  EXPECT_EQ((*follower)->committed().size(), 1u);
}

TEST(ReplicationTest, BoundedStalenessRefusesLaggingReads) {
  MiniPrimary p = MakeMiniPrimary();
  FollowerOptions fo = MiniFollowerOptions(p);
  fo.max_staleness_bytes = 64;
  auto follower = Follower::Bootstrap(fo, p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());
  LogShipper shipper(p.wal.get(), follower->get());

  // Fresh pair: within bounds.
  EXPECT_TRUE((*follower)->ReadSubtree(Splid::Root()).ok());

  // The primary commits without the shipper running; once the follower
  // learns how far behind it is (first chunk of a partial ship), reads
  // beyond the bound are refused until the lag drains.
  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  // Deliver only a fragment by hand so the follower sees the lag.
  const Lsn from = (*follower)->received_lsn();
  std::string fragmentary = p.wal->DurableSuffix(from, 32);
  ASSERT_TRUE(
      (*follower)->Ingest(fragmentary, p.wal->DurableLsn()).ok());
  ReplicaReadView view;
  auto stale = (*follower)->ReadSubtree(Splid::Root(), &view);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kResourceExhausted);

  // Catching up restores service.
  ASSERT_TRUE(shipper.Drain().ok());
  EXPECT_TRUE((*follower)->ReadSubtree(Splid::Root(), &view).ok());
  EXPECT_EQ(view.lag_bytes, 0u);
}

TEST(ReplicationTest, TornChunkParksTheScanAndResyncRecovers) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());

  CommitRename(&p, 1, 1, "chapter");
  const Lsn from = (*follower)->received_lsn();
  const std::string suffix = p.wal->DurableSuffix(from, 0);
  ASSERT_GT(suffix.size(), 24u);

  // Deliver a torn prefix (mid-record): the scan parks, nothing applies.
  ASSERT_TRUE((*follower)
                  ->Ingest(suffix.substr(0, suffix.size() - 9),
                           p.wal->DurableLsn())
                  .ok());
  EXPECT_TRUE((*follower)->committed().empty());
  EXPECT_LT((*follower)->applied_lsn(), p.wal->DurableLsn());

  // Resync truncates the fragment; a clean drain then applies it all.
  LogShipper shipper(p.wal.get(), follower->get());
  ASSERT_TRUE(shipper.Drain().ok());
  EXPECT_EQ((*follower)->committed().size(), 1u);
  EXPECT_EQ((*follower)->applied_lsn(), p.wal->DurableLsn());
  EXPECT_GE((*follower)->stats().resyncs, 1u);
}

TEST(ReplicationTest, BootstrapFromTornBaseLogTruncatesAndCatchesUp) {
  MiniPrimary p = MakeMiniPrimary();
  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  const std::string base_log = p.wal->DurableImage();
  auto scan = Wal::ScanDurable(base_log);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.back().type, WalRecordType::kCommit);
  const Lsn last_start = scan->records.back().lsn;
  std::vector<std::pair<uint64_t, std::string>> primary_commits;
  for (const WalRecord& r : scan->records) {
    if (r.type == WalRecordType::kCommit) {
      primary_commits.emplace_back(r.commit_seq, r.payload);
    }
  }
  ASSERT_EQ(primary_commits.size(), 2u);
  auto primary_fp = DocumentFingerprint(*p.doc);
  ASSERT_TRUE(primary_fp.ok());

  // Every cut inside the final record: the follower keeps the complete
  // prefix, and a drain re-ships the rest.
  for (size_t end = last_start + 1; end < base_log.size(); ++end) {
    auto follower = Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk,
                                        base_log.substr(0, end));
    ASSERT_TRUE(follower.ok()) << "cut at " << end << ": "
                               << follower.status().message();
    EXPECT_EQ((*follower)->received_lsn(), last_start) << "cut at " << end;
    EXPECT_EQ((*follower)->applied_lsn(), last_start) << "cut at " << end;

    LogShipper shipper(p.wal.get(), follower->get());
    ASSERT_TRUE(shipper.Drain().ok()) << "cut at " << end;
    EXPECT_EQ((*follower)->applied_lsn(), p.wal->DurableLsn());
    std::vector<std::pair<uint64_t, std::string>> follower_commits;
    for (const RecoveredCommit& c : (*follower)->committed()) {
      follower_commits.emplace_back(c.seq, c.payload);
    }
    EXPECT_EQ(follower_commits, primary_commits) << "cut at " << end;
    auto follower_fp = DocumentFingerprint((*follower)->document());
    ASSERT_TRUE(follower_fp.ok()) << follower_fp.status().message();
    EXPECT_EQ(*follower_fp, *primary_fp) << "cut at " << end;
  }
}

TEST(ReplicationTest, PromoteRollsBackUnshippedLosers) {
  MiniPrimary p = MakeMiniPrimary();
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok());
  LogShipper shipper(p.wal.get(), follower->get());

  auto fp_before = DocumentFingerprint(*p.doc);
  ASSERT_TRUE(fp_before.ok());

  // One committed rename pair (back to the original name), then an
  // uncommitted rename whose updates go durable via an explicit sync —
  // the follower applies them, and promotion must roll them back.
  CommitRename(&p, 1, 1, "chapter");
  CommitRename(&p, 2, 2, "title");
  auto target = p.doc->NthElementByName("title", 0);
  ASSERT_TRUE(target.has_value());
  const NameSurrogate chap = p.doc->vocabulary().Intern("chapter");
  {
    ScopedWalTx scope(3);
    ASSERT_TRUE(p.doc->RenameElement(*target, chap).ok());
  }
  ASSERT_TRUE(p.wal->Sync().ok());
  ASSERT_TRUE(shipper.Drain().ok());

  auto promoted = (*follower)->Promote(p.storage, WalOptions{});
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  EXPECT_EQ(promoted->committed.size(), 2u);
  EXPECT_EQ(promoted->stats.losers_undone, 1u);
  auto fp_promoted = DocumentFingerprint(*promoted->doc);
  ASSERT_TRUE(fp_promoted.ok()) << fp_promoted.status().message();
  EXPECT_EQ(*fp_promoted, *fp_before);
  EXPECT_TRUE(promoted->doc->Validate().ok());

  // The follower is consumed.
  EXPECT_FALSE((*follower)->ReadSubtree(Splid::Root()).ok());
  EXPECT_FALSE((*follower)->Ingest("x", 0).ok());
}

TEST(ReplicationTest, FollowerRestartsFromItsOwnArtifacts) {
  MiniPrimary p = MakeMiniPrimary();
  // Arm a one-shot apply kill that fires a few records into tailing.
  FaultInjector faults(7);
  CrashSwitch crash(7);
  FaultPointConfig kill;
  kill.probability = 1.0;
  kill.one_shot = true;
  kill.skip_first = 2;
  faults.Arm(fault_points::kCrashApply, kill);
  FollowerOptions fo = MiniFollowerOptions(p);
  fo.fault_injector = &faults;
  fo.crash_switch = &crash;
  auto follower = Follower::Bootstrap(fo, p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();

  LogShipper shipper(p.wal.get(), follower->get());
  for (uint64_t i = 1; i <= 4; ++i) {
    CommitRename(&p, i, i, i % 2 == 1 ? "chapter" : "title");
  }
  auto shipped = shipper.ShipOnce();
  ASSERT_FALSE(shipped.ok());  // the kill fired mid-apply
  EXPECT_TRUE(crash.crashed());
  EXPECT_FALSE((*follower)->ReadSubtree(Splid::Root()).ok());

  // Restart from the dead follower's own artifacts: received log bytes
  // survive, buffered applied state is rebuilt by the bootstrap replay.
  FollowerOptions fo2 = MiniFollowerOptions(p);
  CrashSwitch fresh(8);
  fo2.fault_injector = &faults;  // one-shot already consumed
  fo2.crash_switch = &fresh;
  auto reborn = Follower::Bootstrap(fo2, (*follower)->DiskImage(),
                                    (*follower)->LogImage());
  ASSERT_TRUE(reborn.ok()) << reborn.status().message();
  LogShipper shipper2(p.wal.get(), reborn->get());
  ASSERT_TRUE(shipper2.Drain().ok());
  EXPECT_EQ((*reborn)->committed().size(), 4u);
  auto primary_fp = DocumentFingerprint(*p.doc);
  auto reborn_fp = DocumentFingerprint((*reborn)->document());
  ASSERT_TRUE(primary_fp.ok());
  ASSERT_TRUE(reborn_fp.ok());
  EXPECT_EQ(*reborn_fp, *primary_fp);
}

TEST(ReplicationTest, ReplicaReadsAfterPageFreeingRecordsMatchThePrimary) {
  // Sixteen long ids fill the first ID-index leaves. Renaming all but the
  // first to short ids empties and frees the leaves behind the first one
  // in records that keep every tree's root and count: the follower gets
  // page images but no new attach points.
  MiniPrimary p;
  p.storage.buffer_pool_pages = 64;
  p.doc = std::make_unique<Document>(p.storage);
  auto long_id = [](int i) {
    return "a" + std::to_string(100 + i) + std::string(600, 'x');
  };
  auto short_id = [](int i) { return "z" + std::to_string(100 + i); };
  SubtreeSpec bib{"bib", {}, "", {}};
  for (int i = 0; i < 16; ++i) {
    bib.children.push_back({"item", {{"id", long_id(i)}}, "", {}});
  }
  for (int i = 0; i < 60; ++i) {
    bib.children.push_back(
        {"item", {{"id", "m" + std::to_string(100 + i)}}, "", {}});
  }
  auto root = p.doc->BuildFromSpec(bib);
  ASSERT_TRUE(root.ok()) << root.status().message();
  CaptureBase(&p);
  auto follower =
      Follower::Bootstrap(MiniFollowerOptions(p), p.base_disk, p.base_log);
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  LogShipper shipper(p.wal.get(), follower->get());

  // A replica read hints the follower's ID index at the leaf of long id
  // 8, a leaf of long ids only (about six fit a page). That id is renamed
  // last, so the image the follower last got of its leaf before the
  // primary freed it holds just that id.
  auto hinted = (*follower)->LookupId(long_id(8));
  ASSERT_TRUE(hinted.ok() && hinted->has_value());
  const uint64_t reattaches = (*follower)->stats().reattaches;
  const NameSurrogate id_name = p.doc->vocabulary().Intern("id");
  for (int i : {1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 8}) {
    auto element = p.doc->LookupId(long_id(i));
    ASSERT_TRUE(element.has_value());
    auto attr = p.doc->FindAttribute(*element, id_name);
    ASSERT_TRUE(attr.ok() && attr->has_value());
    {
      ScopedWalTx scope(i);
      ASSERT_TRUE(
          p.doc->UpdateContent((*attr)->AttributeChild(), short_id(i)).ok());
    }
    ASSERT_TRUE(p.wal->AppendCommit(i, i, "rename-id").ok());
  }
  ASSERT_TRUE(shipper.Drain().ok());
  EXPECT_EQ((*follower)->stats().reattaches, reattaches);

  for (int i : {8, 0, 1, 7, 9, 15}) {
    for (const std::string& id : {long_id(i), short_id(i)}) {
      auto replica = (*follower)->LookupId(id);
      ASSERT_TRUE(replica.ok()) << replica.status().message();
      EXPECT_EQ(*replica, p.doc->LookupId(id)) << id.substr(0, 4);
    }
  }
  auto replica_nodes = (*follower)->ReadSubtree(*root);
  auto primary_nodes = p.doc->Subtree(*root);
  ASSERT_TRUE(replica_nodes.ok()) << replica_nodes.status().message();
  ASSERT_TRUE(primary_nodes.ok());
  ASSERT_EQ(replica_nodes->size(), primary_nodes->size());
  for (size_t n = 0; n < primary_nodes->size(); ++n) {
    EXPECT_EQ((*replica_nodes)[n].splid, (*primary_nodes)[n].splid);
    EXPECT_EQ((*replica_nodes)[n].record.content,
              (*primary_nodes)[n].record.content);
  }
}

TEST(ReplicationTest, RunStatsCarryReplicationCounters) {
  // A clean run (no kill armed): at shutdown the drain leaves zero lag.
  RunConfig run = FuzzRunConfig(Injury::kPair, 9);
  run.faults.points.clear();
  PairReplicationObserver::Options obs;
  obs.seed = 9;
  PairReplicationObserver observer(obs);
  run.replication = &observer;
  auto stats = RunCluster1(run, nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  ASSERT_TRUE(observer.background_status().ok())
      << observer.background_status().message();
  EXPECT_TRUE(stats->repl.enabled);
  EXPECT_GT(stats->repl.shipped_bytes, 0u);
  EXPECT_GT(stats->repl.records_applied, 0u);
  EXPECT_EQ(stats->repl.ship_lag_bytes(), 0u);  // drained at shutdown
}

TEST(ReplicationTest, ReplicationWithoutWalIsRejected) {
  PairReplicationObserver::Options obs;
  PairReplicationObserver observer(obs);
  RunConfig run = FuzzRunConfig(Injury::kPair, 1);
  run.wal = WalMode::kDisabled;
  run.replication = &observer;
  auto stats = RunCluster1(run, nullptr);
  EXPECT_FALSE(stats.ok());
}

}  // namespace
}  // namespace xtc
