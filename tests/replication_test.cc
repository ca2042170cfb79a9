// Replication tests (DESIGN.md §7): follower bootstrap and tailing,
// replica reads with bounded staleness, torn-chunk resync, promotion,
// and follower restart from its own artifacts. The paired crash-restart
// round trips over every kill site run in fuzz_test.

#include <memory>
#include <string>
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

MiniPrimary MakeMiniPrimary() {
  MiniPrimary p;
  p.storage.buffer_pool_pages = 64;
  p.doc = std::make_unique<Document>(p.storage);
  auto info = GenerateBib(p.doc.get(), BibConfig::Tiny());
  EXPECT_TRUE(info.ok()) << info.status().message();
  p.info = std::move(*info);
  p.wal = std::make_unique<Wal>(WalOptions{});
  p.doc->AttachWal(p.wal.get());
  EXPECT_TRUE(p.doc->buffer().FlushAll().ok());
  EXPECT_TRUE(p.doc->LogCheckpoint().ok());
  p.base_disk = p.doc->page_file().CloneImage();
  p.base_log = p.wal->DurableImage();
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
