// failover_demo: kill → replica reads → promote → resume, end to end.
//
// Drives the paired fuzz injury's pieces (docs/robustness.md) through one
// full failover: a serializable TaMix workload runs on a WAL-attached
// primary while a log-shipping follower tails the durable log; a seeded
// crash.commit kill freezes the primary mid-run; the surviving durable
// log is drained into the follower, which first serves replica reads
// (with its applied-LSN watermark shown), is then promoted — torn tail
// truncated, losers rolled back — and finally accepts new committed
// writes as the replacement primary. Every step is checked, not just
// printed: the follower and then the promoted database must pass the
// fuzz contract (exactly the worker-observed commits, a document equal
// to a single-threaded replay of them), and the resumed writes must
// commit and validate.
//
// Usage: failover_demo [--seed S]   (default seed 2: crash.commit)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "repl/repl_harness.h"
#include "tamix/bib_generator.h"
#include "tamix/fuzz.h"
#include "wal/wal.h"

namespace xtc {
namespace {

void Step(const char* what) { std::printf("\n== %s\n", what); }

Status RunDemo(uint64_t seed) {
  // --- 1. Primary under load, follower tailing -------------------------
  Step("primary: serializable TaMix run with a tailing follower");
  RunConfig run = FuzzRunConfig(Injury::kPair, seed);
  if (run.faults.points.empty()) {
    return Status::InvalidArgument(
        "seed " + std::to_string(seed) +
        " selects the follower-side kill; pick a primary-kill seed "
        "(residue 0..3 mod 5)");
  }
  PairReplicationObserver::Options obs;
  obs.seed = seed;
  PairReplicationObserver observer(obs);
  run.replication = &observer;
  ChaosReport report;
  XTC_ASSIGN_OR_RETURN(RunStats stats, RunCluster1(run, &report));
  XTC_RETURN_IF_ERROR(observer.background_status());
  std::printf("   kill point %s: primary %s after %llu commit(s)\n",
              run.faults.points[0].first.c_str(),
              report.crashed ? "froze" : "shut down cleanly",
              static_cast<unsigned long long>(report.committed.size()));
  std::printf("   shipped %llu byte(s) in %llu chunk(s) while it ran\n",
              static_cast<unsigned long long>(stats.repl.shipped_bytes),
              static_cast<unsigned long long>(stats.repl.shipped_chunks));

  // --- 2. Replica reads on the drained follower ------------------------
  Step("follower: drained the surviving durable log, serving reads");
  Follower* follower = observer.follower();
  if (follower == nullptr) return Status::Internal("no follower after run");
  const ReplicationStats fstats = follower->stats();
  std::printf("   applied LSN %llu, received LSN %llu, %llu commit(s), "
              "%llu page(s) redone\n",
              static_cast<unsigned long long>(fstats.applied_lsn),
              static_cast<unsigned long long>(fstats.received_lsn),
              static_cast<unsigned long long>(fstats.commits_applied),
              static_cast<unsigned long long>(fstats.pages_applied));

  // The bib build is deterministic: regenerate it on a scratch store to
  // learn the ids the replica should be able to resolve.
  BibInfo info;
  {
    Document scratch(run.storage);
    XTC_ASSIGN_OR_RETURN(info, GenerateBib(&scratch, run.bib));
  }
  // The workload may legitimately have deleted books; what matters is
  // that the replica's answers match the promoted primary's (checked in
  // step 4, after promotion).
  std::vector<bool> replica_found;
  size_t resolved = 0;
  ReplicaReadView view;
  for (const std::string& id : info.book_ids) {
    XTC_ASSIGN_OR_RETURN(auto splid, follower->LookupId(id, &view));
    replica_found.push_back(splid.has_value());
    if (splid.has_value()) ++resolved;
  }
  XTC_ASSIGN_OR_RETURN(std::vector<Node> subtree,
                       follower->ReadSubtree(Splid::Root(), &view));
  std::printf("   resolved %zu/%zu book ids; root subtree holds %zu node(s) "
              "(view: applied LSN %llu, lag %llu byte(s))\n",
              resolved, info.book_ids.size(), subtree.size(),
              static_cast<unsigned long long>(view.applied_lsn),
              static_cast<unsigned long long>(view.lag_bytes));

  // --- 3. Pair contract ------------------------------------------------
  Step("contract: follower commit set == worker-observed commit set");
  XTC_RETURN_IF_ERROR(CheckFuzzContract(run, report.committed,
                                        follower->committed(), "the follower",
                                        nullptr));
  std::printf("   %zu commit(s), (seq, type, body seed) for each — zero "
              "lost\n",
              report.committed.size());

  // --- 4. Promote ------------------------------------------------------
  Step("promote: truncate torn tail, roll back losers, become primary");
  RecoveryOptions recovery;
  recovery.redo_workers = 4;
  XTC_ASSIGN_OR_RETURN(OpenResult promoted,
                       follower->Promote(FaultFreeStorage(run.storage),
                                         WalOptions{}, recovery));
  std::printf("   scanned %llu record(s), redid %llu, undid %llu loser(s) "
              "(%d redo workers)\n",
              static_cast<unsigned long long>(promoted.stats.records_scanned),
              static_cast<unsigned long long>(promoted.stats.records_redone),
              static_cast<unsigned long long>(promoted.stats.losers_undone),
              recovery.redo_workers);
  XTC_RETURN_IF_ERROR(CheckFuzzContract(run, report.committed,
                                        promoted.committed,
                                        "the promoted database",
                                        promoted.doc.get()));
  std::printf("   promoted database holds the same commits and equals the "
              "single-threaded replay\n");
  // Replica reads run at isolation NONE over raw redo state, so before
  // promotion they can see effects of in-flight transactions that the
  // undo pass rolls back. Ids the losers never touched must agree.
  size_t dirty = 0;
  for (size_t i = 0; i < info.book_ids.size(); ++i) {
    if (promoted.doc->LookupId(info.book_ids[i]).has_value() !=
        replica_found[i]) {
      std::printf("   note: pre-promotion read of '%s' saw an in-flight "
                  "transaction the undo pass rolled back (isolation NONE)\n",
                  info.book_ids[i].c_str());
      ++dirty;
    }
  }
  if (dirty > promoted.stats.losers_undone) {
    return Status::Internal(
        std::to_string(dirty) + " replica reads disagree with the promoted "
        "primary but only " + std::to_string(promoted.stats.losers_undone) +
        " loser(s) were undone");
  }
  if (dirty == 0) {
    std::printf("   every pre-promotion replica read matches the promoted "
                "primary\n");
  }

  // --- 5. Resume committed writes on the new primary -------------------
  Step("resume: new committed writes on the promoted primary");
  Document& doc = *promoted.doc;
  uint64_t tx = 1u << 20;  // clear of every workload tx id
  uint64_t seq = report.committed.empty() ? 1
                                          : report.committed.back().seq + 1;
  const NameSurrogate renamed = doc.vocabulary().Intern("failover-demo");
  const NameSurrogate original = doc.vocabulary().Intern("title");
  for (int i = 0; i < 4; ++i) {
    auto target =
        doc.NthElementByName(i % 2 == 0 ? "title" : "failover-demo", 0);
    if (!target.has_value()) return Status::Internal("no rename target");
    {
      ScopedWalTx scope(tx);
      XTC_RETURN_IF_ERROR(
          doc.RenameElement(*target, i % 2 == 0 ? renamed : original));
    }
    XTC_RETURN_IF_ERROR(promoted.wal->AppendCommit(tx, seq, "resumed"));
    ++tx;
    ++seq;
  }
  XTC_RETURN_IF_ERROR(doc.Validate());
  std::printf("   4 committed write(s) applied; document validates\n");

  std::printf("\nfailover complete: zero commits lost, service resumed\n");
  return Status::OK();
}

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  uint64_t seed = 2;  // crash.commit
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: failover_demo [--seed S]\n");
      return 2;
    }
  }
  xtc::Status st = xtc::RunDemo(seed);
  if (!st.ok()) {
    std::fprintf(stderr, "failover_demo: %s\n", st.message().c_str());
    return 1;
  }
  return 0;
}
