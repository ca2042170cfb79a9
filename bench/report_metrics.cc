// Supporting report: the paper's §4.1 measurement catalogue for one
// CLUSTER1 run — committed/aborted per type, avg/max transaction
// durations and percentiles, deadlock counts with classification, every
// layer's counters (one CollectRunMetrics line per metric), plus storage
// occupancy of the document tree (§3.1).
//
//   ./bench/report_metrics [protocol] [--replicated]  (default taDOM3+)
//
// --replicated attaches a log-shipping follower (DESIGN.md §7) for the
// run and adds the replication counters to the report. Exits 1 when the
// run committed nothing or, over sockets (XTC_NET=1), left sessions
// active or parked after the drain.

#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "node/document.h"
#include "repl/repl_harness.h"
#include "tamix/bib_generator.h"

using namespace xtc;
using namespace xtc::bench;

int main(int argc, char** argv) {
  const char* protocol = "taDOM3+";
  bool replicated = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replicated") == 0) {
      replicated = true;
    } else {
      protocol = argv[i];
    }
  }
  PrintHeader("Metrics report", "per-type metrics for one CLUSTER1 run");

  RunConfig config = Cluster1Config();
  config.protocol = protocol;
  config.isolation = IsolationLevel::kRepeatable;
  config.lock_depth = 5;
  PairReplicationObserver::Options obs;
  obs.seed = config.seed;
  PairReplicationObserver observer(obs);
  if (replicated) {
    config.wal = WalMode::kEnabled;
    config.replication = &observer;
  }
  RunStats stats = MustRun(config);

  std::printf("\nprotocol %s, isolation repeatable, lock depth %d\n\n",
              protocol, config.lock_depth);
  std::fputs(ToText(CollectRunMetrics(stats)).c_str(), stdout);

  // Storage occupancy of a fresh bib document (paper §3.1: > 96 % on
  // their container pages; a B+-tree with half-splits sits lower).
  Document doc;
  if (GenerateBib(&doc, config.bib).ok()) {
    auto occ = doc.MeasureOccupancy();
    std::printf(
        "\ndocument store: %llu leaf + %llu inner pages, occupancy %.1f%%\n",
        static_cast<unsigned long long>(occ.leaf_pages),
        static_cast<unsigned long long>(occ.inner_pages),
        100.0 * occ.ratio());
  }

  // Gate: a run that commits nothing, or a socket run that leaves
  // sessions behind after the drain, is a failed run.
  int status = 0;
  if (stats.total_committed() == 0) {
    std::fprintf(stderr, "FAIL: the run committed no transaction\n");
    status = 1;
  }
  if (stats.net_server && (stats.net_server->active_sessions != 0 ||
                           stats.net_server->parked_sessions != 0)) {
    std::fprintf(stderr, "FAIL: LEAK: sessions active or parked after drain "
                         "(net.server.active_sessions, parked_sessions)\n");
    status = 1;
  }
  return status;
}
