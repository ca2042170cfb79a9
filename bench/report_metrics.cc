// Supporting report: the paper's §4.1 measurement catalogue for one
// CLUSTER1 run — committed/aborted per type, avg/min/max transaction
// durations, deadlock counts with classification, plus storage
// occupancy of the document tree (§3.1).
//
//   ./bench/report_metrics [protocol] [--replicated]  (default taDOM3+)
//
// --replicated attaches a log-shipping follower (DESIGN.md §7) for the
// run and adds the replication counters to the report.

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
  std::printf("%-18s %10s %9s %10s %8s %9s %9s %9s %9s %9s\n", "type",
              "committed", "aborted", "deadlocks", "retries", "avg ms",
              "p50 ms", "p95 ms", "p99 ms", "max ms");
  for (int t = 0; t < kNumTxTypes; ++t) {
    const TxTypeStats& s = stats.per_type[t];
    if (s.committed == 0 && s.aborted == 0) continue;
    std::printf(
        "%-18s %10llu %9llu %10llu %8llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
        std::string(TxTypeName(static_cast<TxType>(t))).c_str(),
        static_cast<unsigned long long>(s.committed),
        static_cast<unsigned long long>(s.aborted),
        static_cast<unsigned long long>(s.deadlock_aborts),
        static_cast<unsigned long long>(s.retries), s.avg_duration_ms(),
        s.p50_ms(), s.p95_ms(), s.p99_ms(), s.max_duration_us / 1000.0);
  }
  std::printf("%-18s %10llu %9llu %10s %8s %9s %9.1f %9.1f %9.1f %9s\n",
              "all types",
              static_cast<unsigned long long>(stats.total_committed()),
              static_cast<unsigned long long>(stats.total_aborted()), "", "",
              "", stats.p50_ms(), stats.p95_ms(), stats.p99_ms(), "");
  uint64_t undo_failures = 0;
  for (int t = 0; t < kNumTxTypes; ++t) {
    undo_failures += stats.per_type[t].undo_failures;
  }
  if (undo_failures > 0) {
    std::printf("\nundo failures: %llu (aborts that hit a failing undo step)\n",
                static_cast<unsigned long long>(undo_failures));
  }
  std::printf("\nlock manager: %llu requests, %llu waits, %llu conversions, "
              "%llu deadlocks (%llu conversion-caused), %llu timeouts\n",
              static_cast<unsigned long long>(stats.lock_stats.requests),
              static_cast<unsigned long long>(stats.lock_stats.waits),
              static_cast<unsigned long long>(stats.lock_stats.conversions),
              static_cast<unsigned long long>(stats.lock_stats.deadlocks),
              static_cast<unsigned long long>(
                  stats.lock_stats.conversion_deadlocks),
              static_cast<unsigned long long>(stats.lock_stats.timeouts));
  std::printf("lock set: %llu requests answered without a table round "
              "trip (%.1f%% of requests)\n",
              static_cast<unsigned long long>(stats.lock_cache_hits()),
              100.0 * stats.lock_cache_hit_rate());

  std::printf("\nbuffer pool: %llu hits, %llu misses, io in-flight hwm %llu, "
              "%llu coalesced fetches,\n  %llu eviction write-backs "
              "(%llu failed, %llu cancelled by waiters)\n",
              static_cast<unsigned long long>(stats.buffer_hits),
              static_cast<unsigned long long>(stats.buffer_misses),
              static_cast<unsigned long long>(stats.buffer_io.io_in_flight_hwm),
              static_cast<unsigned long long>(
                  stats.buffer_io.coalesced_fetches),
              static_cast<unsigned long long>(
                  stats.buffer_io.eviction_writebacks),
              static_cast<unsigned long long>(
                  stats.buffer_io.failed_writebacks),
              static_cast<unsigned long long>(
                  stats.buffer_io.cancelled_evictions));

  // Durability: only reported when the run had a WAL attached (XTC_WAL=1
  // or RunConfig::wal = kEnabled).
  if (stats.wal.records_appended > 0) {
    std::printf("\nwal: %llu records (%llu bytes), %llu forced syncs, "
                "%llu commit records, %llu checkpoints, %llu clean flush "
                "failures\n",
                static_cast<unsigned long long>(stats.wal.records_appended),
                static_cast<unsigned long long>(stats.wal.bytes_appended),
                static_cast<unsigned long long>(stats.wal.syncs),
                static_cast<unsigned long long>(stats.wal.commits_logged),
                static_cast<unsigned long long>(stats.wal.checkpoints_taken),
                static_cast<unsigned long long>(stats.wal.flush_failures));
    if (stats.wal.records_redone > 0 || stats.wal.losers_undone > 0) {
      std::printf("recovery: %llu records redone (%llu pages), "
                  "%llu losers undone\n",
                  static_cast<unsigned long long>(stats.wal.records_redone),
                  static_cast<unsigned long long>(stats.wal.pages_redone),
                  static_cast<unsigned long long>(stats.wal.losers_undone));
    }
  }

  // Replication: only reported when a follower was attached (the
  // counters merge the shipper's and the follower's sides; see
  // repl/repl_stats.h).
  if (stats.repl.enabled) {
    std::printf("\nreplication: %llu bytes shipped in %llu chunk(s) over "
                "%llu round(s)\n",
                static_cast<unsigned long long>(stats.repl.shipped_bytes),
                static_cast<unsigned long long>(stats.repl.shipped_chunks),
                static_cast<unsigned long long>(stats.repl.ship_rounds));
    std::printf("  follower: %llu record(s) applied (%llu pages, %llu "
                "commits, %llu checkpoints), %llu reattach(es), "
                "%llu resync(s), %llu restart(s)\n",
                static_cast<unsigned long long>(stats.repl.records_applied),
                static_cast<unsigned long long>(stats.repl.pages_applied),
                static_cast<unsigned long long>(stats.repl.commits_applied),
                static_cast<unsigned long long>(
                    stats.repl.checkpoints_applied),
                static_cast<unsigned long long>(stats.repl.reattaches),
                static_cast<unsigned long long>(stats.repl.resyncs),
                static_cast<unsigned long long>(
                    stats.repl.follower_restarts));
    std::printf("  watermarks: applied LSN %llu, received LSN %llu, "
                "lag %llu byte(s)\n",
                static_cast<unsigned long long>(stats.repl.applied_lsn),
                static_cast<unsigned long long>(stats.repl.received_lsn),
                static_cast<unsigned long long>(stats.repl.ship_lag_bytes()));
  }

  // Network front-end: only reported when the run went over sockets
  // (XTC_NET=1 or RunConfig::frontend = kSocket; see DESIGN.md §8).
  if (stats.net.enabled) {
    std::printf("\nnetwork: %llu session(s), %llu parked, %llu resumed, "
                "%llu lease(s) expired, %llu dedup hit(s)\n",
                static_cast<unsigned long long>(stats.net.sessions_accepted),
                static_cast<unsigned long long>(stats.net.sessions_parked),
                static_cast<unsigned long long>(stats.net.sessions_resumed),
                static_cast<unsigned long long>(stats.net.leases_expired),
                static_cast<unsigned long long>(stats.net.dedup_hits));
    std::printf("  clients: %llu reconnect(s), %llu resume(s), %llu retried "
                "request(s), %llu io timeout(s), %llu unknown commit(s)\n",
                static_cast<unsigned long long>(stats.net.reconnects),
                static_cast<unsigned long long>(stats.net.resumes),
                static_cast<unsigned long long>(stats.net.retried_requests),
                static_cast<unsigned long long>(stats.net.io_timeouts),
                static_cast<unsigned long long>(stats.net.unknown_commits));
    if (stats.net.chaos_connections > 0) {
      std::printf("  chaos proxy: %llu connection(s), %llu drop(s), "
                  "%llu truncation(s), %llu delay(s), %llu duplicate(s)\n",
                  static_cast<unsigned long long>(stats.net.chaos_connections),
                  static_cast<unsigned long long>(stats.net.chaos_drops),
                  static_cast<unsigned long long>(stats.net.chaos_truncations),
                  static_cast<unsigned long long>(stats.net.chaos_delays),
                  static_cast<unsigned long long>(stats.net.chaos_duplicates));
    }
    if (stats.net.sessions_active_end != 0 ||
        stats.net.sessions_parked_end != 0) {
      std::printf("  LEAK: %llu active / %llu parked session(s) after drain\n",
                  static_cast<unsigned long long>(stats.net.sessions_active_end),
                  static_cast<unsigned long long>(
                      stats.net.sessions_parked_end));
    }
  }

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
  return 0;
}
