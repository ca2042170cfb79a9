// Replication counters (log shipping + follower apply), surfaced
// through RunStats and printed by bench/report_metrics when a run had a
// replication observer attached. Header-only and dependency-free so the
// metrics layer can embed it without linking src/repl/.

#ifndef XTC_REPL_REPL_STATS_H_
#define XTC_REPL_REPL_STATS_H_

#include <cstdint>

namespace xtc {

struct ReplicationStats {
  bool enabled = false;  // a replication observer ran with this run

  // Shipper side.
  uint64_t shipped_bytes = 0;
  uint64_t shipped_chunks = 0;
  uint64_t ship_rounds = 0;  // ShipOnce calls that found work

  // Follower side.
  uint64_t records_applied = 0;
  uint64_t pages_applied = 0;
  uint64_t commits_applied = 0;
  uint64_t checkpoints_applied = 0;
  uint64_t reattaches = 0;  // tree attach-point moves while tailing
  uint64_t resyncs = 0;     // torn-tail truncations of the local log
  uint64_t follower_restarts = 0;

  // Watermarks at the last observation (byte offsets into the log).
  uint64_t applied_lsn = 0;
  uint64_t received_lsn = 0;
  uint64_t source_durable_lsn = 0;
  /// Ship lag: primary durable bytes the follower had not applied yet
  /// at the last observation (0 after a full drain).
  uint64_t ship_lag_bytes() const {
    return source_durable_lsn > applied_lsn ? source_durable_lsn - applied_lsn
                                            : 0;
  }

  /// Calls f(name, unit, field) for every field, const or mutable as `s`
  /// — the one place a field's name is written (tamix/metrics.cc).
  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("shipped_bytes", "B", s.shipped_bytes);
    f("shipped_chunks", "count", s.shipped_chunks);
    f("ship_rounds", "count", s.ship_rounds);
    f("records_applied", "count", s.records_applied);
    f("pages_applied", "count", s.pages_applied);
    f("commits_applied", "count", s.commits_applied);
    f("checkpoints_applied", "count", s.checkpoints_applied);
    f("reattaches", "count", s.reattaches);
    f("resyncs", "count", s.resyncs);
    f("follower_restarts", "count", s.follower_restarts);
    f("applied_lsn", "B", s.applied_lsn);
    f("received_lsn", "B", s.received_lsn);
    f("source_durable_lsn", "B", s.source_durable_lsn);
  }
};

}  // namespace xtc

#endif  // XTC_REPL_REPL_STATS_H_
