// Benchmark metrics (paper §4.1): committed / aborted transactions per
// type, transaction durations, deadlock counts and classification.

#ifndef XTC_TAMIX_METRICS_H_
#define XTC_TAMIX_METRICS_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "lock/lock_table.h"
#include "repl/repl_stats.h"
#include "storage/buffer_manager.h"
#include "tamix/transactions.h"
#include "wal/wal.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace xtc {

/// Fixed-size log-scale latency histogram (microsecond samples). Buckets
/// are octaves refined by 2 extra significand bits (4 sub-buckets per
/// power of two), so a recorded value lands in a bucket whose width is at
/// most 1/4 of its magnitude — percentile estimates carry ≤ 25 % relative
/// error, plenty for the saturation bench's p99 while keeping the whole
/// histogram at a fixed 1.3 kB (mergeable across types/workers by plain
/// addition, no allocation on the record path).
struct LatencyHistogram {
  static constexpr int kSubBits = 2;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kBuckets = 40 * kSub;  // covers > 150 hours in µs
  std::array<uint64_t, kBuckets> counts{};
  uint64_t total = 0;

  static int BucketFor(int64_t us);
  /// Upper bound (µs) of the bucket, the value Percentile reports.
  static int64_t BucketUpper(int bucket);

  void Record(int64_t us);
  void Merge(const LatencyHistogram& other);
  /// Smallest recorded-bucket upper bound covering fraction `p` (0..1]
  /// of the samples; 0 when empty.
  int64_t PercentileUs(double p) const;
};

struct TxTypeStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t timeout_aborts = 0;
  /// Aborted attempts that were retried (chaos mode's bounded retry loop).
  uint64_t retries = 0;
  /// Aborts in which at least one undo action reported failure.
  uint64_t undo_failures = 0;
  int64_t total_duration_us = 0;  // committed transactions only
  int64_t min_duration_us = 0;
  int64_t max_duration_us = 0;
  /// Commit-latency distribution (committed transactions only, like the
  /// duration aggregates above).
  LatencyHistogram latency;

  double avg_duration_ms() const {
    return committed == 0
               ? 0.0
               : static_cast<double>(total_duration_us) / 1000.0 /
                     static_cast<double>(committed);
  }
  double p50_ms() const { return latency.PercentileUs(0.50) / 1000.0; }
  double p95_ms() const { return latency.PercentileUs(0.95) / 1000.0; }
  double p99_ms() const { return latency.PercentileUs(0.99) / 1000.0; }
};

/// Socket-frontend resilience counters for one run (enabled=false when
/// the run used the in-process frontend). Server-side numbers come from
/// the embedded net::Server, client-side numbers are summed over every
/// worker's net::Client, chaos numbers from the interposed proxy (all
/// zero without one).
struct NetRunStats {
  bool enabled = false;
  // Server side.
  uint64_t sessions_accepted = 0;
  uint64_t sessions_parked = 0;   // disconnects parked under a lease
  uint64_t sessions_resumed = 0;  // successful kResume adoptions
  uint64_t leases_expired = 0;    // parked cores that aged out
  uint64_t dedup_hits = 0;        // retried requests answered from table
  // Post-drain gauges (leak check: both must be zero after Stop).
  uint64_t sessions_active_end = 0;
  uint64_t sessions_parked_end = 0;
  // Client side (summed over workers).
  uint64_t reconnects = 0;
  uint64_t resumes = 0;
  uint64_t lease_expired = 0;
  uint64_t retried_requests = 0;
  uint64_t unknown_commits = 0;
  uint64_t io_timeouts = 0;
  // Chaos proxy.
  uint64_t chaos_connections = 0;
  uint64_t chaos_drops = 0;
  uint64_t chaos_truncations = 0;
  uint64_t chaos_delays = 0;
  uint64_t chaos_duplicates = 0;
  uint64_t chaos_cuts = 0;
  uint64_t chaos_stalls = 0;
};

struct RunStats {
  std::array<TxTypeStats, kNumTxTypes> per_type;
  LockTableStats lock_stats;
  /// Buffer-pool behaviour over the run: hit/miss counts plus the
  /// I/O-overlap counters (in-flight high-water mark, coalesced fetches,
  /// eviction write-backs) from the document's BufferManager.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  BufferPoolStats buffer_io;
  /// WAL behaviour over the run (all-zero when the run had no WAL):
  /// appends, forced syncs, checkpoints, and — after a restart — the
  /// recovery counters (records redone, losers undone).
  WalStats wal;
  /// Log-shipping replication counters (enabled=false when the run had
  /// no replication observer attached).
  ReplicationStats repl;
  /// Socket-frontend resilience counters (enabled=false when the run
  /// used the in-process frontend).
  NetRunStats net;
  int64_t run_duration_ms = 0;

  uint64_t total_committed() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.committed;
    return n;
  }
  uint64_t total_aborted() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.aborted;
    return n;
  }
  uint64_t total_deadlocks() const { return lock_stats.deadlocks; }
  /// Deadlocks closed by a lock-conversion wait — the paper's dominant
  /// flavour; the gap to total_deadlocks() is fresh-request cycles.
  uint64_t conversion_deadlocks() const {
    return lock_stats.conversion_deadlocks;
  }
  /// Lock requests answered from the transaction's own lock set — a
  /// resource-shard round trip skipped entirely. The rate is per request,
  /// the same definition as perfbench's lock.cache_hit_ratio.
  uint64_t lock_cache_hits() const { return lock_stats.cache_hits; }
  double lock_cache_hit_rate() const {
    return lock_stats.requests == 0
               ? 0.0
               : static_cast<double>(lock_stats.cache_hits) /
                     static_cast<double>(lock_stats.requests);
  }
  uint64_t total_retries() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.retries;
    return n;
  }
  uint64_t total_undo_failures() const {
    uint64_t n = 0;
    for (const auto& s : per_type) n += s.undo_failures;
    return n;
  }

  /// Committed transactions normalized to the paper's 5-minute runs.
  double throughput_per_5min() const {
    if (run_duration_ms <= 0) return 0.0;
    return static_cast<double>(total_committed()) * 300000.0 /
           static_cast<double>(run_duration_ms);
  }

  /// Commit-latency distribution across every transaction type (the
  /// saturation bench's view: one mixed-workload percentile).
  LatencyHistogram merged_latency() const {
    LatencyHistogram h;
    for (const auto& s : per_type) h.Merge(s.latency);
    return h;
  }
  double p50_ms() const { return merged_latency().PercentileUs(0.50) / 1000.0; }
  double p95_ms() const { return merged_latency().PercentileUs(0.95) / 1000.0; }
  double p99_ms() const { return merged_latency().PercentileUs(0.99) / 1000.0; }
};

/// Thread-safe collector the workers report into.
class MetricsCollector {
 public:
  /// Marks the instant the timed run begins. Until the coordinator
  /// overwrites run_duration_ms with the final elapsed time, every
  /// Snapshot() reports the live elapsed time since this mark — a
  /// mid-run poller (the server's stats request) must see a non-zero
  /// duration or throughput_per_5min() reads 0.0.
  void MarkRunStart() XTC_EXCLUDES(mu_);
  void RecordCommit(TxType type, int64_t duration_us) XTC_EXCLUDES(mu_);
  void RecordAbort(TxType type, const Status& reason) XTC_EXCLUDES(mu_);
  void RecordRetry(TxType type) XTC_EXCLUDES(mu_);
  void RecordUndoFailure(TxType type) XTC_EXCLUDES(mu_);
  RunStats Snapshot() const XTC_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::array<TxTypeStats, kNumTxTypes> per_type_ XTC_GUARDED_BY(mu_);
  bool started_ XTC_GUARDED_BY(mu_) = false;
  TimePoint run_start_ XTC_GUARDED_BY(mu_);
};

}  // namespace xtc

#endif  // XTC_TAMIX_METRICS_H_
