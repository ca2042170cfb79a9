// Benchmark metrics (paper §4.1): committed / aborted transactions per
// type, transaction durations, deadlock counts and classification.

#ifndef XTC_TAMIX_METRICS_H_
#define XTC_TAMIX_METRICS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lock/lock_table.h"
#include "net/net_stats.h"
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
/// addition, no allocation on the record path). Exact sum, min and max
/// ride along for the mean and the maximum.
struct LatencyHistogram {
  static constexpr int kSubBits = 2;
  static constexpr int kSub = 1 << kSubBits;  // sub-buckets per octave
  static constexpr int kBuckets = 40 * kSub;  // covers > 150 hours in µs
  std::array<uint64_t, kBuckets> counts{};
  uint64_t total = 0;
  int64_t sum_us = 0;
  int64_t min_us = 0;  // 0 when empty
  int64_t max_us = 0;

  static int BucketFor(int64_t us);
  /// Upper bound (µs) of the bucket, the value Percentile reports.
  static int64_t BucketUpper(int bucket);

  void Record(int64_t us);
  void Merge(const LatencyHistogram& other);
  /// Smallest recorded-bucket upper bound covering fraction `p` (0..1]
  /// of the samples, clamped to the observed maximum; 0 when empty.
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
  /// Commit-latency distribution (committed transactions only).
  LatencyHistogram latency;

  double avg_duration_ms() const {
    return latency.total == 0 ? 0.0
                              : static_cast<double>(latency.sum_us) / 1000.0 /
                                    static_cast<double>(latency.total);
  }
  double p50_ms() const { return latency.PercentileUs(0.50) / 1000.0; }
  double p95_ms() const { return latency.PercentileUs(0.95) / 1000.0; }
  double p99_ms() const { return latency.PercentileUs(0.99) / 1000.0; }
  double max_ms() const { return latency.max_us / 1000.0; }

  /// Calls f(name, unit, field) for every counter, const or mutable as
  /// `s`; the latency figures are derived in CollectRunMetrics.
  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("committed", "count", s.committed);
    f("aborted", "count", s.aborted);
    f("deadlock_aborts", "count", s.deadlock_aborts);
    f("timeout_aborts", "count", s.timeout_aborts);
    f("retries", "count", s.retries);
    f("undo_failures", "count", s.undo_failures);
  }
};

struct RunStats {
  std::array<TxTypeStats, kNumTxTypes> per_type;
  LockTableStats lock_stats;
  /// Buffer-pool behaviour over the run: hit/miss counts plus the
  /// I/O-overlap counters (in-flight high-water mark, coalesced fetches,
  /// eviction write-backs) from the document's BufferManager.
  BufferPoolStats buffer;
  /// WAL behaviour over the run (all-zero when the run had no WAL):
  /// appends, forced syncs, checkpoints, and — after a restart — the
  /// recovery counters (records redone, losers undone).
  WalStats wal;
  /// Log-shipping replication counters (enabled=false when the run had
  /// no replication observer attached).
  ReplicationStats repl;
  /// Socket-frontend counters, each present only when the run had that
  /// part: the server (read after Stop, so its session gauges are the
  /// leak check), every worker's client summed, the chaos proxy.
  std::optional<net::ServerStats> net_server;
  std::optional<net::ClientNetStats> net_client;
  std::optional<net::ChaosProxyStats> net_chaos;
  int64_t run_duration_ms = 0;

  /// Every transaction type folded into one row (latency merged).
  TxTypeStats all_types() const;
  uint64_t total_committed() const { return all_types().committed; }
  uint64_t total_aborted() const { return all_types().aborted; }
  uint64_t total_retries() const { return all_types().retries; }
  uint64_t total_undo_failures() const { return all_types().undo_failures; }
  uint64_t total_deadlocks() const { return lock_stats.deadlocks; }

  /// Committed transactions normalized to the paper's 5-minute runs.
  double throughput_per_5min() const {
    if (run_duration_ms <= 0) return 0.0;
    return static_cast<double>(total_committed()) * 300000.0 /
           static_cast<double>(run_duration_ms);
  }

  /// Commit-latency distribution across every transaction type (the
  /// saturation bench's view: one mixed-workload percentile).
  LatencyHistogram merged_latency() const { return all_types().latency; }
  double p50_ms() const { return all_types().p50_ms(); }
  double p95_ms() const { return all_types().p95_ms(); }
  double p99_ms() const { return all_types().p99_ms(); }
};

/// Adds every field of `from` into `into`, pairing fields by their
/// position in S::ForEachField (a run's workers or transaction types
/// summed into one row).
template <typename S>
void SumFields(S* into, const S& from) {
  std::vector<uint64_t> add;
  S::ForEachField(from, [&](const char*, const char*, uint64_t v) {
    add.push_back(v);
  });
  size_t i = 0;
  S::ForEachField(*into, [&](const char*, const char*, uint64_t& v) {
    v += add[i++];
  });
}

/// One named number of a report: `name` is layer-prefixed
/// ("tx.TAqueryBook.p99_ms", "lock.waits", "net.server.dedup_hits").
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
/// A report in a fixed order: what the wire kStats reply carries and
/// what the two exporters print.
using MetricSet = std::vector<Metric>;

/// Names every number of `stats`, layer by layer: tx.<type>.* per type
/// that ran and tx.all.*, run.*, then lock.*, buffer.*, wal.*, repl.*,
/// net.server.*, net.client.* and net.chaos.* for each layer the run
/// had (a layer with zero activity — no lock requests, no buffer fixes,
/// no log records, no replication observer, no socket part — is left out).
MetricSet CollectRunMetrics(const RunStats& stats);

/// One line per metric: name, value, unit.
std::string ToText(const MetricSet& metrics);
/// One JSON object keyed by name: {"name": {"value": v, "unit": "u"}}.
std::string ToJson(const MetricSet& metrics);

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
