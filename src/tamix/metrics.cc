#include "tamix/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace xtc {

int LatencyHistogram::BucketFor(int64_t us) {
  if (us < 0) us = 0;
  const uint64_t v = static_cast<uint64_t>(us);
  if (v < kSub) return static_cast<int>(v);  // exact for tiny values
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((v >> shift) & (kSub - 1));
  const int bucket = ((msb - kSubBits + 1) << kSubBits) + sub;
  return bucket < kBuckets ? bucket : kBuckets - 1;
}

int64_t LatencyHistogram::BucketUpper(int bucket) {
  if (bucket < kSub) return bucket;
  const int octave = bucket >> kSubBits;
  const int sub = bucket & (kSub - 1);
  const int shift = octave - 1;
  return ((static_cast<int64_t>(kSub + sub) + 1) << shift) - 1;
}

void LatencyHistogram::Record(int64_t us) {
  if (total == 0 || us < min_us) min_us = us;
  max_us = std::max(max_us, us);
  sum_us += us;
  ++counts[BucketFor(us)];
  ++total;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.total == 0) return;
  for (int i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  min_us = total == 0 ? other.min_us : std::min(min_us, other.min_us);
  max_us = std::max(max_us, other.max_us);
  sum_us += other.sum_us;
  total += other.total;
}

int64_t LatencyHistogram::PercentileUs(double p) const {
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested sample, 1-based: the smallest bucket whose
  // cumulative count reaches it bounds the percentile from above.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p * static_cast<double>(total) + 0.5));
  // The bucket bound may lie above every sample in the bucket; the
  // observed maximum is a tighter bound for the top ranks.
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) return std::min(BucketUpper(i), max_us);
  }
  return max_us;
}

void MetricsCollector::MarkRunStart() {
  MutexLock guard(mu_);
  started_ = true;
  run_start_ = Now();
}

void MetricsCollector::RecordCommit(TxType type, int64_t duration_us) {
  MutexLock guard(mu_);
  TxTypeStats& s = per_type_[static_cast<size_t>(type)];
  s.latency.Record(duration_us);
  ++s.committed;
}

void MetricsCollector::RecordAbort(TxType type, const Status& reason) {
  MutexLock guard(mu_);
  TxTypeStats& s = per_type_[static_cast<size_t>(type)];
  ++s.aborted;
  if (reason.code() == StatusCode::kDeadlock) ++s.deadlock_aborts;
  if (reason.code() == StatusCode::kLockTimeout) ++s.timeout_aborts;
}

void MetricsCollector::RecordRetry(TxType type) {
  MutexLock guard(mu_);
  ++per_type_[static_cast<size_t>(type)].retries;
}

void MetricsCollector::RecordUndoFailure(TxType type) {
  MutexLock guard(mu_);
  ++per_type_[static_cast<size_t>(type)].undo_failures;
}

RunStats MetricsCollector::Snapshot() const {
  MutexLock guard(mu_);
  RunStats out;
  out.per_type = per_type_;
  // Live elapsed time: a mid-run poll must see real throughput. The
  // coordinator overwrites this with the authoritative elapsed time once
  // the run ends.
  if (started_) out.run_duration_ms = ToMillis(Now() - run_start_);
  return out;
}

TxTypeStats RunStats::all_types() const {
  TxTypeStats all;
  for (const TxTypeStats& s : per_type) {
    SumFields(&all, s);
    all.latency.Merge(s.latency);
  }
  return all;
}

namespace {

/// Appends one stats struct's fields, each name under `prefix`.
template <typename S>
void AddFields(MetricSet* out, const std::string& prefix, const S& s) {
  S::ForEachField(s, [&](const char* name, const char* unit, uint64_t v) {
    out->push_back({prefix + name, unit, static_cast<double>(v)});
  });
}

void AddTxRow(MetricSet* out, const std::string& prefix,
              const TxTypeStats& s) {
  AddFields(out, prefix, s);
  out->push_back({prefix + "avg_ms", "ms", s.avg_duration_ms()});
  out->push_back({prefix + "p50_ms", "ms", s.p50_ms()});
  out->push_back({prefix + "p95_ms", "ms", s.p95_ms()});
  out->push_back({prefix + "p99_ms", "ms", s.p99_ms()});
  out->push_back({prefix + "max_ms", "ms", s.max_ms()});
}

std::string FormatValue(double v) {
  char buf[64];
  const bool integral = std::floor(v) == v && std::fabs(v) < 1e15;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.3f", v);
  return buf;
}

}  // namespace

MetricSet CollectRunMetrics(const RunStats& stats) {
  MetricSet out;
  for (int t = 0; t < kNumTxTypes; ++t) {
    const TxTypeStats& s = stats.per_type[static_cast<size_t>(t)];
    if (s.committed == 0 && s.aborted == 0) continue;
    const std::string type(TxTypeName(static_cast<TxType>(t)));
    AddTxRow(&out, "tx." + type + ".", s);
  }
  AddTxRow(&out, "tx.all.", stats.all_types());
  out.push_back({"run.duration_ms", "ms",
                 static_cast<double>(stats.run_duration_ms)});
  out.push_back({"run.committed_per_5min", "count",
                 stats.throughput_per_5min()});
  const LockTableStats& lock = stats.lock_stats;
  if (lock.requests > 0) {
    AddFields(&out, "lock.", lock);
    out.push_back({"lock.cache_hit_ratio", "ratio",
                   static_cast<double>(lock.cache_hits) /
                       static_cast<double>(lock.requests)});
  }
  if (stats.buffer.hits + stats.buffer.misses > 0) {
    AddFields(&out, "buffer.", stats.buffer);
  }
  if (stats.wal.records_appended > 0) AddFields(&out, "wal.", stats.wal);
  if (stats.repl.enabled) {
    AddFields(&out, "repl.", stats.repl);
    out.push_back({"repl.ship_lag_bytes", "B",
                   static_cast<double>(stats.repl.ship_lag_bytes())});
  }
  if (stats.net_server) AddFields(&out, "net.server.", *stats.net_server);
  if (stats.net_client) AddFields(&out, "net.client.", *stats.net_client);
  if (stats.net_chaos) AddFields(&out, "net.chaos.", *stats.net_chaos);
  return out;
}

std::string ToText(const MetricSet& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %14s %s\n", m.name.c_str(),
                  FormatValue(m.value).c_str(), m.unit.c_str());
    out += line;
  }
  return out;
}

std::string ToJson(const MetricSet& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  \"" + m.name + "\": {\"value\": " + FormatValue(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "\n}\n";
  return out;
}

}  // namespace xtc
