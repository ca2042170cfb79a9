// Metrics tests: latency-histogram bucket math and percentiles, the
// live-snapshot fix (Snapshot() must report real elapsed time mid-run,
// not 0 — the server's stats request polls it), and the single metric
// vocabulary (every stats field reaches CollectRunMetrics exactly once).

#include "tamix/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace xtc {
namespace {

TEST(LatencyHistogramTest, BucketBoundsAreConsistent) {
  // Every value must land in a bucket whose upper bound is >= the value
  // and within 25 % of it (the 2-significand-bit guarantee).
  for (int64_t v : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 999, 1000, 4096,
                    65535, 1000000, 123456789}) {
    const int b = LatencyHistogram::BucketFor(v);
    const int64_t upper = LatencyHistogram::BucketUpper(b);
    EXPECT_GE(upper, v) << v;
    if (v >= LatencyHistogram::kSub) {
      EXPECT_LE(upper, v + v / 4 + 1) << v;
    } else {
      EXPECT_EQ(upper, v);  // tiny values are exact
    }
    // The next bucket starts strictly above this one's upper bound.
    if (b + 1 < LatencyHistogram::kBuckets) {
      EXPECT_GT(LatencyHistogram::BucketUpper(b + 1), upper) << v;
    }
  }
  // Out-of-range values clamp instead of indexing out of bounds.
  EXPECT_EQ(LatencyHistogram::BucketFor(-5), 0);
  EXPECT_EQ(LatencyHistogram::BucketFor(INT64_MAX),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogramTest, PercentilesOnKnownDistribution) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileUs(0.99), 0);  // empty
  // 100 samples: 50 at ~1 ms, 45 at ~10 ms, 5 at ~100 ms.
  for (int i = 0; i < 50; ++i) h.Record(1000);
  for (int i = 0; i < 45; ++i) h.Record(10000);
  for (int i = 0; i < 5; ++i) h.Record(100000);
  EXPECT_EQ(h.total, 100u);
  const int64_t p50 = h.PercentileUs(0.50);
  const int64_t p95 = h.PercentileUs(0.95);
  const int64_t p99 = h.PercentileUs(0.99);
  EXPECT_GE(p50, 1000);
  EXPECT_LE(p50, 1250);  // <= 25 % over
  EXPECT_GE(p95, 10000);
  EXPECT_LE(p95, 12500);
  EXPECT_GE(p99, 100000);
  EXPECT_LE(p99, 125000);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 10; ++i) a.Record(1000);
  for (int i = 0; i < 90; ++i) b.Record(50000);
  a.Merge(b);
  EXPECT_EQ(a.total, 100u);
  // 10 % of samples at 1 ms, the rest at 50 ms: p05 is small, p50 large.
  EXPECT_LE(a.PercentileUs(0.05), 1250);
  EXPECT_GE(a.PercentileUs(0.50), 50000);
}

TEST(LatencyHistogramTest, PercentileNeverExceedsTheMax) {
  // Skewed: 90 fast samples and 10 at 56.4 ms, whose bucket's upper
  // bound is 57.3 ms. The top ranks must report the observed maximum,
  // not the bucket bound above it.
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(1000);
  for (int i = 0; i < 10; ++i) h.Record(56400);
  EXPECT_GT(LatencyHistogram::BucketUpper(LatencyHistogram::BucketFor(56400)),
            56400);
  EXPECT_EQ(h.max_us, 56400);
  EXPECT_EQ(h.min_us, 1000);
  EXPECT_LE(h.PercentileUs(0.99), h.max_us);
  EXPECT_EQ(h.PercentileUs(1.0), 56400);

  MetricsCollector metrics;
  for (int i = 0; i < 90; ++i) metrics.RecordCommit(TxType::kQueryBook, 1000);
  for (int i = 0; i < 10; ++i) metrics.RecordCommit(TxType::kQueryBook, 56400);
  const TxTypeStats qb =
      metrics.Snapshot().per_type[static_cast<size_t>(TxType::kQueryBook)];
  EXPECT_LE(qb.p99_ms(), qb.max_ms());
  EXPECT_DOUBLE_EQ(qb.max_ms(), 56.4);
  EXPECT_DOUBLE_EQ(qb.avg_duration_ms(), (90 * 1.0 + 10 * 56.4) / 100);
}

TEST(MetricsCollectorTest, SnapshotReportsLiveElapsedTimeMidRun) {
  MetricsCollector metrics;
  metrics.RecordCommit(TxType::kQueryBook, 1500);
  // Regression: before MarkRunStart existed, a mid-run Snapshot() carried
  // run_duration_ms = 0 and throughput_per_5min() read 0.0 from any live
  // poller.
  EXPECT_EQ(metrics.Snapshot().run_duration_ms, 0);
  metrics.MarkRunStart();
  SleepFor(Millis(20));
  RunStats live = metrics.Snapshot();
  EXPECT_GE(live.run_duration_ms, 20);
  EXPECT_GT(live.throughput_per_5min(), 0.0);
  EXPECT_EQ(live.total_committed(), 1u);
}

TEST(MetricsCollectorTest, PerTypePercentilesFlowIntoSnapshot) {
  MetricsCollector metrics;
  for (int i = 0; i < 100; ++i) metrics.RecordCommit(TxType::kChapter, 2000);
  RunStats s = metrics.Snapshot();
  const TxTypeStats& t = s.per_type[static_cast<size_t>(TxType::kChapter)];
  EXPECT_EQ(t.latency.total, 100u);
  EXPECT_GE(t.p50_ms(), 2.0);
  EXPECT_LE(t.p99_ms(), 2.5);
  // The merged view sees the same samples.
  EXPECT_EQ(s.merged_latency().total, 100u);
  EXPECT_GE(s.p99_ms(), 2.0);
}

// Fills every field of `s` with the next distinct value.
template <typename S>
void FillDistinct(S* s, uint64_t* next) {
  S::ForEachField(*s, [&](const char*, const char*, uint64_t& v) {
    v = (*next)++;
  });
}

// Expects every field of `s` in `by_name` under `prefix`, with its value.
template <typename S>
void ExpectFields(const std::map<std::string, double>& by_name,
                  const std::string& prefix, const S& s) {
  S::ForEachField(s, [&](const char* name, const char*, uint64_t v) {
    auto it = by_name.find(prefix + name);
    ASSERT_NE(it, by_name.end()) << prefix + name;
    EXPECT_EQ(it->second, static_cast<double>(v)) << prefix + name;
  });
}

TEST(MetricSetTest, EveryStatsFieldAppearsOnceWithItsValue) {
  RunStats stats;
  uint64_t next = 1000;
  for (TxTypeStats& t : stats.per_type) {
    FillDistinct(&t, &next);
    t.latency.Record(static_cast<int64_t>(next++));
  }
  FillDistinct(&stats.lock_stats, &next);
  FillDistinct(&stats.buffer, &next);
  FillDistinct(&stats.wal, &next);
  stats.repl.enabled = true;
  FillDistinct(&stats.repl, &next);
  stats.net_server.emplace();
  FillDistinct(&*stats.net_server, &next);
  stats.net_client.emplace();
  FillDistinct(&*stats.net_client, &next);
  stats.net_chaos.emplace();
  FillDistinct(&*stats.net_chaos, &next);
  stats.run_duration_ms = static_cast<int64_t>(next++);

  const MetricSet metrics = CollectRunMetrics(stats);
  std::map<std::string, double> by_name;
  for (const Metric& m : metrics) {
    EXPECT_TRUE(by_name.emplace(m.name, m.value).second)
        << "duplicate metric " << m.name;
    EXPECT_FALSE(m.unit.empty()) << m.name;
  }
  for (int t = 0; t < kNumTxTypes; ++t) {
    const TxTypeStats& s = stats.per_type[static_cast<size_t>(t)];
    const std::string prefix =
        "tx." + std::string(TxTypeName(static_cast<TxType>(t))) + ".";
    ExpectFields(by_name, prefix, s);
    EXPECT_EQ(by_name.at(prefix + "max_ms"), s.max_ms());
  }
  ExpectFields(by_name, "tx.all.", stats.all_types());
  ExpectFields(by_name, "lock.", stats.lock_stats);
  ExpectFields(by_name, "buffer.", stats.buffer);
  ExpectFields(by_name, "wal.", stats.wal);
  ExpectFields(by_name, "repl.", stats.repl);
  ExpectFields(by_name, "net.server.", *stats.net_server);
  ExpectFields(by_name, "net.client.", *stats.net_client);
  ExpectFields(by_name, "net.chaos.", *stats.net_chaos);
  EXPECT_EQ(by_name.at("run.duration_ms"),
            static_cast<double>(stats.run_duration_ms));
}

TEST(MetricSetTest, JsonExportIsFixed) {
  const MetricSet metrics = {{"tx.all.committed", "count", 12},
                             {"tx.all.p99_ms", "ms", 2.5}};
  EXPECT_EQ(ToJson(metrics),
            "{\n"
            "  \"tx.all.committed\": {\"value\": 12, \"unit\": \"count\"},\n"
            "  \"tx.all.p99_ms\": {\"value\": 2.500, \"unit\": \"ms\"}\n"
            "}\n");
}

}  // namespace
}  // namespace xtc
