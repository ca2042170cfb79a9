// Microbenchmark: commit overhead of the write-ahead log.
//
// Two measurements:
//   1. End-to-end CLUSTER1 throughput with the WAL disabled vs enabled
//      (same seed, same workload) — the overhead a transaction pays for
//      durable commit forcing, page capture and background checkpoints.
//   2. Raw group-commit force rate: AppendCommit + Sync in a tight
//      loop, single-threaded — an upper bound on commit records/s the
//      log device (here: in-memory image) sustains.
//
//   ./bench/micro_wal            full run, one `name value unit` line
//                                per metric (ToText)
//   ./bench/micro_wal --smoke    quick CI run; exits 1 if a WAL run
//                                commits nothing or overhead blows past
//                                sanity bounds
//   ./bench/micro_wal --json     the same metrics as ToJson (committed
//                                as BENCH_wal.json)
//
// Both runs are CLUSTER1 under taDOM3+, isolation repeatable, lock
// depth 5, and report their whole CollectRunMetrics catalogue, prefixed
// wal_off. and wal_on.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "wal/wal.h"

using namespace xtc;
using namespace xtc::bench;

namespace {

RunStats RunOnce(WalMode mode, double duration_scale) {
  RunConfig config = Cluster1Config();
  config.protocol = "taDOM3+";
  config.isolation = IsolationLevel::kRepeatable;
  config.lock_depth = 5;
  config.wal = mode;
  config.time_scale *= duration_scale;
  return MustRun(config);
}

/// Appends every metric of `stats` under `prefix`.
void AddRun(MetricSet* out, const std::string& prefix, const RunStats& stats) {
  for (Metric m : CollectRunMetrics(stats)) {
    m.name = prefix + m.name;
    out->push_back(std::move(m));
  }
}

/// Commit records forced durable per second, single-threaded.
double RawCommitForceRate(int commits) {
  Wal wal(WalOptions{});
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < commits; ++i) {
    if (!wal.AppendCommit(1, static_cast<uint64_t>(i + 1), "bench").ok()) {
      std::fprintf(stderr, "FAIL: AppendCommit failed in raw loop\n");
      std::exit(1);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  return secs == 0 ? 0 : commits / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  const double scale = flags.smoke ? 0.35 : 1.0;
  const int raw_commits = flags.smoke ? 20000 : 200000;

  if (!flags.json) {
    PrintHeader("micro_wal", "commit overhead of WAL forcing + checkpoints");
  }

  const RunStats off = RunOnce(WalMode::kDisabled, scale);
  const RunStats on = RunOnce(WalMode::kEnabled, scale);
  const double raw_rate = RawCommitForceRate(raw_commits);

  const double slowdown = on.throughput_per_5min() == 0
                              ? 0
                              : off.throughput_per_5min() /
                                    on.throughput_per_5min();
  const double bytes_per_commit =
      on.wal.commits_logged == 0
          ? 0
          : static_cast<double>(on.wal.bytes_appended) /
                static_cast<double>(on.wal.commits_logged);

  MetricSet m;
  AddRun(&m, "wal_off.", off);
  AddRun(&m, "wal_on.", on);
  m.push_back({"slowdown", "ratio", slowdown});
  m.push_back({"log_bytes_per_commit", "B/commit", bytes_per_commit});
  m.push_back({"raw_commit_forces_per_s", "1/s", raw_rate});
  PrintMetrics(m, flags);

  if (flags.smoke) {
    int failures = 0;
    if (on.total_committed() == 0) {
      std::fprintf(stderr, "FAIL: WAL-enabled run committed nothing\n");
      ++failures;
    }
    if (on.wal.commits_logged < on.total_committed()) {
      std::fprintf(stderr,
                   "FAIL: fewer commit records (%llu) than committed tx "
                   "(%llu) — a commit returned before its force\n",
                   static_cast<unsigned long long>(on.wal.commits_logged),
                   static_cast<unsigned long long>(on.total_committed()));
      ++failures;
    }
    if (on.wal.flush_failures != 0) {
      std::fprintf(stderr, "FAIL: clean flush failures without faults\n");
      ++failures;
    }
    // The in-memory log should never make commits an order of magnitude
    // slower; a blow-up here means the force path serializes something
    // it should not (e.g. holding the document lock across the sync).
    if (off.total_committed() > 50 && slowdown > 10.0) {
      std::fprintf(stderr, "FAIL: WAL slowdown %.1fx exceeds sanity bound\n",
                   slowdown);
      ++failures;
    }
    if (failures > 0) return 1;
  }
  return 0;
}
