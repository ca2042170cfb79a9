// Microbenchmark: the ancestor-path re-lock workload — the lock-layer
// hot path every DOM operation pays. Each worker repeatedly NodeReads a
// small set of leaves under one deep shared path, so after the first
// pass every request asks for an intention/read mode the transaction
// already holds, and LockTable answers it from the transaction's own
// lock set without touching the resource shards all workers contend on.
//
// A population of parked reader transactions holds intention locks on
// the whole path for the duration of the run, the way every concurrent
// client in the paper's CLUSTER workloads keeps IR/NR on the document's
// upper levels. A request that does reach a resource shard pays what it
// pays in a loaded server — latch, map probe, and a holder-list scan
// past every parked client.
//
//   ./bench/micro_lock_table           full run (depth sweep), one
//                                      `name value unit` line per metric
//   ./bench/micro_lock_table --smoke   quick CI run; exits 1 if, at lock
//                                      depth >= 8, 1 % or more of the
//                                      timed requests reach a resource
//                                      shard
//   ./bench/micro_lock_table --json    the same metrics as ToJson
//                                      (committed as BENCH_lock_cache.json)
//
// Every mode exits 1 if a lock request fails. Each depth reports its
// timed lock.requests and lock.cache_hits; the share that reached a
// shard is 1 - cache_hits / requests, a few in ten thousand, so it is
// kept as the two exact counts rather than a rounded ratio.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "lock/lock_manager.h"
#include "protocols/protocol_registry.h"

namespace xtc {
namespace {

constexpr int kLeaves = 16;
constexpr int kThreads = 8;
/// Parked reader transactions modelling the paper's concurrent client
/// population: each holds IR on every ancestor and NR on one leaf until
/// the run ends, so every shard round trip scans past all of them.
constexpr int kHolderTxs = 384;

struct PathRun {
  double ops_per_sec = 0.0;
  /// Timed phase only: the holders' set-up requests are reset away.
  LockTableStats stats;
  int failures = 0;
};

PathRun RunPathWorkload(int depth, int ops_per_thread) {
  auto protocol = CreateProtocol("taDOM3+");
  LockManager lm(protocol.get());

  // One shared chain 1.3.3...3 down to level depth-1; the leaves are
  // siblings at level `depth`. Every NodeRead intention-locks the whole
  // chain, so all workers re-traverse the same ancestor resources.
  std::vector<uint32_t> divisions{1};
  while (static_cast<int>(divisions.size()) < depth - 1) {
    divisions.push_back(3);
  }
  const Splid parent = *Splid::FromDivisions(divisions);
  std::vector<Splid> leaves;
  leaves.reserve(kLeaves);
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(parent.Child(static_cast<uint32_t>(2 * i + 3)));
  }

  // Park the holder population before the clock starts. The holders go
  // through the normal manager path (they are ordinary readers), then
  // simply never release until the timed section is over.
  std::vector<TxLockView> holders;
  holders.reserve(kHolderTxs);
  for (int h = 0; h < kHolderTxs; ++h) {
    holders.push_back(TxLockView{static_cast<uint64_t>(h) + 1000,
                                 IsolationLevel::kRepeatable, kMaxLockDepth});
    Status st =
        lm.NodeRead(holders.back(), leaves[static_cast<size_t>(h) % kLeaves]);
    if (!st.ok()) {
      std::fprintf(stderr, "holder setup lock failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  protocol->table().ResetStats();

  std::vector<int> failures(kThreads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&lm, &leaves, &failures, ops_per_thread, t] {
      TxLockView view{static_cast<uint64_t>(t) + 1,
                      IsolationLevel::kRepeatable, kMaxLockDepth};
      for (int i = 0; i < ops_per_thread; ++i) {
        Status st = lm.NodeRead(view, leaves[static_cast<size_t>(i) % kLeaves]);
        if (!st.ok()) ++failures[static_cast<size_t>(t)];
      }
      lm.ReleaseAll(view);
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PathRun run;
  run.stats = protocol->table().GetStats();
  for (auto& h : holders) lm.ReleaseAll(h);

  run.ops_per_sec =
      secs > 0 ? static_cast<double>(kThreads) * ops_per_thread / secs : 0.0;
  for (int f : failures) run.failures += f;
  return run;
}

/// Share of the timed requests that reached a resource shard.
double ShardShare(const LockTableStats& s) {
  return s.requests == 0 ? 0.0
                         : static_cast<double>(s.requests - s.cache_hits) /
                               static_cast<double>(s.requests);
}

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  using namespace xtc;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const int ops = flags.smoke ? 4000 : 20000;

  if (!flags.json) {
    std::printf("# micro_lock_table — ancestor-path re-lock workload, "
                "taDOM3+%s\n", flags.smoke ? " (smoke)" : "");
  }
  MetricSet m;
  m.push_back({"threads", "count", kThreads});
  m.push_back({"leaves", "count", kLeaves});
  m.push_back({"holder_txs", "count", kHolderTxs});
  m.push_back({"ops_per_thread", "count", static_cast<double>(ops)});
  int failures = 0;
  double deep_shard_share = 0;  // the largest share at depth >= 8
  for (int depth : {2, 4, 8, 12}) {
    const PathRun run = RunPathWorkload(depth, ops);
    failures += run.failures;
    const std::string prefix = "depth" + std::to_string(depth) + ".";
    m.push_back({prefix + "ops_per_s", "1/s", run.ops_per_sec});
    m.push_back({prefix + "lock.requests", "count",
                 static_cast<double>(run.stats.requests)});
    m.push_back({prefix + "lock.cache_hits", "count",
                 static_cast<double>(run.stats.cache_hits)});
    if (depth >= 8) {
      deep_shard_share = std::max(deep_shard_share, ShardShare(run.stats));
    }
  }
  m.push_back({"failed_requests", "count", static_cast<double>(failures)});
  bench::PrintMetrics(m, flags);

  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d lock requests returned errors\n",
                 failures);
    return 1;
  }
  if (flags.smoke && deep_shard_share >= 0.01) {
    std::fprintf(stderr,
                 "FAIL: %.2f%% of requests reached a resource shard at "
                 "lock depth >= 8 (>= 1%%) — the lock set is not taking "
                 "the path re-locks off the shards\n",
                 100.0 * deep_shard_share);
    return 1;
  }
  return 0;
}
