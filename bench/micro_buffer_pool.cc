// Microbenchmark: buffer-pool miss throughput vs. thread count with a
// pool much smaller than the working set and non-zero simulated I/O
// latency — the configuration where the old single-global-mutex pool
// serialized every page read and throughput stayed flat regardless of
// thread count. With the frame-state machine the per-page latencies
// overlap, so miss throughput scales near-linearly until the device
// model (io_latency_us per access) saturates.
//
//   ./bench/micro_buffer_pool           full run (1/2/4/8 threads), one
//                                       `name value unit` line per metric
//   ./bench/micro_buffer_pool --smoke   quick CI run; exits 1 if 8-thread
//                                       scaling < 2x or no I/O overlap
//                                       was observed
//   ./bench/micro_buffer_pool --json    the same metrics as ToJson
//
// Every mode exits 1 if a fetch fails.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "storage/buffer_manager.h"

namespace xtc {
namespace {

struct PoolRun {
  double fetches_per_sec = 0.0;
  uint64_t misses = 0;
  BufferPoolStats io;
  int failures = 0;
};

PoolRun RunThreads(int threads, int ops_per_thread, uint32_t pool_pages,
                   uint32_t working_set, uint32_t io_latency_us) {
  StorageOptions options;
  options.buffer_pool_pages = pool_pages;
  options.io_latency_us = io_latency_us;
  PageFile file(options);
  for (uint32_t i = 0; i < working_set; ++i) file.Allocate();
  BufferManager bm(&file, options);

  std::atomic<int> failures{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&bm, &failures, working_set, ops_per_thread, t] {
      // Per-thread LCG: spreads accesses over the working set so nearly
      // every fetch misses (working set >> pool).
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < ops_per_thread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        PageId id = static_cast<PageId>((state >> 33) % working_set) + 1;
        auto g = bm.Fetch(id);
        if (!g.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if ((state & 3) == 0) {
          // A quarter of the fetches dirty their page so the replacement
          // scan issues (overlapped) eviction write-backs as well.
          g->page()->data()[0] = static_cast<uint8_t>(state);
          g->MarkDirty();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  PoolRun run;
  run.fetches_per_sec =
      secs > 0 ? static_cast<double>(threads) * ops_per_thread / secs : 0.0;
  run.misses = bm.misses();
  run.io = bm.io_stats();
  run.failures = failures.load();
  return run;
}

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  using namespace xtc;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const int ops = flags.smoke ? 300 : 2000;
  const uint32_t kPool = 64;
  const uint32_t kWorkingSet = 512;
  const uint32_t kLatencyUs = 100;

  if (!flags.json) {
    std::printf("# micro_buffer_pool — miss throughput vs. threads%s\n",
                flags.smoke ? " (smoke)" : "");
  }
  MetricSet m;
  m.push_back({"pool_pages", "count", kPool});
  m.push_back({"working_set_pages", "count", kWorkingSet});
  m.push_back({"io_latency_us", "us", kLatencyUs});
  m.push_back({"ops_per_thread", "count", static_cast<double>(ops)});
  double baseline = 0.0;
  double last_scaling = 0.0;
  uint64_t last_hwm = 0;
  int failures = 0;
  for (int threads : {1, 2, 4, 8}) {
    const PoolRun run =
        RunThreads(threads, ops, kPool, kWorkingSet, kLatencyUs);
    if (threads == 1) baseline = run.fetches_per_sec;
    last_scaling = baseline > 0 ? run.fetches_per_sec / baseline : 0.0;
    last_hwm = run.io.io_in_flight_hwm;
    failures += run.failures;
    const std::string prefix = "threads" + std::to_string(threads) + ".";
    m.push_back({prefix + "fetches_per_s", "1/s", run.fetches_per_sec});
    m.push_back({prefix + "misses", "count",
                 static_cast<double>(run.misses)});
    m.push_back({prefix + "scaling", "ratio", last_scaling});
    m.push_back({prefix + "io_in_flight_hwm", "count",
                 static_cast<double>(last_hwm)});
    m.push_back({prefix + "coalesced_fetches", "count",
                 static_cast<double>(run.io.coalesced_fetches)});
    m.push_back({prefix + "eviction_writebacks", "count",
                 static_cast<double>(run.io.eviction_writebacks)});
  }
  m.push_back({"failed_fetches", "count", static_cast<double>(failures)});
  bench::PrintMetrics(m, flags);

  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d fetches returned errors\n", failures);
    return 1;
  }
  if (flags.smoke && (last_scaling < 2.0 || last_hwm < 2)) {
    std::fprintf(stderr,
                 "FAIL: no I/O overlap (8-thread scaling %.2fx, in-flight "
                 "hwm %llu) — the pool is serializing simulated disk I/O\n",
                 last_scaling, static_cast<unsigned long long>(last_hwm));
    return 1;
  }
  return 0;
}
