// Microbenchmark: socket front-end saturation sweep.
//
// Embeds the engine + net::Server in-process, then drives it over
// loopback with closed-loop remote TaMix workers (zero think time) at
// increasing connection counts. Reports committed throughput and
// client-observed commit-latency percentiles (p50/p95/p99) per level —
// the knee of the throughput curve against the p99 curve is the
// saturation point, and the admission-rejection column shows where the
// in-flight-transaction cap starts doing its job.
//
//   ./bench/micro_server            full sweep, human-readable table
//   ./bench/micro_server --smoke    quick CI run; exits non-zero on
//                                   leaked transactions, protocol errors,
//                                   a level that commits nothing, or a
//                                   64-connection level the in-flight
//                                   cap did not shed
//   ./bench/micro_server --json     machine-readable results
//                                   (committed as BENCH_server.json)

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/metrics.h"
#include "tx/transaction_manager.h"

using namespace xtc;

namespace {

/// Paper CLUSTER1 mix proportions (9:5:2:8), drawn per transaction from
/// the worker's seeded Rng so every connection count runs the same blend.
TxType DrawMixType(Rng& rng) {
  const uint64_t slot = rng.Uniform(24);
  if (slot < 9) return TxType::kQueryBook;
  if (slot < 14) return TxType::kChapter;
  if (slot < 16) return TxType::kRenameTopic;
  return TxType::kLendAndReturn;
}

/// The sweep's admission cap: the top level pushes past it and must
/// see Begins shed rather than queued.
constexpr size_t kMaxInFlightTx = 48;

struct LevelResult {
  int connections = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t admission_rejected = 0;
  double throughput_per_sec = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

struct WorkerResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  LatencyHistogram latency;
};

void ClosedLoopWorker(uint16_t port, const BibInfo* info, int index,
                      uint64_t seed, const std::atomic<bool>* stop,
                      WorkerResult* out) {
  Rng rng(seed * 1000003 + static_cast<uint64_t>(index));
  net::Client client;
  net::RemoteDom dom(&client);
  TaMixBodyRunner bodies(info, Duration::zero());
  while (!stop->load(std::memory_order_relaxed)) {
    if (!client.connected() &&
        !client.Connect("127.0.0.1", port).ok()) {
      SleepFor(Millis(10));
      continue;
    }
    const TxType type = DrawMixType(rng);
    auto begin = client.Begin(IsolationLevel::kRepeatable, 7, type);
    if (!begin.ok()) {
      SleepFor(Millis(2));  // admission pushback or transport hiccup
      continue;
    }
    const TimePoint start = Now();
    Rng body_rng(rng.Next());
    Status st = bodies.RunBody(type, dom, body_rng);
    if (st.ok() && client.Commit().ok()) {
      out->committed++;
      out->latency.Record(ToMicros(Now() - start));
    } else {
      (void)client.Abort();
      out->aborted++;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const double level_seconds = smoke ? 0.4 : 1.5;
  const std::vector<int> levels =
      smoke ? std::vector<int>{1, 4, 16, 64}
            : std::vector<int>{1, 2, 4, 8, 16, 32, 64};

  Document doc;
  auto info = GenerateBib(&doc, BibConfig::Bench());
  if (!info.ok()) {
    std::fprintf(stderr, "bib generation failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  LockTableOptions lock_options;
  lock_options.wait_timeout = Millis(2000);
  std::unique_ptr<XmlProtocol> protocol =
      CreateProtocol("taDOM3+", lock_options);
  LockManager lock_manager(protocol.get());
  TransactionManager tx_manager(&lock_manager);
  NodeManager node_manager(&doc, &lock_manager);

  net::ServerOptions options;
  options.num_workers = 32;
  options.max_sessions = 128;
  // The admission cap is part of what the sweep shows: the top levels
  // push past it and the rejected column grows instead of the p99.
  options.max_in_flight_tx = kMaxInFlightTx;
  net::Server server(
      net::Server::Deps{&node_manager, &tx_manager, &protocol->table(),
                        &*info, nullptr},
      options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!json) {
    std::printf("# micro_server\n");
    std::printf("# socket front-end saturation: closed-loop remote TaMix "
                "workers over loopback, %.1fs per level\n", level_seconds);
    std::printf("%12s %10s %10s %10s %12s %9s %9s %9s\n", "connections",
                "committed", "aborted", "rejected", "commit/s", "p50 ms",
                "p95 ms", "p99 ms");
  }

  std::vector<LevelResult> results;
  uint64_t rejected_before =
      server.stats().admission_rejected;
  for (int n : levels) {
    std::atomic<bool> stop{false};
    std::vector<WorkerResult> worker_results(static_cast<size_t>(n));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers.emplace_back(ClosedLoopWorker, server.port(), &*info, i,
                           static_cast<uint64_t>(7 + n), &stop,
                           &worker_results[static_cast<size_t>(i)]);
    }
    const TimePoint start = Now();
    SleepFor(Millis(static_cast<int64_t>(level_seconds * 1000.0)));
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers) w.join();
    const double elapsed_s =
        static_cast<double>(ToMicros(Now() - start)) / 1e6;

    LevelResult level;
    level.connections = n;
    LatencyHistogram merged;
    for (const WorkerResult& w : worker_results) {
      level.committed += w.committed;
      level.aborted += w.aborted;
      merged.Merge(w.latency);
    }
    const uint64_t rejected_now = server.stats().admission_rejected;
    level.admission_rejected = rejected_now - rejected_before;
    rejected_before = rejected_now;
    level.throughput_per_sec =
        elapsed_s == 0 ? 0 : static_cast<double>(level.committed) / elapsed_s;
    level.p50_ms = static_cast<double>(merged.PercentileUs(0.50)) / 1000.0;
    level.p95_ms = static_cast<double>(merged.PercentileUs(0.95)) / 1000.0;
    level.p99_ms = static_cast<double>(merged.PercentileUs(0.99)) / 1000.0;
    results.push_back(level);

    if (!json) {
      std::printf("%12d %10llu %10llu %10llu %12.0f %9.2f %9.2f %9.2f\n", n,
                  static_cast<unsigned long long>(level.committed),
                  static_cast<unsigned long long>(level.aborted),
                  static_cast<unsigned long long>(level.admission_rejected),
                  level.throughput_per_sec, level.p50_ms, level.p95_ms,
                  level.p99_ms);
    }
  }

  server.Stop();
  const net::ServerStats stats = server.stats();

  if (json) {
    std::printf("{\n  \"benchmark\": \"micro_server saturation sweep\",\n");
    std::printf("  \"protocol\": \"taDOM3+\",\n");
    std::printf("  \"isolation\": \"repeatable\",\n");
    std::printf("  \"seconds_per_level\": %.1f,\n", level_seconds);
    std::printf("  \"max_in_flight_tx\": %zu,\n", kMaxInFlightTx);
    std::printf("  \"levels\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const LevelResult& r = results[i];
      std::printf("    {\"connections\": %d, \"committed\": %llu, "
                  "\"aborted\": %llu, \"admission_rejected\": %llu, "
                  "\"commit_per_sec\": %.0f, \"p50_ms\": %.2f, "
                  "\"p95_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
                  r.connections,
                  static_cast<unsigned long long>(r.committed),
                  static_cast<unsigned long long>(r.aborted),
                  static_cast<unsigned long long>(r.admission_rejected),
                  r.throughput_per_sec, r.p50_ms, r.p95_ms, r.p99_ms,
                  i + 1 < results.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"protocol_errors\": %llu,\n",
                static_cast<unsigned long long>(stats.protocol_errors));
    std::printf("  \"sessions_opened\": %llu\n}\n",
                static_cast<unsigned long long>(stats.sessions_opened));
  }

  if (smoke) {
    int failures = 0;
    for (const LevelResult& r : results) {
      if (r.committed == 0) {
        std::fprintf(stderr, "FAIL: %d-connection level committed nothing\n",
                     r.connections);
        ++failures;
      }
    }
    // Load shedding: 64 connections against the 48-transaction cap must
    // get kBegin answered kResourceExhausted, not queued.
    for (const LevelResult& r : results) {
      if (r.connections > static_cast<int>(kMaxInFlightTx) &&
          r.admission_rejected == 0) {
        std::fprintf(stderr,
                     "FAIL: %d-connection level shed no load past the "
                     "%zu-transaction cap\n",
                     r.connections, kMaxInFlightTx);
        ++failures;
      }
    }
    if (stats.protocol_errors != 0) {
      std::fprintf(stderr, "FAIL: %llu protocol errors on clean clients\n",
                   static_cast<unsigned long long>(stats.protocol_errors));
      ++failures;
    }
    if (tx_manager.num_active() != 0) {
      std::fprintf(stderr, "FAIL: %zu transactions leaked\n",
                   tx_manager.num_active());
      ++failures;
    }
    if (failures != 0) return 1;
    std::printf("micro_server smoke: OK\n");
  }
  return 0;
}
