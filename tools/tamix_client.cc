// tamix_client: out-of-process TaMix driver for the socket front-end.
//
// Connects to a running tamix_server (or any embedded net::Server),
// fetches the workload catalog over the wire (kWorkloadInfo), and runs
// the paper's CLUSTER1 client mix through the coordinator's worker loop
// (SpawnTaMixWorkers / RunTaMixWorker) — the same loop as an in-process
// run, each worker on a RemoteSession with its own connection, each
// transaction begun/committed on the server. Reports committed /
// aborted counts and latency percentiles per transaction type
// (CollectRunMetrics' tx.* and run.* metrics). This is the paper's
// actual topology: TaMix clients were separate machines driving the XTC
// server remotely. Paper timings and the mix are RunConfig's defaults.
//
// Usage:
//   tamix_client --port N [--host H] [--seconds S] [--clients N]
//                [--isolation L] [--lock-depth D] [--seed S] [--json]
//
// --port N        server port (required)
// --host H        server IPv4 address (default 127.0.0.1)
// --seconds S     timed run length; paper timings scale as S/300
//                 (default 2)
// --clients N     CLUSTER1 client count; each client runs the paper mix
//                 of 24 workers (default 3 = 72 concurrent tx)
// --isolation L   none|uncommitted|committed|repeatable|serializable
//                 (default repeatable)
// --lock-depth D  lock depth (default 7)
// --seed S        workload seed (default 7)
// --json          the same metrics as one JSON object (ToJson)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "tamix/coordinator.h"

using namespace xtc;

namespace {

int64_t ArgInt(int argc, char** argv, const char* flag, int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

const char* ArgStr(int argc, char** argv, const char* flag,
                   const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

bool ParseIsolation(const char* name, IsolationLevel* out) {
  const std::string_view s(name);
  if (s == "none") *out = IsolationLevel::kNone;
  else if (s == "uncommitted") *out = IsolationLevel::kUncommitted;
  else if (s == "committed") *out = IsolationLevel::kCommitted;
  else if (s == "repeatable") *out = IsolationLevel::kRepeatable;
  else if (s == "serializable") *out = IsolationLevel::kSerializable;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto port = static_cast<uint16_t>(ArgInt(argc, argv, "--port", 0));
  if (port == 0) {
    std::fprintf(stderr, "usage: tamix_client --port N [options]\n");
    return 2;
  }
  const std::string host = ArgStr(argc, argv, "--host", "127.0.0.1");
  RunConfig config;
  config.lock_depth = static_cast<int>(ArgInt(argc, argv, "--lock-depth", 7));
  config.seed = static_cast<uint64_t>(ArgInt(argc, argv, "--seed", 7));
  if (!ParseIsolation(ArgStr(argc, argv, "--isolation", "repeatable"),
                      &config.isolation)) {
    std::fprintf(stderr, "unknown isolation level\n");
    return 2;
  }
  const int64_t seconds = ArgInt(argc, argv, "--seconds", 2);
  // The paper run is 5 minutes: --seconds S scales every timing by S/300.
  config.time_scale = static_cast<double>(seconds) / 300.0;
  config.mix.clients = static_cast<int>(ArgInt(argc, argv, "--clients", 3));
  const bool json = HasFlag(argc, argv, "--json");

  // Fetch the workload catalog over the wire: the client needs the
  // book/topic ids to draw work from, and has no local document at all.
  BibInfo info;
  {
    net::Client probe;
    Status st = probe.Connect(host, port);
    if (st.ok()) {
      auto fetched = probe.WorkloadInfo();
      if (!fetched.ok()) st = fetched.status();
      else info = std::move(*fetched);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "cannot reach server: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (info.book_ids.empty() || info.topic_ids.empty()) {
    std::fprintf(stderr, "server workload catalog is empty\n");
    return 1;
  }

  MetricsCollector metrics;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers = SpawnTaMixWorkers(
      WorkerShared{&config, &info, &stop, &metrics}, [&](uint64_t) {
        return std::make_unique<net::RemoteSession>(
            host, port, net::ClientOptions(), &stop);
      });
  metrics.MarkRunStart();
  const TimePoint start = Now();
  SleepFor(config.Scaled(config.run_duration));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  RunStats stats = metrics.Snapshot();
  stats.run_duration_ms = ToMillis(Now() - start);

  const MetricSet report = CollectRunMetrics(stats);
  if (json) {
    std::fputs(ToJson(report).c_str(), stdout);
  } else {
    std::printf("# remote TaMix: %d clients x %d workers, %llds over "
                "%s:%u\n",
                config.mix.clients, config.mix.WorkersPerClient(),
                static_cast<long long>(seconds), host.c_str(), port);
    std::fputs(ToText(report).c_str(), stdout);
  }
  return stats.total_committed() > 0 ? 0 : 1;
}
