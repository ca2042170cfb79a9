// tamix_client: out-of-process TaMix driver for the socket front-end.
//
// Connects to a running tamix_server (or any embedded net::Server),
// fetches the workload catalog over the wire (kWorkloadInfo), spawns the
// paper's CLUSTER1 client mix — each worker on its own connection, each
// transaction begun/committed on the server — and reports committed /
// aborted counts and latency percentiles per transaction type
// (CollectRunMetrics' tx.* and run.* metrics). This is
// the paper's actual topology: TaMix clients were separate machines
// driving the XTC server remotely.
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

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "tamix/metrics.h"

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

struct WorkerConfig {
  std::string host;
  uint16_t port = 0;
  IsolationLevel isolation = IsolationLevel::kRepeatable;
  int lock_depth = 7;
  uint64_t seed = 7;
  double time_scale = 1.0;
  int max_retries = 4;
};

Duration Scaled(const WorkerConfig& c, Duration paper) {
  return std::chrono::duration_cast<Duration>(paper * c.time_scale);
}

/// One remote TaMix worker: the coordinator's client loop, standalone.
void WorkerLoop(const WorkerConfig& config, const BibInfo* info, TxType type,
                uint64_t worker_index, const std::atomic<bool>* stop,
                MetricsCollector* metrics) {
  Rng rng(config.seed * 1000003 + worker_index);
  net::Client client;
  net::RemoteDom dom(&client);
  TaMixBodyRunner bodies(info, Scaled(config, Millis(100)));
  const auto ensure_connected = [&]() {
    while (!client.connected() && !stop->load(std::memory_order_relaxed)) {
      if (client.Connect(config.host, config.port).ok()) return true;
      SleepFor(Millis(20));
    }
    return client.connected();
  };

  // Paper stagger: 0..5000 ms before the first operation.
  const Duration stagger = Scaled(config, Millis(5000));
  SleepFor(Duration(static_cast<Duration::rep>(
      rng.NextDouble() * static_cast<double>(stagger.count()))));
  const Duration backoff_cap = Scaled(config, Millis(2000));
  while (!stop->load(std::memory_order_relaxed)) {
    const uint64_t body_seed = rng.Next();
    for (int attempt = 0;; ++attempt) {
      if (!ensure_connected()) return;
      auto begin = client.Begin(config.isolation, config.lock_depth, type);
      if (!begin.ok()) {
        if (begin.status().code() == StatusCode::kResourceExhausted) {
          if (stop->load(std::memory_order_relaxed)) break;
          SleepFor(Scaled(config, Millis(100)));
          --attempt;
          continue;
        }
        if (stop->load(std::memory_order_relaxed)) break;
        continue;
      }
      const TimePoint start = Now();
      Rng body_rng(body_seed);
      Status st = bodies.RunBody(type, dom, body_rng);
      if (st.ok()) {
        auto commit = client.Commit();
        if (commit.ok()) {
          if (!stop->load(std::memory_order_relaxed)) {
            metrics->RecordCommit(type, ToMicros(Now() - start));
          }
        } else {
          metrics->RecordAbort(type, commit.status());
        }
        break;
      }
      (void)client.Abort();
      if (!st.IsCancelled()) metrics->RecordAbort(type, st);
      if (!st.IsRetryable() || attempt >= config.max_retries ||
          stop->load(std::memory_order_relaxed)) {
        break;
      }
      metrics->RecordRetry(type);
      Duration backoff = Scaled(config, Millis(100));
      for (int i = 0; i < attempt && backoff < backoff_cap; ++i) backoff *= 2;
      backoff = std::min(backoff, backoff_cap);
      SleepFor(Duration(static_cast<Duration::rep>(
          static_cast<double>(backoff.count()) *
          (0.5 + 0.5 * rng.NextDouble()))));
    }
    SleepFor(Scaled(config, Millis(2500)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  WorkerConfig config;
  config.port = static_cast<uint16_t>(ArgInt(argc, argv, "--port", 0));
  if (config.port == 0) {
    std::fprintf(stderr, "usage: tamix_client --port N [options]\n");
    return 2;
  }
  config.host = ArgStr(argc, argv, "--host", "127.0.0.1");
  config.lock_depth = static_cast<int>(ArgInt(argc, argv, "--lock-depth", 7));
  config.seed = static_cast<uint64_t>(ArgInt(argc, argv, "--seed", 7));
  if (!ParseIsolation(ArgStr(argc, argv, "--isolation", "repeatable"),
                      &config.isolation)) {
    std::fprintf(stderr, "unknown isolation level\n");
    return 2;
  }
  const int64_t seconds = ArgInt(argc, argv, "--seconds", 2);
  config.time_scale = static_cast<double>(seconds) / 300.0;
  const int clients = static_cast<int>(ArgInt(argc, argv, "--clients", 3));
  const bool json = HasFlag(argc, argv, "--json");

  // Fetch the workload catalog over the wire: the client needs the
  // book/topic ids to draw work from, and has no local document at all.
  BibInfo info;
  {
    net::Client probe;
    Status st = probe.Connect(config.host, config.port);
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
  std::vector<std::thread> workers;
  uint64_t worker_index = 0;
  auto spawn = [&](TxType type, int count) {
    for (int i = 0; i < count; ++i) {
      workers.emplace_back(WorkerLoop, std::cref(config), &info, type,
                           worker_index++, &stop, &metrics);
    }
  };
  // CLUSTER1 mix (paper §4.3): 9/5/2/8 per client.
  for (int c = 0; c < clients; ++c) {
    spawn(TxType::kQueryBook, 9);
    spawn(TxType::kChapter, 5);
    spawn(TxType::kRenameTopic, 2);
    spawn(TxType::kLendAndReturn, 8);
  }

  metrics.MarkRunStart();
  const TimePoint start = Now();
  SleepFor(std::chrono::seconds(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  RunStats stats = metrics.Snapshot();
  stats.run_duration_ms = ToMillis(Now() - start);

  const MetricSet report = CollectRunMetrics(stats);
  if (json) {
    std::fputs(ToJson(report).c_str(), stdout);
  } else {
    std::printf("# remote TaMix: %d clients x 24 workers, %llds over "
                "%s:%u\n",
                clients, static_cast<long long>(seconds), config.host.c_str(),
                config.port);
    std::fputs(ToText(report).c_str(), stdout);
  }
  return stats.total_committed() > 0 ? 0 : 1;
}
