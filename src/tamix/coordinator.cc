#include "tamix/coordinator.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/server.h"
#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/invariants.h"
#include "tx/transaction_manager.h"
#include "util/crash_switch.h"

namespace xtc {

FaultPlan FaultPlan::AllPoints(double probability) {
  FaultPlan plan;
  for (std::string_view point : AllFaultPoints()) {
    FaultPointConfig config;
    config.probability = probability;
    plan.points.emplace_back(std::string(point), config);
  }
  return plan;
}

namespace {

bool ResolveWalEnabled(WalMode mode) {
  switch (mode) {
    case WalMode::kEnabled:
      return true;
    case WalMode::kDisabled:
      return false;
    case WalMode::kAuto:
      break;
  }
  const char* env = std::getenv("XTC_WAL");
  return env != nullptr && std::string_view(env) != "0";
}

bool ResolveSocketEnabled(Frontend mode) {
  switch (mode) {
    case Frontend::kSocket:
      return true;
    case Frontend::kInProcess:
      return false;
    case Frontend::kAuto:
      break;
  }
  const char* env = std::getenv("XTC_NET");
  return env != nullptr && std::string_view(env) != "0";
}

/// Everything one run needs, wired together. The wal (and crash switch)
/// must outlive the document: eviction write-backs consult the wal's
/// durable watermark until the last page is flushed.
struct Testbed {
  std::unique_ptr<FaultInjector> faults;  // null unless chaos mode
  std::unique_ptr<CrashSwitch> crash;     // null unless crash_enabled
  std::unique_ptr<Wal> wal;               // null unless WAL enabled
  std::unique_ptr<Document> doc;
  BibInfo info;
  std::unique_ptr<XmlProtocol> protocol;
  std::unique_ptr<LockManager> lock_manager;
  std::unique_ptr<TransactionManager> tx_manager;
  std::unique_ptr<NodeManager> node_manager;

  bool crashed() const { return crash != nullptr && crash->crashed(); }
};

StatusOr<std::unique_ptr<Testbed>> BuildTestbed(const RunConfig& config) {
  auto bed = std::make_unique<Testbed>();
  StorageOptions storage = config.storage;
  if (config.faults.enabled()) {
    const uint64_t seed =
        config.faults.seed != 0 ? config.faults.seed : config.seed;
    bed->faults = std::make_unique<FaultInjector>(seed);
    storage.fault_injector = bed->faults.get();
  }
  if (config.crash_enabled) {
    bed->crash = std::make_unique<CrashSwitch>(config.seed);
    storage.crash_switch = bed->crash.get();
  }
  bed->doc = std::make_unique<Document>(storage);
  auto info = GenerateBib(bed->doc.get(), config.bib);
  if (!info.ok()) return info.status();
  bed->info = std::move(*info);
  if (ResolveWalEnabled(config.wal)) {
    // The bib document is generated without a WAL; attach one, flush the
    // generated pages and take the base checkpoint before any fault is
    // armed, so recovery always has a durable starting point.
    WalOptions wal_options;
    wal_options.fault_injector = bed->faults.get();
    wal_options.crash_switch = bed->crash.get();
    bed->wal = std::make_unique<Wal>(wal_options);
    bed->doc->AttachWal(bed->wal.get());
    XTC_RETURN_IF_ERROR(bed->doc->buffer().FlushAll());
    XTC_RETURN_IF_ERROR(bed->doc->LogCheckpoint());
  }
  if (config.replication != nullptr) {
    if (bed->wal == nullptr) {
      return Status::InvalidArgument(
          "replication requires the WAL (WalMode::kEnabled or XTC_WAL=1)");
    }
    // Seed the follower from the post-setup checkpoint, before any fault
    // point is armed: bootstrap must always succeed.
    PrimaryHandles handles;
    handles.wal = bed->wal.get();
    handles.faults = bed->faults.get();
    handles.crash = bed->crash.get();
    handles.base_disk = bed->doc->page_file().CloneImage();
    handles.base_log = bed->wal->DurableImage();
    handles.storage = storage;
    XTC_RETURN_IF_ERROR(config.replication->OnPrimaryReady(handles));
  }
  LockTableOptions lock_options;
  lock_options.wait_timeout = config.Scaled(config.lock_wait_timeout);
  lock_options.fault_injector = bed->faults.get();
  bed->protocol = config.protocol_factory
                      ? config.protocol_factory(lock_options)
                      : CreateProtocol(config.protocol, lock_options);
  if (bed->protocol == nullptr) {
    return Status::InvalidArgument("unknown protocol: " + config.protocol);
  }
  bed->lock_manager = std::make_unique<LockManager>(bed->protocol.get());
  bed->tx_manager = std::make_unique<TransactionManager>(
      bed->lock_manager.get(), bed->faults.get(), bed->wal.get());
  bed->node_manager = std::make_unique<NodeManager>(
      bed->doc.get(), bed->lock_manager.get(), bed->faults.get());
  // Arm the fault points only now: document generation and the rest of
  // the setup must always succeed.
  if (bed->faults != nullptr) {
    for (const auto& [point, point_config] : config.faults.points) {
      bed->faults->Arm(point, point_config);
    }
  }
  return bed;
}

/// Thread-safe record of every committed transaction (chaos mode).
struct CommitLog {
  std::mutex mu;
  std::vector<CommittedTx> entries;

  void Record(const CommittedTx& c) {
    std::lock_guard<std::mutex> guard(mu);
    entries.push_back(c);
  }
};

void WorkerLoop(const RunConfig& config, Testbed* bed, TaMixRunner* runner,
                MetricsCollector* metrics, TxType type, uint64_t worker_index,
                const std::atomic<bool>* stop, CommitLog* commit_log) {
  Rng rng(config.seed * 1000003 + worker_index);
  // Random stagger before the first operation (paper: 0..5000 ms).
  const Duration stagger = config.Scaled(config.max_initial_wait);
  if (stagger > Duration::zero()) {
    SleepFor(Duration(static_cast<Duration::rep>(
        rng.NextDouble() * static_cast<double>(stagger.count()))));
  }
  const Duration backoff_cap = config.Scaled(config.retry_backoff_max);
  while (!stop->load(std::memory_order_relaxed)) {
    // One work item; its body RNG is reseeded from `body_seed` on every
    // attempt, so a retry re-runs the same logical work and the commit
    // log entry suffices to replay it.
    const uint64_t body_seed = rng.Next();
    for (int attempt = 0;; ++attempt) {
      auto tx = bed->tx_manager->Begin(config.isolation, config.lock_depth);
      const TimePoint start = Now();
      Rng body_rng(body_seed);
      Status st = runner->RunBody(type, *tx, body_rng);
      if (st.ok()) {
        Status commit = bed->tx_manager->Commit(
            *tx, bed->wal != nullptr ? EncodeCommitPayload(type, body_seed)
                                     : std::string());
        if (commit.ok()) {
          // The commit log must see every commit — including those after
          // the stop flag, which the throughput metrics ignore.
          if (commit_log != nullptr) {
            commit_log->Record({tx->commit_seq(), type, body_seed});
          }
          if (!stop->load(std::memory_order_relaxed)) {
            metrics->RecordCommit(type, ToMicros(Now() - start));
          }
        } else {
          // The commit-record force failed: the instance just suffered a
          // (simulated) hard kill. The transaction counts as aborted —
          // restart recovery will undo it — and there is no point
          // retrying against a frozen store.
          metrics->RecordAbort(type, commit);
        }
        break;
      }
      Status abort = bed->tx_manager->Abort(*tx);
      if (!abort.ok()) metrics->RecordUndoFailure(type);
      // kCancelled is a shutdown artifact (stop woke this worker out of a
      // lock wait), not a workload outcome: recording it would inflate the
      // abort counts by exactly the number of waiters parked at stop time.
      if (!st.IsCancelled()) metrics->RecordAbort(type, st);
      if (!st.IsRetryable() || attempt >= config.max_retries ||
          stop->load(std::memory_order_relaxed)) {
        break;  // give up on this item; draw fresh work
      }
      metrics->RecordRetry(type);
      // Exponential backoff with jitter: contention (and injected fault
      // storms) needs the colliding workers to spread out, not to retry
      // in lockstep.
      Duration backoff = config.Scaled(config.retry_backoff);
      for (int i = 0; i < attempt && backoff < backoff_cap; ++i) backoff *= 2;
      backoff = std::min(backoff, backoff_cap);
      SleepFor(Duration(static_cast<Duration::rep>(
          static_cast<double>(backoff.count()) *
          (0.5 + 0.5 * rng.NextDouble()))));
    }
    SleepFor(config.Scaled(config.wait_after_commit));
  }
}

/// The socket-mode worker: the same life as WorkerLoop — stagger, draw a
/// work item, run it to commit with bounded retries, think, repeat — but
/// every DOM operation crosses the loopback wire and the transaction
/// lives on the server. Metrics are recorded here (client side), exactly
/// like the in-process loop, so the Figs. 7–11 pipeline is unchanged; the
/// commit log records the server-assigned commit sequence numbers, so the
/// serializable replay check provides commit-set equality with the
/// in-process runs.
/// Thread-safe sum of every worker's client-side resilience counters.
struct ClientNetAgg {
  std::mutex mu;
  net::ClientNetStats sum;

  void Add(const net::ClientNetStats& s) {
    std::lock_guard<std::mutex> guard(mu);
    sum.reconnects += s.reconnects;
    sum.resumes += s.resumes;
    sum.lease_expired += s.lease_expired;
    sum.retried_requests += s.retried_requests;
    sum.unknown_commits += s.unknown_commits;
    sum.io_timeouts += s.io_timeouts;
  }
};

void ClientWorkerLoop(const RunConfig& config, uint16_t port,
                      const BibInfo* info, bool wal_enabled,
                      FaultInjector* faults, MetricsCollector* metrics,
                      TxType type, uint64_t worker_index,
                      const std::atomic<bool>* stop, CommitLog* commit_log,
                      ClientNetAgg* net_agg) {
  Rng rng(config.seed * 1000003 + worker_index);
  net::ClientOptions copts;
  copts.connect_timeout = config.net.connect_timeout;
  copts.io_timeout = config.net.io_timeout;
  copts.max_reconnect_attempts = config.net.max_reconnect_attempts;
  copts.backoff = config.net.backoff;
  copts.backoff_max = config.net.backoff_max;
  copts.seed = config.seed * 1000003 + worker_index;
  copts.faults = faults;
  net::Client client(copts);
  net::RemoteDom dom(&client);
  TaMixBodyRunner bodies(info, config.Scaled(config.wait_after_operation));

  // (Re)connect with patience: the server may briefly refuse while its
  // accept queue churns at startup, and a transport error mid-run closes
  // the connection. Gives up only when the run is over.
  const auto ensure_connected = [&]() {
    while (!client.connected() && !stop->load(std::memory_order_relaxed)) {
      if (client.Connect("127.0.0.1", port).ok()) return true;
      SleepFor(Millis(20));
    }
    return client.connected();
  };

  const Duration stagger = config.Scaled(config.max_initial_wait);
  if (stagger > Duration::zero()) {
    SleepFor(Duration(static_cast<Duration::rep>(
        rng.NextDouble() * static_cast<double>(stagger.count()))));
  }
  // Flush the client's resilience counters into the shared aggregate on
  // every exit path.
  struct StatsFlush {
    net::Client* client;
    ClientNetAgg* agg;
    ~StatsFlush() {
      if (agg != nullptr) agg->Add(client->net_stats());
    }
  } flush{&client, net_agg};

  const Duration backoff_cap = config.Scaled(config.retry_backoff_max);
  while (!stop->load(std::memory_order_relaxed)) {
    const uint64_t body_seed = rng.Next();
    for (int attempt = 0;; ++attempt) {
      if (!ensure_connected()) return;
      auto begin = client.Begin(config.isolation, config.lock_depth, type);
      if (!begin.ok()) {
        if (begin.status().code() == StatusCode::kResourceExhausted) {
          // Admission pushback is flow control, not a workload abort: back
          // off (without consuming a retry) and offer the item again.
          if (stop->load(std::memory_order_relaxed)) break;
          SleepFor(config.Scaled(config.retry_backoff));
          --attempt;
          continue;
        }
        if (stop->load(std::memory_order_relaxed)) break;
        continue;  // transport hiccup: ensure_connected will rebuild
      }
      const TimePoint start = Now();
      Rng body_rng(body_seed);
      Status st = bodies.RunBody(type, dom, body_rng);
      if (st.ok()) {
        auto commit = client.Commit(
            wal_enabled ? EncodeCommitPayload(type, body_seed)
                        : std::string());
        if (commit.ok()) {
          if (commit_log != nullptr) {
            commit_log->Record({*commit, type, body_seed});
          }
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
      Duration backoff = config.Scaled(config.retry_backoff);
      for (int i = 0; i < attempt && backoff < backoff_cap; ++i) backoff *= 2;
      backoff = std::min(backoff, backoff_cap);
      SleepFor(Duration(static_cast<Duration::rep>(
          static_cast<double>(backoff.count()) *
          (0.5 + 0.5 * rng.NextDouble()))));
    }
    SleepFor(config.Scaled(config.wait_after_commit));
  }
}

}  // namespace

std::string EncodeCommitPayload(TxType type, uint64_t body_seed) {
  std::string payload(12, '\0');
  const uint32_t t = static_cast<uint32_t>(type);
  std::memcpy(payload.data(), &t, sizeof(t));
  std::memcpy(payload.data() + 4, &body_seed, sizeof(body_seed));
  return payload;
}

StatusOr<std::vector<CommittedTx>> DecodeCommitPayloads(
    const std::vector<RecoveredCommit>& durable) {
  std::vector<CommittedTx> out;
  out.reserve(durable.size());
  for (const RecoveredCommit& c : durable) {
    if (c.payload.size() != 12) {
      return Status::DataLoss("commit record of tx " + std::to_string(c.tx) +
                              " carries a malformed payload (" +
                              std::to_string(c.payload.size()) + " bytes)");
    }
    uint32_t type = 0;
    uint64_t body_seed = 0;
    std::memcpy(&type, c.payload.data(), sizeof(type));
    std::memcpy(&body_seed, c.payload.data() + 4, sizeof(body_seed));
    if (type >= kNumTxTypes) {
      return Status::DataLoss("commit record of tx " + std::to_string(c.tx) +
                              " names unknown transaction type " +
                              std::to_string(type));
    }
    out.push_back(CommittedTx{c.seq, static_cast<TxType>(type), body_seed});
  }
  return out;
}

StatusOr<RunStats> RunCluster1(const RunConfig& config, ChaosReport* report) {
  XTC_ASSIGN_OR_RETURN(std::unique_ptr<Testbed> bed, BuildTestbed(config));
  TaMixRunner runner(bed->node_manager.get(), &bed->info,
                     config.Scaled(config.wait_after_operation));
  MetricsCollector metrics;
  std::atomic<bool> stop{false};
  CommitLog commit_log;
  const bool chaos = config.faults.enabled();
  CommitLog* log_ptr = (chaos || report != nullptr) ? &commit_log : nullptr;

  // Socket frontend: start the network server on loopback and hand every
  // worker its own connection instead of direct NodeManager access.
  const bool socket_mode = ResolveSocketEnabled(config.frontend);
  const int total_workers = config.mix.clients * config.mix.WorkersPerClient();
  std::unique_ptr<net::Server> server;
  if (socket_mode) {
    net::ServerOptions sopts;
    // One server worker per client connection: a transaction parked in a
    // lock wait occupies its worker, and a pool smaller than the client
    // count would add queueing delays the in-process harness doesn't
    // have — this run must measure the protocol, not the pool.
    sopts.num_workers = std::max(total_workers, 1);
    sopts.max_sessions = static_cast<size_t>(total_workers) + 8;
    sopts.max_in_flight_tx = static_cast<size_t>(total_workers) + 8;
    sopts.max_queue_depth = static_cast<size_t>(total_workers) * 4 + 64;
    sopts.request_deadline =
        config.Scaled(config.lock_wait_timeout) + std::chrono::seconds(10);
    sopts.drain_timeout = std::chrono::seconds(2);
    sopts.session_lease = config.net.session_lease;
    sopts.outcome_table_entries = config.net.outcome_table_entries;
    server = std::make_unique<net::Server>(
        net::Server::Deps{bed->node_manager.get(), bed->tx_manager.get(),
                          &bed->protocol->table(), &bed->info, bed->wal.get(),
                          bed->faults.get()},
        sopts);
    XTC_RETURN_IF_ERROR(server->Start());
  }
  // Optional network chaos: interpose the byte-injuring proxy and point
  // every worker at it instead of the server.
  std::unique_ptr<net::ChaosProxy> chaos_proxy;
  if (socket_mode && config.net.chaos != nullptr) {
    chaos_proxy =
        std::make_unique<net::ChaosProxy>(server->port(), *config.net.chaos);
    XTC_RETURN_IF_ERROR(chaos_proxy->Start());
  }
  const uint16_t client_port =
      server == nullptr ? 0
                        : (chaos_proxy != nullptr ? chaos_proxy->port()
                                                  : server->port());
  ClientNetAgg net_agg;

  std::vector<std::thread> workers;
  uint64_t worker_index = 0;
  auto spawn = [&](TxType type, int count) {
    for (int i = 0; i < count; ++i) {
      if (socket_mode) {
        workers.emplace_back(ClientWorkerLoop, std::cref(config), client_port,
                             &bed->info, bed->wal != nullptr,
                             bed->faults.get(), &metrics, type, worker_index++,
                             &stop, log_ptr, &net_agg);
      } else {
        workers.emplace_back(WorkerLoop, std::cref(config), bed.get(), &runner,
                             &metrics, type, worker_index++, &stop, log_ptr);
      }
    }
  };
  for (int c = 0; c < config.mix.clients; ++c) {
    spawn(TxType::kQueryBook, config.mix.query_book);
    spawn(TxType::kChapter, config.mix.chapter);
    spawn(TxType::kRenameTopic, config.mix.rename_topic);
    spawn(TxType::kLendAndReturn, config.mix.lend_and_return);
    spawn(TxType::kDelBook, config.mix.del_book);
  }

  // Background fuzzy checkpointer: every N commits, write back what is
  // flushable (unpinned, uncaptured dirty frames — the background-writer
  // role, keeping redo short) and snapshot the dirty-page and
  // active-transaction tables into the log. Failures are tolerated —
  // injected I/O faults hit this thread like any other — but a crashed
  // instance ends it.
  std::thread checkpointer;
  if (bed->wal != nullptr && config.checkpoint_every_commits > 0) {
    checkpointer = std::thread([&config, &bed, &stop] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed) && !bed->crashed()) {
        const uint64_t committed = bed->tx_manager->num_committed();
        if (committed - last >= config.checkpoint_every_commits) {
          (void)bed->doc->buffer().FlushAll();
          if (bed->doc->LogCheckpoint().ok()) last = committed;
          if (bed->crashed()) break;
        }
        SleepFor(Millis(2));
      }
    });
  }

  // Timed run — cut short the moment a crash.* point kills the instance
  // (every further operation would only fail against the frozen store).
  const TimePoint start = Now();
  metrics.MarkRunStart();
  const TimePoint deadline = start + config.Scaled(config.run_duration);
  while (Now() < deadline && !bed->crashed()) {
    SleepFor(std::min<Duration>(Millis(5), deadline - Now()));
  }
  stop.store(true, std::memory_order_relaxed);
  // Wake every waiter parked in the lock table. Without this, a worker
  // blocked in Lock() at stop time (or frozen mid-wait by a crash.*
  // point) sleeps toward the full wait_timeout — 10 s of wall clock per
  // parked waiter added to the join below for no benefit: the run is
  // over and the denied request can only be aborted anyway.
  bed->protocol->table().CancelWaiters();
  for (auto& w : workers) w.join();
  if (checkpointer.joinable()) checkpointer.join();
  // Socket mode: graceful drain — the joined clients have disconnected,
  // so this aborts whatever transactions their sessions still held and
  // flushes the WAL before the quiescence checks below. The proxy goes
  // first so no injured half-written frame can reach the draining server.
  if (chaos_proxy != nullptr) chaos_proxy->Stop();
  if (server != nullptr) server->Stop();
  const int64_t elapsed_ms = ToMillis(Now() - start);
  const bool crashed = bed->crashed();

  if (config.replication != nullptr) {
    // The workload is quiescent but the testbed (and the primary's log
    // device) is still alive: the observer joins its shipping thread and
    // — on a crash — drains the surviving durable log into the follower.
    config.replication->OnPrimaryStopped(crashed);
  }

  RunStats stats = metrics.Snapshot();
  stats.lock_stats = bed->protocol->table().GetStats();
  stats.buffer_hits = bed->doc->buffer().hits();
  stats.buffer_misses = bed->doc->buffer().misses();
  stats.buffer_io = bed->doc->buffer().io_stats();
  if (bed->wal != nullptr) stats.wal = bed->wal->stats();
  if (config.replication != nullptr) {
    stats.repl = config.replication->Stats();
  }
  if (server != nullptr) {
    const net::ServerStats ss = server->stats();
    stats.net.enabled = true;
    stats.net.sessions_accepted = ss.sessions_opened;
    stats.net.sessions_parked = ss.sessions_parked;
    stats.net.sessions_resumed = ss.sessions_resumed;
    stats.net.leases_expired = ss.leases_expired;
    stats.net.dedup_hits = ss.dedup_hits;
    // Post-Stop gauges: anything nonzero here is a session leak.
    stats.net.sessions_active_end = ss.active_sessions;
    stats.net.sessions_parked_end = ss.parked_sessions;
    {
      std::lock_guard<std::mutex> guard(net_agg.mu);
      stats.net.reconnects = net_agg.sum.reconnects;
      stats.net.resumes = net_agg.sum.resumes;
      stats.net.lease_expired = net_agg.sum.lease_expired;
      stats.net.retried_requests = net_agg.sum.retried_requests;
      stats.net.unknown_commits = net_agg.sum.unknown_commits;
      stats.net.io_timeouts = net_agg.sum.io_timeouts;
    }
    if (chaos_proxy != nullptr) {
      const net::ChaosProxyStats cs = chaos_proxy->stats();
      stats.net.chaos_connections = cs.connections;
      stats.net.chaos_drops = cs.drops;
      stats.net.chaos_truncations = cs.truncations;
      stats.net.chaos_delays = cs.delays;
      stats.net.chaos_duplicates = cs.duplicates;
      stats.net.chaos_cuts = cs.cuts;
      stats.net.chaos_stalls = cs.stalls;
    }
  }
  stats.run_duration_ms = elapsed_ms;

  if (bed->faults != nullptr) {
    // The run is over; the post-run checks below must read the document
    // without injected failures. The log keeps the injection history.
    for (const auto& [point, point_config] : config.faults.points) {
      bed->faults->Disarm(point);
    }
  }
  if (report != nullptr) {
    report->wal_enabled = bed->wal != nullptr;
    report->crashed = crashed;
    if (bed->wal != nullptr) report->wal_stats = bed->wal->stats();
  }
  if (crashed) {
    // The in-memory state is frozen mid-kill and deliberately broken, so
    // none of the quiescence/fingerprint/replay checks apply. Hand the
    // durable artifacts (what a real process would find on disk) to the
    // caller for restart recovery.
    if (report != nullptr) {
      std::sort(commit_log.entries.begin(), commit_log.entries.end(),
                [](const CommittedTx& a, const CommittedTx& b) {
                  return a.seq < b.seq;
                });
      report->committed = commit_log.entries;
      if (bed->faults != nullptr) {
        report->injected_faults = bed->faults->total_injections();
        report->injection_log = bed->faults->InjectionLog();
      }
      report->disk_image = bed->doc->page_file().CloneImage();
      if (bed->wal != nullptr) report->log_image = bed->wal->DurableImage();
    }
    return stats;
  }
  if (log_ptr != nullptr) {
    std::sort(commit_log.entries.begin(), commit_log.entries.end(),
              [](const CommittedTx& a, const CommittedTx& b) {
                return a.seq < b.seq;
              });
    XTC_RETURN_IF_ERROR(CheckQuiescent(bed->protocol->table(), *bed->doc));
    XTC_ASSIGN_OR_RETURN(uint64_t fingerprint,
                         DocumentFingerprint(*bed->doc));
    if (report != nullptr) {
      report->committed = commit_log.entries;
      report->document_fingerprint = fingerprint;
      if (bed->faults != nullptr) {
        report->injected_faults = bed->faults->total_injections();
        report->injection_log = bed->faults->InjectionLog();
      }
      // The durable log of the *surviving* run, so callers (tamix/fuzz) can
      // check client-observed outcomes against WAL truth without a crash.
      if (bed->wal != nullptr) report->log_image = bed->wal->DurableImage();
    }
    if (config.isolation == IsolationLevel::kSerializable) {
      // Strict long locks + serializable: commit order is a serialization
      // order, so the surviving document must equal a single-threaded
      // replay of exactly the committed transactions.
      XTC_RETURN_IF_ERROR(
          CheckCommittedReplay(config, commit_log.entries, *bed->doc));
    }
  }
  return stats;
}

StatusOr<Cluster2Result> RunCluster2(const RunConfig& config, int deletions) {
  if (config.replication != nullptr) {
    return Status::InvalidArgument("replication is a CLUSTER1 feature");
  }
  RunConfig c2 = config;
  c2.isolation = IsolationLevel::kRepeatable;
  XTC_ASSIGN_OR_RETURN(std::unique_ptr<Testbed> bed, BuildTestbed(c2));
  // CLUSTER2 measures pure locking overhead: no client think times.
  TaMixRunner runner(bed->node_manager.get(), &bed->info, Duration::zero());
  Rng rng(c2.seed);

  Cluster2Result result;
  for (int i = 0; i < deletions; ++i) {
    auto tx = bed->tx_manager->Begin(c2.isolation, c2.lock_depth);
    const TimePoint start = Now();
    Status st = runner.DelBook(*tx, rng);
    if (st.ok()) {
      XTC_RETURN_IF_ERROR(bed->tx_manager->Commit(*tx));
      result.total_us += ToMicros(Now() - start);
      ++result.deletions;
    } else {
      (void)bed->tx_manager->Abort(*tx);
      if (!st.IsRetryable()) return st;
    }
  }
  result.lock_requests = bed->protocol->table().GetStats().requests;
  return result;
}

}  // namespace xtc
