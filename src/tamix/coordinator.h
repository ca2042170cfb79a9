// TaMix coordinator: sets up the XDBMS stack (document, protocol, lock
// manager, transaction manager, node manager), spawns client workers —
// one worker loop over in-process or socket sessions — and drives a
// timed CLUSTER1 run or a single-user CLUSTER2 measurement (paper §4.3).

#ifndef XTC_TAMIX_COORDINATOR_H_
#define XTC_TAMIX_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lock/lock_manager.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "repl/repl_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "tamix/bib_generator.h"
#include "tamix/metrics.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace xtc {

/// What a replication observer may hold of the primary while the run is
/// alive (DESIGN.md §7). All pointers are owned by the testbed and stay
/// valid from OnPrimaryReady until OnPrimaryStopped returns.
struct PrimaryHandles {
  /// The primary's log; the shipper reads its durable prefix from here
  /// (valid even after a simulated crash — the log device outlives the
  /// process, which is what failover drains).
  Wal* wal = nullptr;
  FaultInjector* faults = nullptr;  // null unless chaos mode
  CrashSwitch* crash = nullptr;     // null unless crash_enabled
  /// Base images at the post-setup checkpoint — what a follower is
  /// seeded from.
  PageFileImage base_disk;
  std::string base_log;
  /// The primary's storage configuration (page size etc.); a follower
  /// must strip the injector/switch and substitute its own.
  StorageOptions storage;
};

/// Hook a run uses to drive log-shipping replication alongside the
/// workload. OnPrimaryReady fires after the base checkpoint and before
/// any fault point is armed; OnPrimaryStopped fires after every worker
/// and the checkpointer joined, while the testbed (and thus `wal`) is
/// still alive — the failover drain happens there. Stats() is read once
/// after OnPrimaryStopped into RunStats::repl.
class ReplicationObserver {
 public:
  virtual ~ReplicationObserver() = default;
  virtual Status OnPrimaryReady(const PrimaryHandles& handles) = 0;
  virtual void OnPrimaryStopped(bool crashed) = 0;
  virtual ReplicationStats Stats() const = 0;
};

/// Per-client transaction mix. CLUSTER1 (paper): 3 clients, each keeping
/// 9 TAqueryBook, 5 TAchapter, 2 TArenameTopic and 8 TAlendAndReturn
/// continuously active = 72 concurrent transactions.
struct WorkloadMix {
  int clients = 3;
  int query_book = 9;
  int chapter = 5;
  int rename_topic = 2;
  int lend_and_return = 8;
  int del_book = 0;  // not part of CLUSTER1

  int WorkersPerClient() const {
    return query_book + chapter + rename_topic + lend_and_return + del_book;
  }
};

/// Chaos mode: which fault points to arm, and with what configuration.
/// The injector is created after the testbed is built and the bib
/// document is generated, so setup is always fault-free.
struct FaultPlan {
  /// Injector seed; 0 = derive from RunConfig::seed.
  uint64_t seed = 0;
  std::vector<std::pair<std::string, FaultPointConfig>> points;

  bool enabled() const { return !points.empty(); }

  /// Arms every fault point in the stack at the same probability.
  static FaultPlan AllPoints(double probability);
};

/// Durability switch. kAuto follows the XTC_WAL environment variable
/// (set and not "0" = enabled), so existing test binaries can run a
/// WAL-enabled variant without a rebuild.
enum class WalMode { kAuto, kEnabled, kDisabled };

/// How CLUSTER1 workers reach the engine. Either way every worker runs
/// the same loop (RunTaMixWorker) over its own TaMixSession. kInProcess
/// gives it a LocalSession (direct NodeManager calls). kSocket starts the
/// socket front-end (src/net/) on loopback and gives every worker a
/// RemoteSession on its own connection — the paper's actual topology,
/// where TaMix clients were separate machines talking to the XTC server.
/// kAuto follows the XTC_NET environment variable (set and not "0" =
/// socket), mirroring WalMode/XTC_WAL so existing test binaries gain a
/// socket variant without a rebuild. CLUSTER2 ignores this (single-user
/// local measurement).
enum class Frontend { kAuto, kInProcess, kSocket };

/// Network resilience for the socket frontend (docs/robustness.md
/// "Network chaos"). The defaults preserve the PR-8 behavior — fail-fast
/// clients, disconnect aborts, no chaos — so existing runs are unchanged.
struct NetResilience {
  /// Every worker's client options (reconnect budget, timeouts, backoff);
  /// each worker's copy gets its own jitter seed and the run's injector.
  net::ClientOptions client;
  /// Server-side lease: how long a disconnected session's transaction
  /// and outcome table await a kResume (zero = abort on disconnect).
  Duration session_lease = Duration::zero();
  /// When set, an in-process ChaosProxy is interposed between the client
  /// workers and the server: workers connect to the proxy's port and the
  /// proxy injures the byte stream per this plan. Not owned; the run
  /// copies the plan at startup.
  const net::ChaosPlan* chaos = nullptr;
};

/// One benchmark run. All timing parameters are the paper's, scaled by
/// `time_scale` (default 1/50: a 5-minute run becomes 6 seconds).
struct RunConfig {
  std::string protocol = "taDOM3+";
  /// When set, overrides `protocol` with a custom construction (used by
  /// ablation studies to build protocol variants outside the registry).
  std::function<std::unique_ptr<XmlProtocol>(LockTableOptions)>
      protocol_factory;
  IsolationLevel isolation = IsolationLevel::kRepeatable;
  int lock_depth = 7;
  double time_scale = 1.0 / 50.0;

  // Unscaled (paper) values; effective value = paper value * time_scale.
  Duration run_duration = std::chrono::minutes(5);
  Duration wait_after_commit = Millis(2500);
  Duration wait_after_operation = Millis(100);
  Duration max_initial_wait = Millis(5000);
  Duration lock_wait_timeout = std::chrono::seconds(150);

  WorkloadMix mix;
  BibConfig bib = BibConfig::Bench();
  StorageOptions storage;
  uint64_t seed = 7;

  /// Chaos mode (empty = off): armed fault points for this run.
  FaultPlan faults;
  /// Write-ahead logging (DESIGN.md §6). With a WAL attached, every
  /// commit forces a durable commit record and a background fuzzy
  /// checkpointer runs alongside the workload.
  WalMode wal = WalMode::kAuto;
  /// Client↔engine transport for CLUSTER1 (see Frontend).
  Frontend frontend = Frontend::kAuto;
  /// Socket-frontend resilience: client options, session leases,
  /// optional chaos proxy.
  NetResilience net;
  /// Commits between fuzzy checkpoints (0 = only the setup checkpoint).
  uint64_t checkpoint_every_commits = 64;
  /// Simulated hard kill: gives the instance a CrashSwitch (seeded from
  /// `seed`) so armed crash.* fault points can freeze it mid-run. The
  /// run then ends early, post-run invariants are skipped (the "disk"
  /// is deliberately inconsistent) and the report carries the durable
  /// images restart recovery starts from.
  bool crash_enabled = false;
  /// How often a worker re-runs one work item after a retryable abort
  /// (deadlock, timeout, injected I/O error) before giving up on it and
  /// drawing fresh work. Each retry backs off exponentially from
  /// `retry_backoff` (plus jitter), capped at `retry_backoff_max`.
  int max_retries = 4;
  Duration retry_backoff = Millis(100);
  Duration retry_backoff_max = Millis(2000);
  /// Log-shipping replication hook (CLUSTER1 only; requires the WAL).
  /// Not owned; must outlive the run.
  ReplicationObserver* replication = nullptr;

  Duration Scaled(Duration d) const {
    return std::chrono::duration_cast<Duration>(d * time_scale);
  }
};

/// One committed transaction, as recorded for the chaos replay check.
/// `body_seed` reseeds the body RNG so a single-threaded replay in
/// commit-sequence order reproduces exactly the committed work.
struct CommittedTx {
  uint64_t seq = 0;
  TxType type = TxType::kQueryBook;
  uint64_t body_seed = 0;
};

/// Commit-record payload: everything the replay check needs to re-run
/// the transaction — {u32 TxType, u64 body_seed}, little-endian. What
/// the commit log records in memory, the WAL makes durable.
std::string EncodeCommitPayload(TxType type, uint64_t body_seed);

/// Decodes durable commit payloads (EncodeCommitPayload) back into
/// replayable transactions, in the order given.
StatusOr<std::vector<CommittedTx>> DecodeCommitPayloads(
    const std::vector<RecoveredCommit>& durable);

/// What a chaos run reports on top of RunStats (see docs/robustness.md).
struct ChaosReport {
  /// Every committed transaction, sorted by commit sequence number.
  std::vector<CommittedTx> committed;
  /// Canonical structure+content fingerprint of the surviving document.
  uint64_t document_fingerprint = 0;
  /// Total injected faults, and the per-point firing log (the log is the
  /// determinism witness: same seed + same plan ⇒ identical log).
  uint64_t injected_faults = 0;
  std::vector<FaultInjection> injection_log;
  /// Durability outcome. When a crash.* point killed the run, `crashed`
  /// is true, the quiescence/fingerprint/replay checks are skipped, and
  /// `disk_image`/`log_image` are the durable artifacts — what a real
  /// process would find on disk — for OpenDatabase to recover from.
  bool wal_enabled = false;
  bool crashed = false;
  WalStats wal_stats;
  PageFileImage disk_image;
  std::string log_image;
};

/// Thread-safe record of every committed transaction (coordinator.cc).
struct CommitLog;

/// What all workers of one run share. Nothing is owned.
struct WorkerShared {
  const RunConfig* config = nullptr;
  const BibInfo* info = nullptr;
  const std::atomic<bool>* stop = nullptr;
  MetricsCollector* metrics = nullptr;
  /// When set, records every commit — also those after stop, which the
  /// metrics leave out.
  CommitLog* commit_log = nullptr;
};

/// One TaMix client worker (paper §4.3), over any session: a seeded
/// stagger, then until stop: draw a work item, run it to commit with at
/// most `max_retries` retries of a retryable failure (jittered
/// exponential backoff capped at `retry_backoff_max`; the body RNG is
/// reseeded from the item's `body_seed` on every attempt, so a commit
/// log entry replays it), think `wait_after_commit`. Admission pushback
/// (kResourceExhausted from Begin) backs off without consuming an
/// attempt; a kCancelled failure (stop woke a lock wait) is not an abort;
/// a failing Abort counts an undo failure.
void RunTaMixWorker(const WorkerShared& shared, TaMixSession& session,
                    TxType type, uint64_t worker_index);

/// Makes the session worker `worker_index` runs on.
using SessionFactory =
    std::function<std::unique_ptr<TaMixSession>(uint64_t worker_index)>;

/// Starts one RunTaMixWorker thread per slot of `shared.config->mix`
/// (per client: query_book, chapter, rename_topic, lend_and_return,
/// del_book), numbered from 0 in that order. The caller sets the stop
/// flag and joins.
std::vector<std::thread> SpawnTaMixWorkers(const WorkerShared& shared,
                                           const SessionFactory& make_session);

/// Runs CLUSTER1: the timed multi-client workload. When `config.faults`
/// is enabled, post-run invariants are enforced (quiescent lock table and
/// wait-for graph, zero buffer pins, structurally valid document) and
/// `report` (optional) receives the chaos outcome.
StatusOr<RunStats> RunCluster1(const RunConfig& config,
                               ChaosReport* report = nullptr);

/// CLUSTER2: single-user TAdelBook executions under isolation level
/// repeatable; reports execution time and locking effort (paper §5.3).
struct Cluster2Result {
  int64_t total_us = 0;        // summed execution time of all deletions
  int deletions = 0;           // how many TAdelBook executions ran
  uint64_t lock_requests = 0;  // lock-manager calls issued
  double ms_per_deletion() const {
    return deletions == 0 ? 0.0
                          : static_cast<double>(total_us) / 1000.0 / deletions;
  }
};

StatusOr<Cluster2Result> RunCluster2(const RunConfig& config, int deletions);

}  // namespace xtc

#endif  // XTC_TAMIX_COORDINATOR_H_
