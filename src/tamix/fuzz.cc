#include "tamix/fuzz.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <tuple>
#include <utility>

#include "repl/repl_harness.h"
#include "tamix/invariants.h"
#include "util/crash_switch.h"
#include "util/fault_injector.h"

namespace xtc {

namespace {

/// One network-injury mode of the kNet rotation (seed % Modes().size()):
/// byte-level chaos through the in-process proxy, net.* fault points on
/// both sides of the wire, or both.
struct ChaosMode {
  const char* name;
  bool use_proxy;
  net::ChaosPlan plan;  // meaningful when use_proxy
  std::vector<std::string_view> fault_points;
  double fault_probability = 0.0;
};

std::vector<ChaosMode> BuildModes() {
  std::vector<ChaosMode> modes;
  {
    ChaosMode m{"proxy.drop", true, {}, {}, 0.0};
    m.plan.drop = 0.04;
    modes.push_back(m);
  }
  {
    ChaosMode m{"proxy.truncate", true, {}, {}, 0.0};
    m.plan.truncate = 0.04;
    modes.push_back(m);
  }
  {
    ChaosMode m{"proxy.delay+dup", true, {}, {}, 0.0};
    m.plan.delay = 0.10;
    m.plan.duplicate = 0.05;
    m.plan.delay_max_ms = 5;
    modes.push_back(m);
  }
  {
    ChaosMode m{"proxy.mixed", true, {}, {}, 0.0};
    m.plan.drop = 0.02;
    m.plan.truncate = 0.02;
    m.plan.delay = 0.05;
    m.plan.duplicate = 0.03;
    m.plan.delay_max_ms = 5;
    modes.push_back(m);
  }
  modes.push_back(ChaosMode{
      "fault.net.send", false, {}, {fault_points::kNetSend}, 0.03});
  modes.push_back(ChaosMode{
      "fault.net.recv", false, {}, {fault_points::kNetRecv}, 0.03});
  modes.push_back(ChaosMode{"fault.net.close+delay",
                            false,
                            {},
                            {fault_points::kNetClose, fault_points::kNetDelay},
                            0.02});
  {
    ChaosMode m{"all",
                true,
                {},
                {fault_points::kNetSend, fault_points::kNetRecv,
                 fault_points::kNetClose, fault_points::kNetDelay},
                0.01};
    m.plan.drop = 0.01;
    m.plan.truncate = 0.01;
    m.plan.delay = 0.03;
    m.plan.duplicate = 0.02;
    m.plan.delay_max_ms = 5;
    modes.push_back(m);
  }
  return modes;
}

const std::vector<ChaosMode>& Modes() {
  static const std::vector<ChaosMode>* modes =
      new std::vector<ChaosMode>(BuildModes());
  return *modes;
}

const ChaosMode& NetMode(uint64_t seed) {
  return Modes()[seed % Modes().size()];
}

/// The kPair kill site of `seed`: the rotation over every crash point.
std::string_view PairKillPoint(uint64_t seed) {
  const std::vector<std::string_view> points = AllCrashPoints();
  return points[seed % points.size()];
}

FaultPointConfig OneShotKill(uint64_t skip_first) {
  FaultPointConfig kill;
  kill.probability = 1.0;
  kill.one_shot = true;
  kill.skip_first = skip_first;
  return kill;
}

/// Rotates the redo pool size with the seed so sweeps cover the parallel
/// redo path (wal/redo_applier.h) as well as the serial one.
RecoveryOptions SeedRecovery(uint64_t seed) {
  RecoveryOptions recovery;
  recovery.redo_workers = 1 + static_cast<int>(seed % 4);
  return recovery;
}

/// "name=value ..." for the per-seed sweep log.
std::string Counters(
    std::initializer_list<std::pair<const char*, uint64_t>> counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!out.empty()) out += ' ';
    out += std::string(name) + "=" + std::to_string(value);
  }
  return out;
}

Status RunCrash(uint64_t seed, const RunConfig& run, FuzzOutcome* out) {
  ChaosReport report;
  XTC_RETURN_IF_ERROR(RunCluster1(run, &report).status());
  out->fired = out->primary_crashed = report.crashed;
  out->commits = report.committed.size();
  // No kill: the run shut down cleanly and RunCluster1 already checked
  // the surviving document.
  if (!report.crashed) return Status::OK();

  // Every 8th seed arms kill points inside the recovering instance too
  // (fresh injector, fresh switch).
  StorageOptions storage = FaultFreeStorage(run.storage);
  WalOptions wal_options;
  std::unique_ptr<FaultInjector> rec_faults;
  std::unique_ptr<CrashSwitch> rec_crash;
  if (seed % 8 == 0) {
    rec_faults = std::make_unique<FaultInjector>(seed * 0x9e3779b9ULL + 1);
    rec_crash = std::make_unique<CrashSwitch>(seed + 0x5bd1e995ULL);
    rec_faults->Arm(fault_points::kCrashWal, OneShotKill(seed % 7));
    rec_faults->Arm(fault_points::kCrashPage, OneShotKill(seed % 7));
    storage.fault_injector = wal_options.fault_injector = rec_faults.get();
    storage.crash_switch = wal_options.crash_switch = rec_crash.get();
  }
  const RecoveryOptions recovery = SeedRecovery(seed);
  CrashArtifacts artifacts;
  auto opened = OpenDatabase(storage, wal_options, report.disk_image,
                             report.log_image, 2, &artifacts, recovery);
  if (!opened.ok() && rec_crash != nullptr && rec_crash->crashed()) {
    // Recovery itself was killed. Recover again, fault-free, from the
    // artifacts the dead attempt left behind — the undo chains may have
    // grown (compensations of compensations), but the net effect must
    // converge to the same recovered state.
    out->recovery_crashed = true;
    opened = OpenDatabase(FaultFreeStorage(run.storage), WalOptions{},
                          artifacts.disk_image, artifacts.log_image, 2,
                          nullptr, recovery);
  }
  if (!opened.ok()) {
    return opened.status().Annotate("restart recovery failed");
  }
  const RecoveryStats& stats = opened->stats;
  if (!stats.performed) return Status::Internal("restart ran no recovery");
  out->detail = Counters({{"commits", out->commits},
                          {"redone", stats.records_redone},
                          {"scanned", stats.records_scanned},
                          {"losers", stats.losers_undone}}) +
                (stats.torn_log_tail ? " torn-tail" : "") +
                (out->recovery_crashed ? " recovery-crashed" : "");
  return CheckFuzzContract(run, report.committed, opened->committed,
                           "recovery", opened->doc.get());
}

Status RunPair(uint64_t seed, const RunConfig& base, FuzzOutcome* out) {
  const bool kill_follower = PairKillPoint(seed) == fault_points::kCrashApply;
  PairReplicationObserver::Options obs;
  obs.seed = seed;
  if (kill_follower) obs.follower_kill_skip = 8 + (seed / 5) % 80;
  PairReplicationObserver observer(obs);
  RunConfig run = base;
  run.replication = &observer;
  ChaosReport report;
  XTC_RETURN_IF_ERROR(RunCluster1(run, &report).status());
  XTC_RETURN_IF_ERROR(
      observer.background_status().Annotate("replication machinery"));
  out->primary_crashed = report.crashed;
  out->follower_killed = observer.follower_was_killed();
  out->fired = kill_follower ? out->follower_killed : out->primary_crashed;
  out->commits = report.committed.size();
  Follower* follower = observer.follower();
  if (follower == nullptr) {
    return Status::Internal("observer holds no follower after the run");
  }

  // Workers only record a commit once its record is durable on the
  // primary, and the drain ships the full durable prefix — so the
  // follower must hold exactly the observed commits, whichever side was
  // killed and whenever.
  XTC_RETURN_IF_ERROR(CheckFuzzContract(run, report.committed,
                                        follower->committed(), "the follower",
                                        nullptr));
  XTC_ASSIGN_OR_RETURN(
      OpenResult promoted,
      follower->Promote(FaultFreeStorage(run.storage), WalOptions{},
                        SeedRecovery(seed)));
  const ReplicationStats repl = observer.Stats();
  out->detail = (kill_follower ? "kill=follower " : "kill=primary ") +
                Counters({{"commits", out->commits},
                          {"applied", repl.commits_applied},
                          {"shipped_bytes", repl.shipped_bytes},
                          {"restarts", observer.follower_restarts()},
                          {"losers", promoted.stats.losers_undone}});
  return CheckFuzzContract(run, report.committed, promoted.committed,
                           "the promoted database", promoted.doc.get());
}

Status RunNet(uint64_t seed, const RunConfig& base, FuzzOutcome* out) {
  const ChaosMode& mode = NetMode(seed);
  RunConfig run = base;
  net::ChaosPlan plan = mode.plan;
  if (mode.use_proxy) {
    plan.seed = seed;
    // Let every connection's handshake chunks through: hello (and
    // resume) must be able to succeed or a severed client could never
    // re-establish its session.
    plan.skip_first_chunks = 2;
    plan.shape_conn_index = -1;  // probabilistic chaos on every conn
    run.net.chaos = &plan;
  }
  ChaosReport report;
  XTC_ASSIGN_OR_RETURN(RunStats stats, RunCluster1(run, &report));
  if (!stats.net_server || !stats.net_client) {
    return Status::Internal("run did not use the socket frontend");
  }
  const net::ServerStats& server = *stats.net_server;
  const net::ClientNetStats& clients = *stats.net_client;
  if (report.log_image.empty()) {
    return Status::Internal("run produced no durable log image");
  }
  XTC_ASSIGN_OR_RETURN(WalScan scan, Wal::ScanDurable(report.log_image));
  if (scan.torn_tail) {
    // The server shut down cleanly (Drain syncs); a torn durable tail
    // here means the log itself is broken.
    return Status::Internal("clean shutdown left a torn WAL tail");
  }
  std::vector<RecoveredCommit> wal_commits;
  for (const WalRecord& r : scan.records) {
    if (r.type != WalRecordType::kCommit) continue;
    wal_commits.push_back(RecoveredCommit{r.tx, r.commit_seq, r.payload});
  }
  // RunCluster1 already checked the surviving document (replay, pins,
  // audit); the WAL is the truth the clients' outcomes must match.
  XTC_RETURN_IF_ERROR(CheckFuzzContract(run, report.committed, wal_commits,
                                        "the WAL", nullptr));
  // The server was alive the whole time and the lease outlives the run:
  // every torn commit must have been resolved exactly-once.
  if (clients.unknown_commits != 0) {
    return Status::Internal(std::to_string(clients.unknown_commits) +
                            " commit(s) ended kUnknown with a live server");
  }
  if (server.active_sessions != 0 || server.parked_sessions != 0) {
    return Status::Internal(
        "session leak after drain: " + std::to_string(server.active_sessions) +
        " active, " + std::to_string(server.parked_sessions) + " parked");
  }
  const net::ChaosProxyStats chaos =
      stats.net_chaos.value_or(net::ChaosProxyStats{});
  out->commits = report.committed.size();
  out->injuries = chaos.drops + chaos.truncations + chaos.delays +
                  chaos.duplicates + chaos.cuts + chaos.stalls +
                  report.injected_faults;
  out->fired = out->injuries > 0;
  out->detail = std::string(mode.name) + " " +
                Counters({{"commits", out->commits},
                          {"injuries", out->injuries},
                          {"reconnects", clients.reconnects},
                          {"resumes", server.sessions_resumed},
                          {"dedup", server.dedup_hits},
                          {"parked", server.sessions_parked}});
  return Status::OK();
}

}  // namespace

const char* InjuryName(Injury injury) {
  switch (injury) {
    case Injury::kCrash:
      return "crash";
    case Injury::kPair:
      return "pair";
    case Injury::kNet:
      return "net";
  }
  return "?";
}

RunConfig FuzzRunConfig(Injury injury, uint64_t seed) {
  RunConfig c;
  c.isolation = IsolationLevel::kSerializable;
  c.seed = seed == 0 ? 1 : seed;
  c.bib = BibConfig::Tiny();
  c.mix.clients = 2;
  c.mix.query_book = 1;
  c.mix.chapter = 1;
  c.mix.rename_topic = 1;
  c.mix.lend_and_return = 2;
  c.mix.del_book = 1;
  // Scaled (1/50) effective values: 500 ms run, 5 ms commit think time.
  c.run_duration = std::chrono::seconds(25);
  c.wait_after_commit = Millis(250);
  c.wait_after_operation = Millis(50);
  c.max_initial_wait = Millis(500);
  c.wal = WalMode::kEnabled;
  c.checkpoint_every_commits = 8;

  if (injury == Injury::kNet) {
    // 1 s lock waits: a parked predecessor must finish well inside the
    // resume steal window.
    c.lock_wait_timeout = std::chrono::seconds(50);
    c.frontend = Frontend::kSocket;
    c.max_retries = 3;
    // A generous lease (longer than any seed's wall clock) means every
    // torn commit must resolve through resume + the outcome table —
    // kUnknown is a failure.
    c.net.client.max_reconnect_attempts = 12;
    c.net.client.connect_timeout = std::chrono::seconds(2);
    c.net.client.io_timeout = std::chrono::seconds(2);
    c.net.client.backoff = Millis(5);
    c.net.client.backoff_max = Millis(50);
    c.net.session_lease = std::chrono::seconds(30);
    const ChaosMode& mode = NetMode(seed);
    FaultPointConfig fp;
    fp.probability = mode.fault_probability;
    fp.skip_first = 10 + (seed / Modes().size()) % 40;
    for (std::string_view p : mode.fault_points) {
      c.faults.points.emplace_back(std::string(p), fp);
    }
    return c;
  }

  // Smaller than the tiny bib's working set: steady eviction write-backs
  // keep crash.page live and exercise WAL-before-data on every one.
  c.storage.buffer_pool_pages = 24;
  c.crash_enabled = true;
  c.max_retries = 2;
  std::string_view kill_point;
  uint64_t rounds = 0;  // seeds per full turn of the rotation
  if (injury == Injury::kCrash) {
    constexpr std::string_view kKillPoints[] = {fault_points::kCrashWal,
                                                fault_points::kCrashPage,
                                                fault_points::kCrashCommit};
    kill_point = kKillPoints[seed % 3];
    rounds = 3;
  } else {
    kill_point = PairKillPoint(seed);
    rounds = AllCrashPoints().size();
    // crash.apply seeds leave the primary's plan empty; RunFuzzSeed arms
    // the kill inside the follower's own injector instead.
    if (kill_point == fault_points::kCrashApply) return c;
  }
  c.faults.points.emplace_back(std::string(kill_point),
                               OneShotKill(3 + (seed / rounds) % 40));
  return c;
}

StatusOr<FuzzOutcome> RunFuzzSeed(Injury injury, uint64_t seed,
                                  const RunConfig& run) {
  FuzzOutcome out;
  Status st;
  switch (injury) {
    case Injury::kCrash:
      st = RunCrash(seed, run, &out);
      break;
    case Injury::kPair:
      st = RunPair(seed, run, &out);
      break;
    case Injury::kNet:
      st = RunNet(seed, run, &out).Annotate(NetMode(seed).name);
      break;
  }
  XTC_RETURN_IF_ERROR(st.Annotate(std::string(InjuryName(injury)) +
                                  " seed " + std::to_string(seed)));
  return out;
}

Status CheckFuzzContract(const RunConfig& run,
                         const std::vector<CommittedTx>& observed,
                         const std::vector<RecoveredCommit>& durable,
                         const std::string& who, const Document* doc) {
  XTC_ASSIGN_OR_RETURN(std::vector<CommittedTx> found,
                       DecodeCommitPayloads(durable));
  using Key = std::tuple<uint64_t, TxType, uint64_t>;
  auto keys = [](const std::vector<CommittedTx>& txs) {
    std::vector<Key> out;
    out.reserve(txs.size());
    for (const CommittedTx& c : txs) {
      out.emplace_back(c.seq, c.type, c.body_seed);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<Key> want = keys(observed);
  const std::vector<Key> got = keys(found);
  for (size_t i = 1; i < got.size(); ++i) {
    // A commit applied twice shows up as a repeated seq.
    if (std::get<0>(got[i]) == std::get<0>(got[i - 1])) {
      return Status::Internal(who + " holds commit seq " +
                              std::to_string(std::get<0>(got[i])) + " twice");
    }
  }
  if (got != want) {
    // Name the divergence precisely: a lost commit (a worker saw it,
    // the truth lacks it) or a phantom one (no worker saw it).
    std::vector<Key> lost, phantom;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(lost));
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(phantom));
    std::string msg = "commit-set mismatch:";
    if (!lost.empty()) {
      msg += " " + std::to_string(lost.size()) +
             " worker-observed commit(s) missing from " + who +
             " (first seq " + std::to_string(std::get<0>(lost[0])) + ")";
    }
    if (!phantom.empty()) {
      msg += " " + std::to_string(phantom.size()) + " commit(s) in " + who +
             " that no worker observed (first seq " +
             std::to_string(std::get<0>(phantom[0])) + ")";
    }
    return Status::Internal(msg);
  }
  if (doc == nullptr) return Status::OK();

  // Serializable run ⇒ commit order is a serialization order: loser
  // effects surviving, or committed effects lost, show up as a node diff.
  XTC_RETURN_IF_ERROR(CheckCommittedReplay(run, found, *doc)
                          .Annotate(who + " diverges from the replay"));
  XTC_RETURN_IF_ERROR(doc->Validate().Annotate(who + " fails its audit"));
  const size_t pinned = doc->buffer().PinnedFrames();
  if (pinned != 0) {
    return Status::Internal(who + " left " + std::to_string(pinned) +
                            " buffer frames pinned");
  }
  return Status::OK();
}

}  // namespace xtc
