// Closed-loop TaMix benchmark (README.md in this directory).
//
//   tamix_bench --workload c1-local|c1-wire|update-wal --seed N
//               --seconds S --trace 0|1 [--spans PATH]
//
// Pins itself to one CPU, builds the stack GenerateBib -> taDOM3+ ->
// LockManager -> TransactionManager -> NodeManager (+ net::Server on the
// wire, + Wal on update-wal) five times and reports the median set-up time,
// runs zero-think closed-loop transactions on the last stack for a
// one-second warm-up plus S measured seconds, stops (CancelWaiters,
// join), checks the correctness gate, and prints one JSON line last: the
// end-to-end metrics with --trace 0, the per-layer metrics of a run
// traced through the decorators of traced_layers.h with --trace 1. Exits
// 1 when the gate fails, 2 on bad arguments or a set-up error.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "net/client.h"
#include "net/server.h"
#include "node/node_manager.h"
#include "percentile.h"
#include "protocols/protocol_registry.h"
#include "tamix/bib_generator.h"
#include "tamix/invariants.h"
#include "tamix/transactions.h"
#include "trace.h"
#include "traced_layers.h"
#include "tx/transaction_manager.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace xtc::perfbench {
namespace {

constexpr IsolationLevel kIsolation = IsolationLevel::kRepeatable;
constexpr int kLockDepth = 7;
constexpr Duration kLockWaitTimeout = std::chrono::seconds(2);
constexpr Duration kWarmup = std::chrono::seconds(1);
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr uint64_t kCheckpointEveryCommits = 64;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string_view name;
  /// Relative draw weight per TxType (indexed by its enum value).
  std::array<uint32_t, kNumTxTypes> weights{};
  bool wire = false;
  bool wal = false;
  BibConfig bib;
  uint32_t pool_pages = 4096;
  /// Load threads; on the wire, one client connection each.
  int workers = 1;
};

std::array<uint32_t, kNumTxTypes> Weights(uint32_t query_book,
                                          uint32_t chapter,
                                          uint32_t lend_and_return,
                                          uint32_t rename_topic) {
  std::array<uint32_t, kNumTxTypes> w{};
  w[static_cast<size_t>(TxType::kQueryBook)] = query_book;
  w[static_cast<size_t>(TxType::kChapter)] = chapter;
  w[static_cast<size_t>(TxType::kLendAndReturn)] = lend_and_return;
  w[static_cast<size_t>(TxType::kRenameTopic)] = rename_topic;
  return w;
}

std::optional<Workload> FindWorkload(std::string_view name) {
  Workload w;
  w.name = name;
  if (name == "c1-local" || name == "c1-wire") {
    // CLUSTER1 (paper §4.1): TAqueryBook 9 : TAchapter 5 :
    // TArenameTopic 2 : TAlendAndReturn 8 on the paper-sized document,
    // which fits the default pool. One load thread (one connection on
    // the wire): the engine's cost per transaction.
    w.weights = Weights(9, 5, 8, 2);
    w.bib = BibConfig::Paper();
    if (name == "c1-wire") {
      w.wire = true;
    }
    return w;
  }
  if (name == "update-wal") {
    // Update-only mix on the small document over a 64-frame pool: the
    // data is about 3x the cache, so evictions wait for the log. Three
    // threads, so the small document produces lock waits and deadlocks.
    w.weights = Weights(0, 5, 8, 2);
    w.wal = true;
    w.workers = 3;
    w.bib = BibConfig::Bench();
    w.pool_pages = 64;
    return w;
  }
  return std::nullopt;
}

TxType DrawType(const std::array<uint32_t, kNumTxTypes>& weights, Rng& rng) {
  uint32_t total = 0;
  for (uint32_t w : weights) total += w;
  uint64_t pick = rng.Uniform(total);
  for (size_t t = 0; t < kNumTxTypes; ++t) {
    if (pick < weights[t]) return static_cast<TxType>(t);
    pick -= weights[t];
  }
  return TxType::kQueryBook;  // unreachable: pick < total
}

/// Commit-record payload {u32 TxType, u64 body seed}, the format the
/// coordinator and DecodeCommitPayloads use.
std::string CommitPayload(TxType type, uint64_t body_seed) {
  std::string payload(12, '\0');
  const uint32_t t = static_cast<uint32_t>(type);
  std::memcpy(payload.data(), &t, sizeof(t));
  std::memcpy(payload.data() + 4, &body_seed, sizeof(body_seed));
  return payload;
}

/// Confines the process to the first CPU it may use; threads created
/// afterwards inherit the mask. Threads then hand work to each other by
/// same-core context switches instead of waking idle CPUs, whose wake-up
/// latency on a shared virtual machine varies from run to run by more
/// than any bound a later change could be held to (README.md).
Status PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::Internal("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      return Status::Internal("sched_setaffinity failed");
    }
    return Status::OK();
  }
  return Status::Internal("no CPU in the affinity mask");
}

// ---------------------------------------------------------------------------
// The stack under test

struct Stack {
  std::unique_ptr<Wal> wal;  // outlives doc: write-backs consult it
  std::unique_ptr<Document> doc;
  BibInfo info;
  std::unique_ptr<XmlProtocol> protocol;
  std::unique_ptr<LockManager> locks;
  std::unique_ptr<TransactionManager> txm;
  std::unique_ptr<NodeManager> nm;
  std::unique_ptr<net::Server> server;  // last: destroyed (stopped) first
};

StatusOr<std::unique_ptr<Stack>> BuildStack(const Workload& w,
                                            Tracer* tracer) {
  auto s = std::make_unique<Stack>();
  StorageOptions storage;
  storage.buffer_pool_pages = w.pool_pages;
  s->doc = std::make_unique<Document>(storage);
  XTC_ASSIGN_OR_RETURN(s->info, GenerateBib(s->doc.get(), w.bib));
  if (w.wal) {
    // As in the coordinator: the generated document rides the base
    // checkpoint, not the log.
    s->wal = std::make_unique<Wal>();
    s->doc->AttachWal(s->wal.get());
    XTC_RETURN_IF_ERROR(s->doc->buffer().FlushAll());
    XTC_RETURN_IF_ERROR(s->doc->LogCheckpoint());
  }
  LockTableOptions lock_options;
  lock_options.wait_timeout = kLockWaitTimeout;
  std::unique_ptr<XmlProtocol> bare = CreateProtocol("taDOM3+", lock_options);
  if (bare == nullptr) return Status::Internal("taDOM3+ not registered");
  if (tracer != nullptr) {
    s->protocol = std::make_unique<TracedProtocol>(std::move(bare), tracer);
  } else {
    s->protocol = std::move(bare);
  }
  s->locks = std::make_unique<LockManager>(s->protocol.get());
  s->txm = std::make_unique<TransactionManager>(s->locks.get(), nullptr,
                                                s->wal.get());
  s->nm = std::make_unique<NodeManager>(s->doc.get(), s->locks.get());
  if (w.wire) {
    net::ServerOptions options;
    // One server worker per connection, as in the coordinator.
    options.num_workers = w.workers;
    options.max_sessions = static_cast<size_t>(w.workers) + 4;
    options.max_in_flight_tx = static_cast<size_t>(w.workers) + 4;
    options.drain_timeout = std::chrono::seconds(2);
    s->server = std::make_unique<net::Server>(
        net::Server::Deps{s->nm.get(), s->txm.get(), &s->protocol->table(),
                          &s->info, s->wal.get()},
        options);
    XTC_RETURN_IF_ERROR(s->server->Start());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Sessions: one transaction at a time, in-process or over the wire

class LocalSession {
 public:
  LocalSession(Stack* stack, Tracer* tracer)
      : stack_(stack), tracer_(tracer) {}

  Status Begin(TxType /*type*/) {
    Span span(tracer_, SpanKind::kTxBegin);
    tx_ = stack_->txm->Begin(kIsolation, kLockDepth);
    span.set_tx(tx_->id());
    local_.emplace(stack_->nm.get(), tx_.get());
    traced_.emplace(&*local_, tracer_, SpanKind::kNodeOp, tx_->id());
    return Status::OK();
  }
  uint64_t tx_id() const { return tx_->id(); }
  TaMixDom& dom() {
    return tracer_ != nullptr ? static_cast<TaMixDom&>(*traced_) : *local_;
  }
  StatusOr<uint64_t> Commit(std::string_view payload) {
    Span span(tracer_, SpanKind::kTxCommit, tx_->id());
    XTC_RETURN_IF_ERROR(stack_->txm->Commit(*tx_, payload));
    return tx_->commit_seq();
  }
  Status Abort() {
    Span span(tracer_, SpanKind::kTxAbort, tx_->id());
    return stack_->txm->Abort(*tx_);
  }

 private:
  Stack* stack_;
  Tracer* tracer_;
  std::unique_ptr<Transaction> tx_;
  std::optional<LocalDom> local_;
  std::optional<TracedDom> traced_;
};

class WireSession {
 public:
  WireSession(uint16_t port, Tracer* tracer)
      : port_(port), tracer_(tracer), remote_(&client_) {}

  Status Connect() { return client_.Connect("127.0.0.1", port_); }

  Status Begin(TxType type) {
    Span span(tracer_, SpanKind::kNetBegin);
    XTC_ASSIGN_OR_RETURN(tx_id_, client_.Begin(kIsolation, kLockDepth, type));
    span.set_tx(tx_id_);
    traced_.emplace(&remote_, tracer_, SpanKind::kNetRtt, tx_id_);
    return Status::OK();
  }
  uint64_t tx_id() const { return tx_id_; }
  TaMixDom& dom() {
    return tracer_ != nullptr ? static_cast<TaMixDom&>(*traced_) : remote_;
  }
  StatusOr<uint64_t> Commit(std::string_view payload) {
    Span span(tracer_, SpanKind::kNetCommit, tx_id_);
    return client_.Commit(payload);
  }
  Status Abort() {
    Span span(tracer_, SpanKind::kNetAbort, tx_id_);
    return client_.Abort();
  }

 private:
  uint16_t port_;
  Tracer* tracer_;
  net::Client client_;
  net::RemoteDom remote_;
  uint64_t tx_id_ = 0;
  std::optional<TracedDom> traced_;
};

// ---------------------------------------------------------------------------
// Closed-loop worker

struct Window {
  TimePoint start;
  TimePoint end;
};

/// One commit acknowledged inside the measured window.
struct CommitSample {
  double end_s;       // since the window start
  double latency_ms;  // begin to commit ack; < 0 when begun before the window
  TxType type;
};

struct WorkerResult {
  uint64_t items = 0;     // transactions drawn
  uint64_t attempts = 0;  // begin calls, retries included
  uint64_t aborts = 0;    // attempts refused or aborted as deadlock/timeout
  uint64_t deadlock_aborts = 0;
  uint64_t acked = 0;     // commit acknowledgements, in the window or not
  std::vector<CommitSample> commits;  // inside the window
  std::vector<uint64_t> acked_seqs;   // WAL runs: every acknowledged commit
  Status error;                       // first non-workload failure
};

template <typename Session>
void RunWorker(Session& session, const Workload& w, const BibInfo& info,
               uint64_t seed, int index, Window window, bool wal,
               Tracer* tracer, WorkerResult* out) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1);
  TaMixBodyRunner bodies(&info, Duration::zero());
  while (Now() < window.end) {
    // The type is drawn per transaction, so every thread runs the whole
    // mix; a retried transaction keeps its type and body seed.
    const TxType type = DrawType(w.weights, rng);
    const uint64_t body_seed = rng.Next();
    out->items++;
    for (bool done = false; !done;) {
      out->attempts++;
      const TimePoint start = Now();
      Span txn(tracer, SpanKind::kTxn);
      Status st = session.Begin(type);
      if (st.code() == StatusCode::kResourceExhausted) {
        out->aborts++;  // admission refusal: offer the transaction again
        continue;
      }
      if (!st.ok()) {
        out->error = st.Annotate("begin");
        return;
      }
      txn.set_tx(session.tx_id());
      Rng body_rng(body_seed);
      st = bodies.RunBody(type, session.dom(), body_rng);
      if (st.ok()) {
        StatusOr<uint64_t> seq =
            session.Commit(wal ? CommitPayload(type, body_seed) : "");
        if (!seq.ok()) {
          out->error = seq.status().Annotate("commit");
          return;
        }
        const TimePoint end = Now();
        out->acked++;
        if (wal) out->acked_seqs.push_back(*seq);
        if (end >= window.start && end <= window.end) {
          auto seconds = [](Duration d) {
            return std::chrono::duration<double>(d).count();
          };
          out->commits.push_back(
              {seconds(end - window.start),
               start >= window.start ? seconds(end - start) * 1e3 : -1.0,
               type});
        }
        done = true;
        continue;
      }
      if (Status abort = session.Abort(); !abort.ok()) {
        out->error = abort.Annotate("abort");
        return;
      }
      // kCancelled comes only from the stop-time CancelWaiters.
      if (st.IsCancelled()) return;
      if (st.code() != StatusCode::kDeadlock &&
          st.code() != StatusCode::kLockTimeout) {
        out->error = st.Annotate(TxTypeName(type));
        return;
      }
      out->aborts++;
      if (st.IsDeadlock()) out->deadlock_aborts++;
      if (Now() >= window.end) return;  // do not retry past the run
    }
  }
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PerUnit(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

// ---------------------------------------------------------------------------
// One run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0) return std::nullopt;
  return a;
}

/// Counters sampled at both ends of the measured window.
struct Counters {
  LockTableStats lock;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  BufferPoolStats buffer_io;
  WalStats wal;
  net::ServerStats server;
};

Counters Sample(Stack& s) {
  Counters c;
  c.lock = s.protocol->table().GetStats();
  c.buffer_hits = s.doc->buffer().hits();
  c.buffer_misses = s.doc->buffer().misses();
  c.buffer_io = s.doc->buffer().io_stats();
  if (s.wal != nullptr) c.wal = s.wal->stats();
  if (s.server != nullptr) c.server = s.server->stats();
  return c;
}

class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
      passed_ = false;
    }
  }
  bool passed() const { return passed_; }

 private:
  bool passed_ = true;
};

int Run(const Args& args) {
  const std::optional<Workload> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  if (Status st = PinToOneCpu(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::unique_ptr<Tracer> tracer_owner;
  if (args.trace) tracer_owner = std::make_unique<Tracer>();
  Tracer* tracer = tracer_owner.get();

  // Set-up, several times; the last stack is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const TimePoint t0 = Now();
    StatusOr<std::unique_ptr<Stack>> built = BuildStack(w, tracer);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    setup_s.push_back(std::chrono::duration<double>(Now() - t0).count());
    stack = std::move(*built);
  }

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::min(w.workers, std::max(hw, 1));
  std::vector<WorkerResult> results(static_cast<size_t>(workers));
  std::vector<std::unique_ptr<WireSession>> wire_sessions;
  if (w.wire) {
    for (int i = 0; i < workers; ++i) {
      wire_sessions.push_back(
          std::make_unique<WireSession>(stack->server->port(), tracer));
      if (Status st = wire_sessions.back()->Connect(); !st.ok()) {
        std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
        return 2;
      }
    }
  }

  const Duration measured = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(args.seconds));
  const TimePoint t_start = Now();
  const Window window{t_start + kWarmup, t_start + kWarmup + measured};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < workers; ++i) {
    WorkerResult* out = &results[static_cast<size_t>(i)];
    if (w.wire) {
      threads.emplace_back([&, i, out] {
        RunWorker(*wire_sessions[static_cast<size_t>(i)], w, stack->info,
                  args.seed, i, window, false, tracer, out);
      });
    } else {
      threads.emplace_back([&, i, out] {
        LocalSession session(stack.get(), tracer);
        RunWorker(session, w, stack->info, args.seed, i, window, w.wal,
                  tracer, out);
      });
    }
  }
  // Background fuzzy checkpointer, as in the coordinator.
  Status checkpoint_error;
  std::thread checkpointer;
  if (w.wal) {
    checkpointer = std::thread([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t committed = stack->txm->num_committed();
        if (committed - last >= kCheckpointEveryCommits) {
          Span span(tracer, SpanKind::kCheckpoint);
          Status st = stack->doc->buffer().FlushAll();
          if (st.ok()) st = stack->doc->LogCheckpoint();
          if (!st.ok() && checkpoint_error.ok()) checkpoint_error = st;
          last = committed;
        }
        SleepFor(Millis(2));
      }
    });
  }

  std::this_thread::sleep_until(window.start);
  if (tracer != nullptr) tracer->SetRecording(true);
  const Counters before = Sample(*stack);
  std::this_thread::sleep_until(window.end);
  if (tracer != nullptr) tracer->SetRecording(false);
  const Counters after = Sample(*stack);
  // Stop: wake every parked waiter, then join.
  stack->protocol->table().CancelWaiters();
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  if (checkpointer.joinable()) checkpointer.join();
  wire_sessions.clear();  // disconnect before the drain
  if (stack->server != nullptr) stack->server->Stop();

  // ---- merge worker results
  WorkerResult all;
  for (WorkerResult& r : results) {
    all.items += r.items;
    all.attempts += r.attempts;
    all.aborts += r.aborts;
    all.deadlock_aborts += r.deadlock_aborts;
    all.acked += r.acked;
    all.commits.insert(all.commits.end(), r.commits.begin(), r.commits.end());
    all.acked_seqs.insert(all.acked_seqs.end(), r.acked_seqs.begin(),
                          r.acked_seqs.end());
  }
  const double seconds = std::chrono::duration<double>(measured).count();
  const uint64_t window_commits = all.commits.size();
  std::array<uint64_t, kNumTxTypes> type_commits{};
  std::vector<double> latency;
  std::array<std::vector<double>, kNumTxTypes> type_latency;
  for (const CommitSample& c : all.commits) {
    const auto t = static_cast<size_t>(c.type);
    type_commits[t]++;
    if (c.latency_ms >= 0) {
      latency.push_back(c.latency_ms);
      type_latency[t].push_back(c.latency_ms);
    }
  }
  // Commit rate of each whole second of the window. Their median is the
  // throughput: a second the host stalled the process moves it less than
  // it moves the window's mean.
  const double bin_s = std::min(seconds, 1.0);
  std::vector<double> per_second(static_cast<size_t>(seconds / bin_s), 0);
  for (const CommitSample& c : all.commits) {
    const auto bin = static_cast<size_t>(c.end_s / bin_s);
    if (bin < per_second.size()) per_second[bin] += 1 / bin_s;
  }

  // ---- correctness gate (after stop and join)
  Gate gate;
  uint64_t failed = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].error.ok()) failed++;
    gate.Check(results[i].error.ok(),
               "worker " + std::to_string(i) + ": " +
                   results[i].error.ToString());
  }
  gate.Check(checkpoint_error.ok(),
             "checkpoint: " + checkpoint_error.ToString());
  gate.Check(window_commits > 0, "no commit inside the measured window");
  const LockTable& table = stack->protocol->table();
  gate.Check(table.NumLockedResources() == 0,
             std::to_string(table.NumLockedResources()) +
                 " resources still locked");
  gate.Check(table.NumWaitingTransactions() == 0,
             std::to_string(table.NumWaitingTransactions()) +
                 " transactions still waiting");
  gate.Check(stack->doc->buffer().PinnedFrames() == 0,
             std::to_string(stack->doc->buffer().PinnedFrames()) +
                 " buffer frames still pinned");
  gate.Check(stack->doc->buffer().FramesInIo() == 0,
             "buffer frames stuck mid-I/O");
  gate.Check(stack->txm->num_active() == 0,
             std::to_string(stack->txm->num_active()) +
                 " transactions still active");
  const uint64_t engine_commits = w.wire ? stack->server->stats().tx_committed
                                         : stack->txm->num_committed();
  gate.Check(all.acked == engine_commits,
             "load threads saw " + std::to_string(all.acked) +
                 " commits, engine counted " + std::to_string(engine_commits));
  const uint64_t protocol_errors =
      w.wire ? stack->server->stats().protocol_errors : 0;
  gate.Check(protocol_errors == 0,
             std::to_string(protocol_errors) + " wire protocol errors");
  // Mix drift: each type's committed share within five binomial standard
  // deviations (plus half a point) of its weight.
  uint32_t total_weight = 0;
  for (uint32_t x : w.weights) total_weight += x;
  for (size_t t = 0; t < kNumTxTypes && window_commits > 0; ++t) {
    const double expected = static_cast<double>(w.weights[t]) / total_weight;
    const double n = static_cast<double>(window_commits);
    const double share = static_cast<double>(type_commits[t]) / n;
    const double tolerance =
        5 * std::sqrt(expected * (1 - expected) / n) + 0.005;
    char what[160];
    std::snprintf(what, sizeof(what),
                  "%s committed share %.4f, weight share %.4f (tolerance "
                  "%.4f)",
                  std::string(TxTypeName(static_cast<TxType>(t))).c_str(),
                  share, expected, tolerance);
    gate.Check(std::abs(share - expected) <= tolerance, what);
  }

  // ---- restart from the durable images (WAL workload)
  double restart_s = 0;
  RecoveryStats recovery;
  if (w.wal) {
    StatusOr<uint64_t> live = DocumentFingerprint(*stack->doc);
    gate.Check(live.ok(), "live fingerprint: " + live.status().ToString());
    PageFileImage disk = stack->doc->page_file().CloneImage();
    std::string log = stack->wal->DurableImage();
    stack.reset();  // the live instance is gone, as after a crash
    StorageOptions storage;
    storage.buffer_pool_pages = w.pool_pages;
    if (tracer != nullptr) tracer->SetRecording(true);
    const TimePoint t0 = Now();
    StatusOr<OpenResult> opened = [&] {
      Span span(tracer, SpanKind::kRestart);
      return OpenDatabase(storage, WalOptions{}, disk, log);
    }();
    restart_s = std::chrono::duration<double>(Now() - t0).count();
    if (tracer != nullptr) tracer->SetRecording(false);
    gate.Check(opened.ok(), "restart: " + opened.status().ToString());
    if (opened.ok()) {
      recovery = opened->stats;
      std::vector<uint64_t> recovered;
      for (const RecoveredCommit& c : opened->committed) {
        recovered.push_back(c.seq);
      }
      std::sort(recovered.begin(), recovered.end());
      std::sort(all.acked_seqs.begin(), all.acked_seqs.end());
      gate.Check(recovered == all.acked_seqs,
                 "recovered " + std::to_string(recovered.size()) +
                     " commits, acknowledged " +
                     std::to_string(all.acked_seqs.size()));
      StatusOr<uint64_t> restored = DocumentFingerprint(*opened->doc);
      gate.Check(restored.ok() && live.ok() && *restored == *live,
                 "recovered document differs from the live one");
    }
  }

  // ---- report
  std::vector<double>& query_book =
      type_latency[static_cast<size_t>(TxType::kQueryBook)];
  std::vector<double>& lend =
      type_latency[static_cast<size_t>(TxType::kLendAndReturn)];
  const double abort_ratio = PerUnit(static_cast<double>(all.aborts),
                                     static_cast<double>(all.attempts));
  std::printf("# %s seed=%llu seconds=%g workers=%d trace=%d\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(args.seed), seconds, workers,
              args.trace ? 1 : 0);
  std::printf("# window commits=%llu latency samples=%zu querybook "
              "samples=%zu lend samples=%zu aborts=%llu/%llu attempts "
              "(deadlocks %llu) restart_s=%.3f\n",
              static_cast<unsigned long long>(window_commits), latency.size(),
              query_book.size(), lend.size(),
              static_cast<unsigned long long>(all.aborts),
              static_cast<unsigned long long>(all.attempts),
              static_cast<unsigned long long>(all.deadlock_aborts), restart_s);
  std::printf("# p50 ms per type:");
  for (size_t t = 0; t < kNumTxTypes; ++t) {
    if (type_latency[t].empty()) continue;
    std::vector<double> v = type_latency[t];
    std::printf(" %s=%.3f",
                std::string(TxTypeName(static_cast<TxType>(t))).c_str(),
                Percentile(v, 0.5));
  }
  std::printf("\n");
  std::printf("# commits per second:");
  for (double rate : per_second) std::printf(" %.0f", rate);
  std::printf("\n");

  std::vector<Metric> metrics;
  const double commits = static_cast<double>(window_commits);
  if (!args.trace) {
    metrics.push_back({"commits_per_s", Percentile(per_second, 0.50), "1/s"});
    metrics.push_back({"latency_p95_ms", Percentile(latency, 0.95), "ms"});
    metrics.push_back({"commit_ratio", 1 - abort_ratio, "ratio"});
    metrics.push_back({"setup_s", Percentile(setup_s, 0.50), "s"});
  } else {
    const std::array<SpanTotals, kNumSpanKinds> spans = tracer->Aggregate();
    auto span = [&](SpanKind k) -> const SpanTotals& {
      return spans[static_cast<size_t>(k)];
    };
    auto p99 = [&](SpanKind k) {
      std::vector<double> d = span(k).durations_us;
      return Percentile(d, 0.99);
    };
    const SpanTotals& txn = span(SpanKind::kTxn);
    metrics.push_back({"unattributed_share", PerUnit(txn.self_us, txn.total_us),
                       "ratio"});
    metrics.push_back({"txn.latency_p50_ms", Percentile(latency, 0.50), "ms"});
    metrics.push_back({"txn.latency_p99_ms", Percentile(latency, 0.99), "ms"});
    metrics.push_back(
        {"txn.querybook_p50_ms", Percentile(query_book, 0.50), "ms"});
    metrics.push_back({"txn.lend_p50_ms", Percentile(lend, 0.50), "ms"});
    metrics.push_back({"txn.abort_ratio", abort_ratio, "ratio"});
    // net
    const double round_trips = static_cast<double>(
        span(SpanKind::kNetRtt).count + span(SpanKind::kNetBegin).count +
        span(SpanKind::kNetCommit).count + span(SpanKind::kNetAbort).count);
    metrics.push_back({"net.rtt_us", span(SpanKind::kNetRtt).mean_us(), "us"});
    metrics.push_back({"net.rtt_p99_us", p99(SpanKind::kNetRtt), "us"});
    metrics.push_back({"net.round_trips_per_commit",
                       PerUnit(round_trips, commits), "1/commit"});
    metrics.push_back(
        {"net.begin_us", span(SpanKind::kNetBegin).mean_us(), "us"});
    metrics.push_back(
        {"net.commit_us", span(SpanKind::kNetCommit).mean_us(), "us"});
    metrics.push_back({"net.admission_rejected",
                       static_cast<double>(after.server.admission_rejected -
                                           before.server.admission_rejected),
                       "count"});
    metrics.push_back({"net.protocol_errors",
                       static_cast<double>(protocol_errors), "count"});
    // node
    const SpanTotals& node = span(SpanKind::kNodeOp);
    metrics.push_back({"node.op_us", node.mean_us(), "us"});
    metrics.push_back({"node.op_p99_us", p99(SpanKind::kNodeOp), "us"});
    metrics.push_back(
        {"node.self_us", PerUnit(node.self_us, node.count), "us"});
    metrics.push_back({"node.ops_per_commit",
                       PerUnit(node.count, commits), "1/commit"});
    // lock
    const SpanTotals& lock_call = span(SpanKind::kLockCall);
    const double requests =
        static_cast<double>(after.lock.requests - before.lock.requests);
    metrics.push_back({"lock.call_us", lock_call.mean_us(), "us"});
    metrics.push_back({"lock.calls_per_commit",
                       PerUnit(lock_call.count, commits), "1/commit"});
    metrics.push_back(
        {"lock.requests_per_commit", PerUnit(requests, commits), "1/commit"});
    metrics.push_back(
        {"lock.conversions_per_commit",
         PerUnit(after.lock.conversions - before.lock.conversions, commits),
         "1/commit"});
    metrics.push_back(
        {"lock.cache_hit_ratio",
         PerUnit(after.lock.cache_hits - before.lock.cache_hits, requests),
         "ratio"});
    metrics.push_back({"lock.release_all_us",
                       span(SpanKind::kLockReleaseAll).mean_us(), "us"});
    metrics.push_back(
        {"lock.waits_per_1k_commits",
         PerUnit(1000.0 * (after.lock.waits - before.lock.waits), commits),
         "1/1k_commits"});
    metrics.push_back({"lock.deadlocks_per_1k_commits",
                       PerUnit(1000.0 * (after.lock.deadlocks -
                                         before.lock.deadlocks),
                               commits),
                       "1/1k_commits"});
    metrics.push_back(
        {"lock.timeouts",
         static_cast<double>(after.lock.timeouts - before.lock.timeouts),
         "count"});
    // storage
    const double hits =
        static_cast<double>(after.buffer_hits - before.buffer_hits);
    const double misses =
        static_cast<double>(after.buffer_misses - before.buffer_misses);
    metrics.push_back({"buffer.fixes_per_commit",
                       PerUnit(hits + misses, commits), "1/commit"});
    metrics.push_back(
        {"buffer.miss_ratio", PerUnit(misses, hits + misses), "ratio"});
    metrics.push_back(
        {"buffer.writebacks_per_commit",
         PerUnit(after.buffer_io.eviction_writebacks -
                     before.buffer_io.eviction_writebacks,
                 commits),
         "1/commit"});
    metrics.push_back({"buffer.coalesced_fetches",
                       static_cast<double>(after.buffer_io.coalesced_fetches -
                                           before.buffer_io.coalesced_fetches),
                       "count"});
    // tx
    metrics.push_back(
        {"tx.commit_us", span(SpanKind::kTxCommit).mean_us(), "us"});
    metrics.push_back({"tx.commit_p99_us", p99(SpanKind::kTxCommit), "us"});
    metrics.push_back(
        {"tx.abort_us", span(SpanKind::kTxAbort).mean_us(), "us"});
    // wal
    const double log_bytes = static_cast<double>(after.wal.bytes_appended -
                                                 before.wal.bytes_appended);
    metrics.push_back(
        {"wal.records_per_commit",
         PerUnit(after.wal.records_appended - before.wal.records_appended,
                 commits),
         "1/commit"});
    metrics.push_back(
        {"wal.syncs_per_commit",
         PerUnit(after.wal.syncs - before.wal.syncs, commits), "1/commit"});
    metrics.push_back({"wal.checkpoint_ms",
                       span(SpanKind::kCheckpoint).mean_us() / 1e3, "ms"});
    metrics.push_back({"wal.checkpoints",
                       static_cast<double>(after.wal.checkpoints_taken -
                                           before.wal.checkpoints_taken),
                       "count"});
    metrics.push_back({"wal.log_mb", log_bytes / 1e6, "MB"});
    metrics.push_back({"wal.log_bytes_per_commit", PerUnit(log_bytes, commits),
                       "B/commit"});
    // recovery
    metrics.push_back({"recovery.restart_s",
                       span(SpanKind::kRestart).total_us / 1e6, "s"});
    metrics.push_back({"recovery.records_scanned",
                       static_cast<double>(recovery.records_scanned), "count"});
    metrics.push_back({"recovery.records_redone",
                       static_cast<double>(recovery.records_redone), "count"});
    if (!args.spans_path.empty()) {
      if (Status st = tracer->WriteSpans(args.spans_path); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(gate.passed(), std::max<uint64_t>(all.items, 1), failed,
              metrics);
  return gate.passed() ? 0 : 1;
}

}  // namespace
}  // namespace xtc::perfbench

int main(int argc, char** argv) {
  const std::optional<xtc::perfbench::Args> args =
      xtc::perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload c1-local|c1-wire|update-wal --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  return xtc::perfbench::Run(*args);
}
