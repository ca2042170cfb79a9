// Socket front-end of the XDBMS (DESIGN.md §8): a bounded worker pool
// that waits on the client sockets through epoll and multiplexes them
// onto the existing TransactionManager/LockManager/Document stack. The
// paper ran TaMix from remote client machines against the XTC server;
// this is that boundary, over loopback or a real NIC.
//
// Threading model
//   * Workers wait on the session sockets themselves: every session fd
//     sits in the workers' epoll set as EPOLLIN | EPOLLONESHOT, so a
//     readable socket wakes exactly one worker, which then owns the
//     session (busy flag). The owner makes one read, runs the complete
//     frames it holds in order, writes each response itself, and re-arms
//     the fd. A round trip is client -> worker -> client; no frame ever
//     waits in a user-space queue, and no worker stays tied to a session
//     between frames (think time costs no worker).
//   * One event-loop thread owns the listener, closes retired fds, reaps
//     idle sessions and expires leases. It never executes a request and
//     never blocks on a lock, so accept latency is independent of
//     workload contention.
//
// Admission control
//   * max_sessions: connections beyond it are accepted and immediately
//     closed (the cheapest honest signal).
//   * max_in_flight_tx: kBegin beyond it is answered kResourceExhausted
//     — the client backs off; nothing queues.
//   * A read delivering more than 64 complete frames is pipelining past
//     the protocol; the session is answered and closed.
//
// Shutdown
//   * Closing a session aborts its transaction and releases its locks.
//     A server-side close (idle reap, drain, a resume taking over the
//     token) first cancels a lock wait in progress (LockTable::CancelTx
//     wakes it with kCancelled). A peer disconnect is noticed on the
//     owner's next wake-up for the socket; frames that arrived before an
//     orderly EOF still execute first.
//   * Drain()/Stop(): stop accepting, give in-flight transactions
//     drain_timeout to finish, cancel + abort the stragglers, flush the
//     WAL, join all threads. Never leaves a transaction active.
//
// Session leases (session_lease > 0)
//   * Disconnect no longer aborts immediately: the session's resumable
//     state (its SessionCore — token, open transaction, recorded request
//     outcomes) is parked for up to session_lease. A client that
//     reconnects and presents the token (kResume) adopts the core and
//     continues the transaction; a lease that expires falls through to
//     the ordinary abort path. CancelTx is sticky until ReleaseAll, so
//     with leases on, disconnect does NOT cancel the transaction's lock
//     waits — an in-flight operation finishes on its own and the owning
//     worker parks the session afterwards. Drain/Stop still cancel.
//   * Exactly-once commits: each session records the full response
//     payload of its recent transaction-scoped requests in a bounded
//     ring *before* the response bytes are written. A retried request_id
//     (the client resent after a torn response) is answered from the
//     table without re-executing — a commit is never applied twice.

#ifndef XTC_NET_SERVER_H_
#define XTC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/net_stats.h"
#include "net/wire.h"
#include "node/node_manager.h"
#include "tamix/bib_generator.h"
#include "tamix/metrics.h"
#include "tx/transaction_manager.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/mutex.h"
#include "util/relaxed_stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/wal.h"

namespace xtc {
namespace net {

struct ServerOptions {
  /// 0 = kernel-assigned ephemeral port (read back via port()).
  uint16_t port = 0;
  int num_workers = 4;
  size_t max_sessions = 256;
  size_t max_in_flight_tx = 64;
  Duration idle_timeout = std::chrono::seconds(60);
  Duration drain_timeout = std::chrono::seconds(5);
  /// How long a disconnected session's state (open transaction, recorded
  /// request outcomes) survives awaiting a kResume. Zero = disconnect
  /// aborts immediately (the pre-lease behavior).
  Duration session_lease = Duration::zero();
};

/// Recent response payloads remembered per session for retried
/// request_ids (exactly-once commit resolution). A synchronous client
/// only ever retries its newest request, so a handful of entries is
/// plenty.
inline constexpr size_t kOutcomeTableEntries = 8;

class Server {
 public:
  /// Borrowed engine handles; all must outlive the server. `wal` may be
  /// null (drain then skips the flush), `info` feeds kWorkloadInfo.
  struct Deps {
    NodeManager* nm = nullptr;
    TransactionManager* txm = nullptr;
    LockTable* table = nullptr;
    const BibInfo* info = nullptr;
    Wal* wal = nullptr;
    /// Optional: evaluated at the net.* fault points (chaos runs).
    FaultInjector* faults = nullptr;
  };

  Server(Deps deps, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, starts the event loop and workers.
  Status Start();
  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, let in-flight transactions finish
  /// for up to drain_timeout, cancel + abort stragglers, flush the WAL.
  /// Idempotent; Stop() implies it.
  void Drain();
  /// Drain, then shut all threads down and close every socket.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  ServerStats stats() const;
  /// What the kStats request answers: CollectRunMetrics over the
  /// server's own per-type, lock, WAL and server counters.
  MetricSet Metrics() const;

 private:
  struct Frame {
    uint8_t type = 0;
    uint32_t request_id = 0;
    /// Points into the owning worker's Session::rbuf.
    std::string_view payload;
    /// Set on framing/decode errors: answer with this status, then
    /// disconnect.
    Status reject;
  };

  /// One recorded response (exactly-once retry resolution).
  struct OutcomeEntry {
    uint32_t request_id = 0;
    uint8_t type = 0;
    std::string payload;  // the full response payload, status included
  };

  /// The resumable half of a session: everything that survives the TCP
  /// connection under a lease. Touched only by the worker that owns the
  /// session (the busy flag serializes workers) or,
  /// once parked, by whoever removed it from parked_ — never both.
  struct SessionCore {
    /// Resume token handed out in the kHello response; 0 = none issued.
    uint64_t token_id = 0;
    uint64_t token_secret = 0;
    std::unique_ptr<Transaction> tx;
    TxType tx_type = TxType::kQueryBook;
    TimePoint tx_begin;
    Status last_error;  // last failed op (classifies the abort)
    /// Ring of recent response payloads, newest at the back.
    std::deque<OutcomeEntry> outcomes;
  };

  struct Session {
    int fd = -1;
    /// Epoll key: unlike the fd number it is never reused.
    uint64_t id = 0;
    std::string rbuf;  // unparsed inbound bytes (owning worker only)
    /// Written by the owning worker, read by the idle reaper.
    std::atomic<TimePoint> last_activity;
    Mutex mu;
    /// A worker owns the session: it got the ONESHOT event and has not
    /// re-armed the fd yet.
    bool busy XTC_GUARDED_BY(mu) = false;
    bool closing XTC_GUARDED_BY(mu) = false;
    /// Resumable state; owned like rbuf (worker-only), so unguarded.
    std::unique_ptr<SessionCore> core = std::make_unique<SessionCore>();
    /// Mirror of core->tx->id() for BeginClose's CancelTx from other
    /// threads (only consulted when leases are off or draining).
    std::atomic<uint64_t> tx_id{0};
  };
  using SessionPtr = std::shared_ptr<Session>;

  /// A SessionCore waiting out its lease between disconnect and resume.
  struct ParkedCore {
    std::unique_ptr<SessionCore> core;
    TimePoint expiry;
  };

  void EventLoop();
  void WorkerLoop();

  void AcceptPending();
  /// Owner's turn on a readable session: one read, then every complete
  /// frame in order, then re-arm (or tear down). `events` are the epoll
  /// bits that woke the worker.
  void ServeSession(const SessionPtr& s, uint32_t events);
  /// One read into rbuf, then the complete frames it holds (payloads point
  /// into rbuf; *consumed is their byte length). Returns false when the
  /// session must be torn down without executing anything.
  bool ReadFrames(const SessionPtr& s, std::vector<Frame>* batch,
                  size_t* consumed, bool* eof);
  /// Marks the session closing, cancels its transaction's lock waits, and
  /// tears it down right away unless a worker owns it (then that worker
  /// finishes and tears it down).
  void BeginClose(const SessionPtr& s);
  void Teardown(const SessionPtr& s);
  void ReapIdle();

  /// Executes one frame and sends the response. Returns false when the
  /// session must close (protocol error frames).
  bool Process(const SessionPtr& s, const Frame& frame);
  std::string HandleRequest(const SessionPtr& s, const Frame& frame,
                            bool* close_after);
  // Request handlers (payload already CRC-checked). An empty return means
  // the request payload was malformed (HandleRequest turns that into an
  // error response + disconnect).
  std::string HandleBegin(const SessionPtr& s, WireReader& r);
  std::string HandleCommit(const SessionPtr& s, WireReader& r);
  std::string HandleAbort(const SessionPtr& s);
  std::string HandleResume(const SessionPtr& s, WireReader& r);
  std::string HandleDomOp(const SessionPtr& s, const Frame& frame,
                          WireReader& r);
  std::string HandleStats();
  std::string HandleWorkloadInfo();

  /// Whether frames of this type participate in the outcome table.
  static bool IsTxScoped(uint8_t type) {
    return type >= static_cast<uint8_t>(MsgType::kBegin) &&
           type <= static_cast<uint8_t>(MsgType::kRename);
  }
  bool DedupLookup(const SessionCore& core, uint32_t request_id, uint8_t type,
                   std::string* payload) const;
  void DedupRecord(SessionCore* core, uint32_t request_id, uint8_t type,
                   const std::string& payload);

  /// Whether a disconnected session keeps its state for a resume.
  bool LeasesActive() const {
    return options_.session_lease > Duration::zero() &&
           !draining_.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire);
  }
  /// Teardown half: parks the core under an active lease (state worth
  /// keeping), otherwise aborts the transaction.
  void ParkOrAbort(Session* s);
  /// Removes + returns the parked core for the token, nullptr otherwise.
  /// *mismatch distinguishes "wrong secret" from "not parked".
  std::unique_ptr<SessionCore> TakeParked(uint64_t token_id, uint64_t secret,
                                          bool* mismatch);
  /// Event-loop tick: aborts parked cores whose lease ran out.
  void ExpireLeases();
  /// Drain/Stop: aborts every parked core immediately.
  void AbortAllParked();

  /// Aborts a core's transaction (if any) and records the abort.
  void AbortCore(SessionCore* core);
  /// AbortCore + clears the session's tx_id mirror.
  void AbortSessionTx(Session* s);
  bool SendAll(const SessionPtr& s, std::string_view bytes);
  /// Nudges the event loop out of epoll_wait (via the eventfd).
  void WakeLoop();
  /// Closes fds retired by Teardown (event loop / post-join only; see the
  /// comment in Teardown for why workers never close fds themselves).
  void CloseDeadFds();

  Deps deps_;
  ServerOptions options_;
  MetricsCollector metrics_;

  int listen_fd_ = -1;
  int event_fd_ = -1;
  int epoll_fd_ = -1;  // event loop: listener + event_fd_
  /// Workers: every session fd (EPOLLIN | EPOLLONESHOT) + stop_fd_.
  int worker_epoll_fd_ = -1;
  int stop_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> accepting_{true};

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  mutable Mutex sessions_mu_;
  /// Keyed by Session::id.
  std::unordered_map<uint64_t, SessionPtr> sessions_
      XTC_GUARDED_BY(sessions_mu_);
  uint64_t next_session_id_ XTC_GUARDED_BY(sessions_mu_) = 1;

  mutable Mutex parked_mu_;
  std::unordered_map<uint64_t, ParkedCore> parked_ XTC_GUARDED_BY(parked_mu_);
  uint64_t next_token_nonce_ XTC_GUARDED_BY(parked_mu_) = 1;
  /// token_id -> session currently holding that token. Lets kResume find
  /// (and close) a half-open predecessor the server has not noticed is
  /// dead yet, without touching the foreign session's core.
  std::unordered_map<uint64_t, SessionPtr> live_tokens_
      XTC_GUARDED_BY(parked_mu_);

  std::atomic<size_t> active_tx_{0};

  Mutex dead_fds_mu_;
  std::vector<int> dead_fds_ XTC_GUARDED_BY(dead_fds_mu_);

  // Every counter of ServerStats, bumped in place (relaxed). The gauge
  // fields stay zero here; stats() fills them from the live state above.
  RelaxedStats<ServerStats> stats_;
};

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_SERVER_H_
