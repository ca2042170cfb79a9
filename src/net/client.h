// Client side of the socket front-end: a framed connection plus
// RemoteDom, the TaMixDom implementation that ships every DOM operation
// to the server as one request–response round trip. One Client is one
// session holding at most one open transaction — exactly the shape of a
// TaMix worker. RemoteSession wraps both as the TaMixSession the
// coordinator's worker loop drives (its socket frontend and
// tools/tamix_client); the socket tests also use Client directly.
//
// Resilience (all opt-in via ClientOptions):
//   * Every connect/send/recv is poll-based with a deadline — no call
//     ever blocks past its configured timeout, even against a half-open
//     peer that acks bytes and then goes silent.
//   * With max_reconnect_attempts > 0, a transport failure inside
//     RoundTrip reconnects (capped exponential backoff + deterministic
//     jitter), presents the session token from the hello handshake
//     (kResume), and retries the request under its ORIGINAL request_id.
//     The server's per-session outcome table answers a retried request
//     it already executed from the recorded response, so a commit whose
//     response was torn off the wire is resolved exactly-once rather
//     than re-applied.
//   * Only when that resolution is impossible — the server's lease
//     expired, or every reconnect attempt failed after the request may
//     have been sent — does a commit come back kUnknown. Any other
//     request in the same situation returns kTxAborted (the transaction
//     state is gone; the caller's retry loop restarts the transaction).
//
// Not thread-safe: one Client per worker thread, like one Transaction per
// worker in the in-process harness.

#ifndef XTC_NET_CLIENT_H_
#define XTC_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "lock/lock_manager.h"
#include "net/net_stats.h"
#include "net/wire.h"
#include "tamix/bib_generator.h"
#include "tamix/dom_api.h"
#include "tamix/transactions.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/relaxed_stats.h"
#include "util/status.h"

namespace xtc {
namespace net {

struct ClientOptions {
  Duration connect_timeout = std::chrono::seconds(5);
  /// Per-attempt I/O budget: one send + one response.
  Duration io_timeout = std::chrono::seconds(30);
  /// Reconnect + retry attempts after a transport failure inside a
  /// RoundTrip. 0 = fail fast on the first transport error (the
  /// pre-resilience behavior).
  int max_reconnect_attempts = 0;
  /// Backoff before reconnect attempt k: min(backoff << (k-1),
  /// backoff_max), scaled by a deterministic jitter in [0.5, 1.0).
  Duration backoff = std::chrono::milliseconds(20);
  Duration backoff_max = std::chrono::milliseconds(500);
  /// Jitter seed (vary per worker so a fleet doesn't reconnect in
  /// lockstep).
  uint64_t seed = 1;
  /// Optional: evaluated at the client-side net.* fault points.
  FaultInjector* faults = nullptr;
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions options) : options_(options) {}
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and exchanges the hello handshake (version check + resume
  /// token).
  Status Connect(std::string_view host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Begins a transaction on the server. `tx_type` is a workload hint the
  /// server uses to attribute its own metrics per transaction type.
  StatusOr<uint64_t> Begin(IsolationLevel isolation, int lock_depth,
                           TxType tx_type);
  /// Commits the open transaction; returns the commit sequence number.
  /// `wal_payload` rides the server's commit record (replay checks).
  StatusOr<uint64_t> Commit(std::string_view wal_payload = {});
  Status Abort();

  /// The server's live metrics (kStats): CollectRunMetrics over its
  /// per-type, lock, WAL and server counters.
  StatusOr<MetricSet> Stats();
  StatusOr<BibInfo> WorkloadInfo();

  /// One framed request–response exchange. On OK the returned string is
  /// the response payload *after* the status preamble. A non-OK server
  /// status comes back as that status. Transport failures are retried
  /// per ClientOptions; past the retry budget they surface as kIoError
  /// (request provably not executed ⇒ safe), kTxAborted (session state
  /// lost), or — commits only — kUnknown (outcome indeterminate).
  /// Broken response bytes are kDataLoss.
  StatusOr<std::string> RoundTrip(MsgType type, std::string_view payload);

  const ClientNetStats& net_stats() const { return net_stats_; }
  /// The resume token of the current session (0 before Connect).
  uint64_t token_id() const { return token_id_; }
  /// Whether the last successful kResume found the transaction still
  /// open (false: the server executed the commit/abort before parking).
  bool resumed_tx_open() const { return resumed_tx_open_; }

 private:
  /// Opens + connects the socket (non-blocking, poll, connect_timeout).
  Status ConnectSocket();
  /// Hello (+ kResume when a token is held). Fills the token fields.
  Status Handshake();
  /// One send + receive of a fully framed request. No retries: any
  /// transport or framing failure closes fd_ (the "indeterminate" marker
  /// RoundTrip keys off); a definitive server status leaves it open.
  StatusOr<std::string> ExchangeOnce(MsgType type, uint32_t request_id,
                                     std::string_view frame);
  /// Closes, backs off (capped exponential + deterministic jitter), and
  /// re-handshakes. Advances *attempt. kNotFound = lease expired
  /// (definitive); kIoError = attempts exhausted.
  Status Reconnect(int* attempt, uint32_t request_id);
  Status SendAllDeadline(std::string_view bytes, TimePoint deadline);
  /// Receives exactly one response frame into rbuf_ (header included).
  Status RecvFrame(TimePoint deadline, FrameHeader* header);
  /// Remaining-ms poll helper; fails with kIoError once past deadline.
  Status PollFd(short events, TimePoint deadline, const char* what);

  ClientOptions options_;
  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t token_id_ = 0;
  uint64_t token_secret_ = 0;
  uint32_t lease_ms_ = 0;
  bool resumed_tx_open_ = false;
  std::string rbuf_;  // receive buffer, reused across round trips
  ClientNetStats net_stats_;
};

/// TaMixDom over the wire: the transaction lives on the server, bound to
/// this client's session.
class RemoteDom : public TaMixDom {
 public:
  explicit RemoteDom(Client* client) : client_(client) {}

  StatusOr<std::optional<Splid>> GetElementById(std::string_view id) override;
  StatusOr<std::vector<std::pair<std::string, std::string>>> GetAttributes(
      const Splid& element) override;
  StatusOr<std::optional<DomNode>> GetFirstChild(const Splid& parent) override;
  StatusOr<std::optional<DomNode>> GetLastChild(const Splid& parent) override;
  StatusOr<std::optional<DomNode>> GetNextSibling(const Splid& node) override;
  StatusOr<std::vector<DomNode>> GetChildNodes(const Splid& parent) override;
  StatusOr<std::string> GetTextContent(const Splid& text) override;

  Status DeclareUpdateIntent(const Splid& node) override;
  Status UpdateText(const Splid& text, std::string_view content) override;
  Status SetAttribute(const Splid& element, std::string_view name,
                      std::string_view value) override;
  StatusOr<Splid> AppendSubtree(const Splid& parent,
                                const SubtreeSpec& spec) override;
  Status DeleteSubtree(const Splid& root) override;
  Status Rename(const Splid& element, std::string_view new_name) override;

 private:
  /// Round trip whose response carries no result fields beyond status.
  Status SimpleOp(MsgType type, const WireWriter& w);
  StatusOr<std::optional<DomNode>> NodeOp(MsgType type, const Splid& subject);

  Client* client_;
};

/// TaMixSession over the wire: one Client + RemoteDom, the transaction
/// living on the server.
class RemoteSession : public TaMixSession {
 public:
  /// `stop` (not owned) ends Begin's reconnect patience. `sum` (optional,
  /// not owned) receives this client's net_stats() on destruction.
  RemoteSession(std::string host, uint16_t port, ClientOptions options,
                const std::atomic<bool>* stop,
                RelaxedStats<ClientNetStats>* sum = nullptr)
      : host_(std::move(host)),
        port_(port),
        stop_(stop),
        sum_(sum),
        client_(options),
        dom_(&client_) {}
  ~RemoteSession() override;

  /// (Re)connects first, with patience: the server may briefly refuse
  /// while its accept queue churns at startup, and a transport error
  /// mid-run closes the connection. Gives up (kCancelled) only on stop.
  Status Begin(IsolationLevel isolation, int lock_depth,
               TxType type) override;
  TaMixDom& dom() override { return dom_; }
  StatusOr<uint64_t> Commit(std::string_view payload) override;
  /// Always OK: transport errors are ignored (the server aborts a
  /// severed session's transaction itself), and the server reports
  /// undo failures in its own metrics.
  Status Abort() override;

 private:
  std::string host_;
  uint16_t port_;
  const std::atomic<bool>* stop_;
  RelaxedStats<ClientNetStats>* sum_;
  Client client_;
  RemoteDom dom_;
};

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_CLIENT_H_
