// In-process TCP chaos proxy: sits between a client and the socket
// server on loopback and injures the byte stream deterministically —
// dropping connections, truncating or duplicating chunks, delaying
// delivery, cutting or stalling the stream at exact byte offsets. This
// is the wire-level analogue of the FaultInjector: the same seed and
// plan produce the same sequence of injuries, so a failing seed of the
// fuzz harness's net injury replays exactly.
//
// Two kinds of injury:
//   * Probabilistic, per forwarded chunk (drop / truncate / delay /
//     duplicate). The decision for the n-th chunk of a connection
//     direction is a pure function of (seed, connection index,
//     direction, n) — thread scheduling changes chunk boundaries but a
//     fixed request/response protocol produces stable chunking over
//     loopback.
//   * Byte-exact shaping for the torn-frame batteries: cut_* forwards
//     exactly N bytes in one direction and then severs the connection;
//     stall_* forwards N bytes and then silently swallows the rest while
//     holding the connection open (the half-open peer). Shaping applies
//     to the shape_conn_index-th accepted connection (-1 = all), so a
//     client can reconnect past a torn first attempt.
//
// The proxy never parses frames — it injures raw bytes, which is the
// point: header CRCs, desynchronization detection, deadlines, leases and
// the commit-outcome table are what turn injured bytes back into
// exactly-once semantics.

#ifndef XTC_NET_CHAOS_PROXY_H_
#define XTC_NET_CHAOS_PROXY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/net_stats.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/relaxed_stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {
namespace net {

struct ChaosPlan {
  uint64_t seed = 1;
  /// Per-chunk probabilities (cumulative order: drop, truncate, delay,
  /// duplicate). All zero = transparent relay.
  double drop = 0.0;       // sever the connection before the chunk
  double truncate = 0.0;   // forward a seeded prefix of the chunk, sever
  double delay = 0.0;      // sleep 1..delay_max_ms, then forward
  double duplicate = 0.0;  // forward the chunk twice (desynchronizes)
  int delay_max_ms = 10;
  /// Let the first N chunks of every connection direction through
  /// untouched (handshake and resume must be able to succeed sometimes).
  uint64_t skip_first_chunks = 0;
  /// Byte-exact shaping (-1 = off). cut: forward exactly N bytes in the
  /// direction, then sever both ways. stall: forward N bytes, then
  /// swallow everything while keeping the connection open (half-open).
  int64_t cut_client_to_server = -1;
  int64_t cut_server_to_client = -1;
  int64_t stall_client_to_server = -1;
  int64_t stall_server_to_client = -1;
  /// Which accepted connection (0-based) the cut/stall rules apply to;
  /// -1 = every connection.
  int64_t shape_conn_index = 0;
};

class ChaosProxy {
 public:
  ChaosProxy(uint16_t target_port, ChaosPlan plan)
      : target_port_(target_port), plan_(plan) {}
  ~ChaosProxy() { Stop(); }

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds a loopback listener and starts relaying to 127.0.0.1:target.
  Status Start();
  /// Severs every relayed connection and joins all threads. Idempotent.
  void Stop();

  /// The proxy's listen port (clients connect here instead of the server).
  uint16_t port() const { return port_; }
  ChaosProxyStats stats() const { return stats_.Load(); }

 private:
  void AcceptLoop();
  void Relay(int client_fd, int server_fd, uint64_t conn_index);
  /// Decision value in [0,1) for the n-th chunk of (conn, direction).
  double Uniform(uint64_t conn, int dir, uint64_t n) const;

  const uint16_t target_port_;
  const ChaosPlan plan_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  Mutex mu_;
  std::vector<std::thread> relays_ XTC_GUARDED_BY(mu_);
  /// Every fd a relay touches; shutdown (not closed) on Stop so blocked
  /// relays wake, closed only after the joins (no descriptor reuse race).
  std::vector<int> conn_fds_ XTC_GUARDED_BY(mu_);
  std::thread accept_thread_;

  RelaxedStats<ChaosProxyStats> stats_;
};

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_CHAOS_PROXY_H_
