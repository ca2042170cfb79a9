// Socket front-end counters: the server's, one client's and the chaos
// proxy's. Header-only and free of engine includes (like
// repl/repl_stats.h) so the metrics layer can hold them in RunStats
// without including the server. Each struct's ForEachField is the one
// place its field names are written; tamix/metrics.cc turns them into
// named metrics. Each struct is also its counters' one home: the server,
// the proxy and the coordinator's client sum count into a RelaxedStats
// block of it (util/relaxed_stats.h).

#ifndef XTC_NET_NET_STATS_H_
#define XTC_NET_NET_STATS_H_

#include <cstdint>

namespace xtc {
namespace net {

struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_rejected = 0;  // over max_sessions
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  uint64_t protocol_errors = 0;  // framing/decode failures -> disconnect
  uint64_t admission_rejected = 0;  // tx cap, draining
  uint64_t idle_reaped = 0;
  uint64_t tx_begun = 0;
  uint64_t tx_committed = 0;
  uint64_t tx_aborted = 0;
  uint64_t sessions_parked = 0;   // disconnected under an active lease
  uint64_t sessions_resumed = 0;  // successful kResume adoptions
  uint64_t leases_expired = 0;    // parked cores that aged out (aborted)
  uint64_t dedup_hits = 0;        // retried requests answered from table
  // Gauges. After Stop, a nonzero active/parked count is a session leak.
  uint64_t active_sessions = 0;
  uint64_t active_tx = 0;
  uint64_t parked_sessions = 0;

  /// Calls f(name, unit, field) for every field, const or mutable as `s`.
  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("sessions_opened", "count", s.sessions_opened);
    f("sessions_closed", "count", s.sessions_closed);
    f("sessions_rejected", "count", s.sessions_rejected);
    f("frames_received", "count", s.frames_received);
    f("responses_sent", "count", s.responses_sent);
    f("protocol_errors", "count", s.protocol_errors);
    f("admission_rejected", "count", s.admission_rejected);
    f("idle_reaped", "count", s.idle_reaped);
    f("tx_begun", "count", s.tx_begun);
    f("tx_committed", "count", s.tx_committed);
    f("tx_aborted", "count", s.tx_aborted);
    f("sessions_parked", "count", s.sessions_parked);
    f("sessions_resumed", "count", s.sessions_resumed);
    f("leases_expired", "count", s.leases_expired);
    f("dedup_hits", "count", s.dedup_hits);
    f("active_sessions", "count", s.active_sessions);
    f("active_tx", "count", s.active_tx);
    f("parked_sessions", "count", s.parked_sessions);
  }
};

/// Client-side resilience counters (all monotonic).
struct ClientNetStats {
  uint64_t reconnects = 0;        // successful re-handshakes
  uint64_t resumes = 0;           // successful kResume adoptions
  uint64_t lease_expired = 0;     // kResume answered kNotFound
  uint64_t retried_requests = 0;  // requests re-sent after reconnect
  uint64_t unknown_commits = 0;   // commits resolved kUnknown
  uint64_t io_timeouts = 0;       // poll deadlines that fired

  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("reconnects", "count", s.reconnects);
    f("resumes", "count", s.resumes);
    f("lease_expired", "count", s.lease_expired);
    f("retried_requests", "count", s.retried_requests);
    f("unknown_commits", "count", s.unknown_commits);
    f("io_timeouts", "count", s.io_timeouts);
  }
};

struct ChaosProxyStats {
  uint64_t connections = 0;
  uint64_t chunks = 0;
  uint64_t drops = 0;
  uint64_t truncations = 0;
  uint64_t delays = 0;
  uint64_t duplicates = 0;
  uint64_t cuts = 0;
  uint64_t stalls = 0;  // swallowed chunks past a stall point
  uint64_t bytes_client_to_server = 0;
  uint64_t bytes_server_to_client = 0;

  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("connections", "count", s.connections);
    f("chunks", "count", s.chunks);
    f("drops", "count", s.drops);
    f("truncations", "count", s.truncations);
    f("delays", "count", s.delays);
    f("duplicates", "count", s.duplicates);
    f("cuts", "count", s.cuts);
    f("stalls", "count", s.stalls);
    f("bytes_client_to_server", "B", s.bytes_client_to_server);
    f("bytes_server_to_client", "B", s.bytes_server_to_client);
  }
};

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_NET_STATS_H_
