// The replication half of the paired fuzz injury (tamix/fuzz.h,
// docs/robustness.md): a ReplicationObserver that attaches a
// log-shipping follower to a TaMix primary, keeps it tailing while the
// workload runs, restarts it from its own crash artifacts when a seeded
// crash.apply kill takes it down, and drains the surviving durable log
// into it once the primary stops — crashed or not — so the follower can
// be checked and promoted.

#ifndef XTC_REPL_REPL_HARNESS_H_
#define XTC_REPL_REPL_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "repl/follower.h"
#include "repl/log_shipper.h"
#include "tamix/coordinator.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {

/// The harness's ReplicationObserver: bootstraps a follower from the
/// primary's base images, tails the durable log from a background
/// shipping thread, restarts the follower when crash.apply kills it,
/// and — once the primary stops — drains the surviving durable log so
/// the follower holds every durable record. Also driven directly by
/// tools/failover_demo, bench/report_metrics and replication_test.
class PairReplicationObserver : public ReplicationObserver {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Arm crash.apply (one-shot) inside the follower with this
    /// skip_first; <0 = follower never killed.
    int64_t follower_kill_skip = -1;
    uint64_t ship_chunk_bytes = 4096;
    uint64_t max_staleness_bytes = 0;
  };

  explicit PairReplicationObserver(const Options& options);
  ~PairReplicationObserver() override;

  Status OnPrimaryReady(const PrimaryHandles& handles) override;
  void OnPrimaryStopped(bool crashed) override XTC_EXCLUDES(mu_);
  ReplicationStats Stats() const override;

  /// Valid after OnPrimaryStopped (drained, quiescent). Null only if
  /// OnPrimaryReady never ran or bootstrap failed.
  Follower* follower() { return follower_.get(); }
  /// First failure of the shipping/restart machinery (drain errors
  /// included); the fuzz harness turns this into a failure.
  Status background_status() const XTC_EXCLUDES(mu_);
  uint64_t follower_restarts() const { return restarts_; }
  bool follower_was_killed() const { return follower_killed_; }

 private:
  void ShipLoop() XTC_EXCLUDES(mu_);
  /// Rebuilds the follower from the dead one's own crash artifacts with
  /// a fresh switch (same injector: its decision sequence continues).
  Status RestartFollower();
  Status DrainAfterStop();

  Options options_;
  PrimaryHandles handles_;
  std::thread ship_thread_;
  std::atomic<bool> stop_{false};

  // Handed off by thread lifecycle, not by mu_: set up before
  // ship_thread_ starts, owned exclusively by ShipLoop while it runs,
  // and touched by the caller again only after the join in
  // OnPrimaryStopped (or the destructor). The analysis cannot model a
  // join-ordered handoff, so these stay unannotated on purpose.
  std::unique_ptr<FaultInjector> follower_faults_;
  std::unique_ptr<CrashSwitch> follower_crash_;
  std::unique_ptr<Follower> follower_;
  std::unique_ptr<LogShipper> shipper_;
  bool stopped_ = false;
  uint64_t restarts_ = 0;
  bool follower_killed_ = false;

  mutable Mutex mu_;
  Status background_status_ XTC_GUARDED_BY(mu_);
};

}  // namespace xtc

#endif  // XTC_REPL_REPL_HARNESS_H_
