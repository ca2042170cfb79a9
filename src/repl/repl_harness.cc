#include "repl/repl_harness.h"

#include <string>
#include <utility>

#include "util/clock.h"

namespace xtc {

PairReplicationObserver::PairReplicationObserver(const Options& options)
    : options_(options) {}

PairReplicationObserver::~PairReplicationObserver() {
  // Safety net for setup paths that error out between OnPrimaryReady and
  // OnPrimaryStopped; a normal run joins in OnPrimaryStopped.
  stop_.store(true, std::memory_order_relaxed);
  if (ship_thread_.joinable()) ship_thread_.join();
}

Status PairReplicationObserver::OnPrimaryReady(const PrimaryHandles& handles) {
  handles_ = handles;
  if (options_.follower_kill_skip >= 0) {
    follower_faults_ =
        std::make_unique<FaultInjector>(options_.seed * 0x9e3779b9ULL + 17);
    FaultPointConfig kill;
    kill.probability = 1.0;
    kill.one_shot = true;
    kill.skip_first = static_cast<uint64_t>(options_.follower_kill_skip);
    follower_faults_->Arm(fault_points::kCrashApply, kill);
    follower_crash_ = std::make_unique<CrashSwitch>(options_.seed + 0x51ULL);
  }
  FollowerOptions fo;
  fo.storage = handles_.storage;
  fo.fault_injector = follower_faults_.get();
  fo.crash_switch = follower_crash_.get();
  XTC_ASSIGN_OR_RETURN(
      follower_, Follower::Bootstrap(fo, handles_.base_disk,
                                     handles_.base_log));
  LogShipperOptions so;
  so.fault_injector = handles_.faults;
  so.crash_switch = handles_.crash;
  shipper_ = std::make_unique<LogShipper>(handles_.wal, follower_.get(), so);
  ship_thread_ = std::thread(&PairReplicationObserver::ShipLoop, this);
  return Status::OK();
}

void PairReplicationObserver::ShipLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    StatusOr<uint64_t> shipped = shipper_->ShipOnce();
    if (!shipped.ok()) {
      if (follower_crash_ != nullptr && follower_crash_->crashed()) {
        // The follower died mid-apply: bring a new incarnation up from
        // the dead one's own crash artifacts and resume tailing.
        follower_killed_ = true;
        Status restarted = RestartFollower();
        if (!restarted.ok()) {
          MutexLock guard(mu_);
          if (background_status_.ok()) background_status_ = restarted;
          return;
        }
        continue;
      }
      if (handles_.crash != nullptr && handles_.crash->crashed()) {
        // The primary died; nothing more to ship until the failover
        // drain reads the surviving log device.
        return;
      }
      MutexLock guard(mu_);
      if (background_status_.ok()) background_status_ = shipped.status();
      return;
    }
    SleepFor(Micros(500));
  }
}

Status PairReplicationObserver::RestartFollower() {
  PageFileImage disk = follower_->DiskImage();
  std::string log = follower_->LogImage();
  // Fresh switch per incarnation (a triggered switch stays triggered);
  // the same injector carries on, so its one-shot kill stays consumed
  // and the decision sequence remains a pure function of the seed.
  follower_crash_ = std::make_unique<CrashSwitch>(options_.seed + 0x52ULL +
                                                  restarts_);
  FollowerOptions fo;
  fo.storage = handles_.storage;
  fo.fault_injector = follower_faults_.get();
  fo.crash_switch = follower_crash_.get();
  XTC_ASSIGN_OR_RETURN(std::unique_ptr<Follower> reborn,
                       Follower::Bootstrap(fo, disk, log));
  follower_ = std::move(reborn);
  shipper_->set_follower(follower_.get());
  ++restarts_;
  return Status::OK();
}

void PairReplicationObserver::OnPrimaryStopped(bool crashed) {
  (void)crashed;
  stop_.store(true, std::memory_order_relaxed);
  if (ship_thread_.joinable()) ship_thread_.join();
  Status drained = DrainAfterStop();
  if (!drained.ok()) {
    MutexLock guard(mu_);
    if (background_status_.ok()) background_status_ = drained;
  }
  stopped_ = true;
}

Status PairReplicationObserver::DrainAfterStop() {
  if (shipper_ == nullptr || follower_ == nullptr) return Status::OK();
  // The drain itself can still hit a pending follower kill (one-shot,
  // not yet consumed); restart once and drain again.
  for (int attempt = 0; attempt < 3; ++attempt) {
    Status st = shipper_->Drain();
    if (st.ok()) return Status::OK();
    if (follower_crash_ != nullptr && follower_crash_->crashed()) {
      follower_killed_ = true;
      XTC_RETURN_IF_ERROR(RestartFollower().Annotate("drain restart"));
      continue;
    }
    return st.Annotate("failover drain");
  }
  return Status::Internal("failover drain did not converge in 3 attempts");
}

ReplicationStats PairReplicationObserver::Stats() const {
  ReplicationStats out;
  if (shipper_ != nullptr) out = shipper_->stats();
  if (follower_ != nullptr) {
    const ReplicationStats f = follower_->stats();
    out.records_applied = f.records_applied;
    out.pages_applied = f.pages_applied;
    out.commits_applied = f.commits_applied;
    out.checkpoints_applied = f.checkpoints_applied;
    out.reattaches = f.reattaches;
    out.resyncs = f.resyncs;
    out.applied_lsn = f.applied_lsn;
    out.received_lsn = f.received_lsn;
  }
  out.follower_restarts = restarts_;
  out.enabled = true;
  return out;
}

Status PairReplicationObserver::background_status() const {
  MutexLock guard(mu_);
  return background_status_;
}

}  // namespace xtc
