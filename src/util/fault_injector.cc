#include "util/fault_injector.h"

namespace xtc {


std::vector<std::string_view> AllFaultPoints() {
  return {fault_points::kLockTimeout, fault_points::kLockDeadlock,
          fault_points::kIoRead,      fault_points::kIoWrite,
          fault_points::kBufferPin,   fault_points::kNodeIud,
          fault_points::kTxUndo,      fault_points::kWalFlush,
          fault_points::kCrashWal,    fault_points::kCrashPage,
          fault_points::kCrashCommit, fault_points::kCrashShip,
          fault_points::kCrashApply,  fault_points::kNetSend,
          fault_points::kNetRecv,     fault_points::kNetDelay,
          fault_points::kNetClose};
}

std::vector<std::string_view> AllCrashPoints() {
  return {fault_points::kCrashWal, fault_points::kCrashPage,
          fault_points::kCrashCommit, fault_points::kCrashShip,
          fault_points::kCrashApply};
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(std::string_view name) {
  // FNV-1a; any stable hash works, determinism is all that matters.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void FaultInjector::Arm(std::string_view point, FaultPointConfig config) {
  std::lock_guard<std::mutex> guard(mu_);
  PointState& state = points_[std::string(point)];
  state.config = std::move(config);
  state.evaluations = 0;
  state.injections = 0;
}

void FaultInjector::Disarm(std::string_view point) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = points_.find(point);
  if (it != points_.end()) points_.erase(it);
}

bool FaultInjector::Decide(std::string_view point, uint64_t n,
                           double probability) const {
  if (probability <= 0.0) return false;
  const uint64_t h = SplitMix64(seed_ ^ HashName(point) ^ (n * 0x9e3779b9ULL));
  const double u = (h >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  return u < probability;
}

const FaultPointConfig* FaultInjector::Fire(std::string_view point) {
  auto it = points_.find(point);
  if (it == points_.end()) return nullptr;
  PointState& state = it->second;
  const uint64_t n = state.evaluations++;
  if (n < state.config.skip_first) return nullptr;
  if (state.config.one_shot && state.injections > 0) return nullptr;
  if (!Decide(point, n, state.config.probability)) return nullptr;
  ++state.injections;
  log_.push_back({std::string(point), n});
  return &state.config;
}

bool FaultInjector::ShouldFail(std::string_view point) {
  if (Suppressed()) return false;
  std::lock_guard<std::mutex> guard(mu_);
  return Fire(point) != nullptr;
}

Status FaultInjector::MaybeFail(std::string_view point) {
  if (Suppressed()) return Status::OK();
  std::lock_guard<std::mutex> guard(mu_);
  const FaultPointConfig* config = Fire(point);
  if (config == nullptr) return Status::OK();
  const std::string message = config->message.empty()
                                  ? "injected fault at " + std::string(point)
                                  : config->message;
  // A "fault" must be an error; a point armed with kOk injects kInternal.
  return config->code == StatusCode::kOk
             ? Status::Internal(message)
             : Status::FromCode(config->code, message);
}

uint64_t FaultInjector::evaluations(std::string_view point) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.evaluations;
}

uint64_t FaultInjector::injections(std::string_view point) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.injections;
}

uint64_t FaultInjector::total_injections() const {
  std::lock_guard<std::mutex> guard(mu_);
  return log_.size();
}

std::vector<FaultInjection> FaultInjector::InjectionLog() const {
  std::lock_guard<std::mutex> guard(mu_);
  return log_;
}

}  // namespace xtc
