#include "trace.h"

#include <chrono>
#include <cstdio>

namespace xtc::perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint64_t> next_tracer_id{1};

}  // namespace

std::string_view SpanName(SpanKind kind) {
  static constexpr std::array<std::string_view, kNumSpanKinds> kNames = {
      "txn",      "tx.begin",   "tx.commit",     "tx.abort",
      "net.begin", "net.commit", "net.abort",    "net.rtt",
      "node.op",  "lock.call",  "lock.end_op",   "lock.release_all",
      "wal.checkpoint", "recovery.restart"};
  return kNames[static_cast<size_t>(kind)];
}

struct Tracer::ThreadBuffer {
  struct Frame {
    SpanKind kind;
    bool recorded;
    int64_t start_ns;
    int64_t child_ns = 0;
    int64_t log_index = -1;  // into `log`, -1 when not logged
  };
  struct Logged {
    SpanKind kind;
    int64_t parent;
    uint64_t tx;
    int64_t start_ns;
    int64_t end_ns;
  };

  std::vector<Frame> stack;
  std::array<SpanTotals, kNumSpanKinds> totals;
  std::vector<Logged> log;
};

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)), epoch_ns_(NowNs()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::Local() {
  // One cached buffer per thread; a thread that meets a newer tracer
  // registers a fresh buffer with it.
  thread_local uint64_t cached_id = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_id != id_) {
    MutexLock guard(mu_);
    threads_.push_back(std::make_unique<ThreadBuffer>());
    cached = threads_.back().get();
    cached_id = id_;
  }
  return cached;
}

void Tracer::Open(SpanKind kind, uint64_t tx) {
  ThreadBuffer* t = Local();
  const bool recorded = recording_.load(std::memory_order_relaxed);
  ThreadBuffer::Frame frame{kind, recorded, 0};
  if (recorded && t->log.size() < kMaxLoggedSpansPerThread) {
    const int64_t parent = t->stack.empty() ? -1 : t->stack.back().log_index;
    frame.log_index = static_cast<int64_t>(t->log.size());
    t->log.push_back({kind, parent, tx, 0, 0});
  }
  t->stack.push_back(frame);
  // Take the start time last so the bookkeeping above is not charged to
  // the span.
  t->stack.back().start_ns = NowNs();
  if (frame.log_index >= 0) {
    t->log[static_cast<size_t>(frame.log_index)].start_ns =
        t->stack.back().start_ns - epoch_ns_;
  }
}

void Tracer::Close() {
  const int64_t end_ns = NowNs();
  ThreadBuffer* t = Local();
  if (t->stack.empty()) return;
  const ThreadBuffer::Frame frame = t->stack.back();
  t->stack.pop_back();
  const int64_t duration = end_ns - frame.start_ns;
  if (!t->stack.empty()) t->stack.back().child_ns += duration;
  if (!frame.recorded) return;
  SpanTotals& totals = t->totals[static_cast<size_t>(frame.kind)];
  totals.count++;
  totals.total_us += static_cast<double>(duration) / 1e3;
  totals.self_us += static_cast<double>(duration - frame.child_ns) / 1e3;
  totals.durations_us.push_back(static_cast<double>(duration) / 1e3);
  if (frame.log_index >= 0) {
    t->log[static_cast<size_t>(frame.log_index)].end_ns = end_ns - epoch_ns_;
  }
}

void Tracer::SetTx(uint64_t tx) {
  ThreadBuffer* t = Local();
  if (t->stack.empty() || t->stack.back().log_index < 0) return;
  t->log[static_cast<size_t>(t->stack.back().log_index)].tx = tx;
}

std::array<SpanTotals, kNumSpanKinds> Tracer::Aggregate() const {
  std::array<SpanTotals, kNumSpanKinds> out;
  MutexLock guard(mu_);
  for (const auto& t : threads_) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      const SpanTotals& src = t->totals[k];
      SpanTotals& dst = out[k];
      dst.count += src.count;
      dst.total_us += src.total_us;
      dst.self_us += src.self_us;
      dst.durations_us.insert(dst.durations_us.end(),
                              src.durations_us.begin(),
                              src.durations_us.end());
    }
  }
  return out;
}

Status Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open span log " + path);
  std::fprintf(f, "thread\tid\tparent\tkind\ttx\tstart_ns\tend_ns\n");
  MutexLock guard(mu_);
  for (size_t thread = 0; thread < threads_.size(); ++thread) {
    const auto& log = threads_[thread]->log;
    for (size_t i = 0; i < log.size(); ++i) {
      const ThreadBuffer::Logged& s = log[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%s\t%llu\t%lld\t%lld\n", thread, i,
                   static_cast<long long>(s.parent),
                   std::string(SpanName(s.kind)).c_str(),
                   static_cast<unsigned long long>(s.tx),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot write span log " + path);
}

}  // namespace xtc::perfbench
