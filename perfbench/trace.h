// In-memory span tracer for the benchmark's traced run.
//
// A span covers one call across a layer boundary: its kind, start, end,
// the span that was open on the same thread when it began (its parent),
// and the transaction it served. Spans nest per thread, so a span's self
// time is its duration minus the durations of its direct children, and
// the transaction span's self time is what no traced layer covers.
//
// Each thread writes only its own buffer; aggregation and the span log
// dump read the buffers after every traced thread has stopped. Totals and
// per-kind duration samples cover every span opened while recording is
// on; the span log keeps the first kMaxLoggedSpansPerThread of them per
// thread, which bounds memory on long runs.

#ifndef XTC_PERFBENCH_TRACE_H_
#define XTC_PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace xtc::perfbench {

enum class SpanKind : uint8_t {
  kTxn = 0,      // one transaction, begin to commit acknowledgement
  kTxBegin,      // TransactionManager::Begin
  kTxCommit,     // TransactionManager::Commit
  kTxAbort,      // TransactionManager::Abort
  kNetBegin,     // net::Client::Begin
  kNetCommit,    // net::Client::Commit
  kNetAbort,     // net::Client::Abort
  kNetRtt,       // one RemoteDom call (a wire round trip)
  kNodeOp,       // one LocalDom call (node manager)
  kLockCall,     // one XmlProtocol meta-lock request
  kLockEndOp,    // XmlProtocol::EndOperation
  kLockReleaseAll,  // XmlProtocol::ReleaseAll
  kCheckpoint,   // buffer FlushAll + Document::LogCheckpoint
  kRestart,      // OpenDatabase over durable images
};
inline constexpr size_t kNumSpanKinds = 14;
inline constexpr size_t kMaxLoggedSpansPerThread = 20000;

std::string_view SpanName(SpanKind kind);

/// Totals of one span kind over all threads.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::vector<double> durations_us;  // one per span

  double mean_us() const { return count == 0 ? 0 : total_us / count; }
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans opened while recording is off are timed for their parents'
  /// self time but neither counted nor logged.
  void SetRecording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; Close ends the innermost one.
  void Open(SpanKind kind, uint64_t tx);
  void Close();
  /// Sets the transaction id of the calling thread's innermost open span
  /// (a transaction's id is known only once its span is open).
  void SetTx(uint64_t tx);

  /// Per-kind totals over every thread. Call once traced threads stopped.
  std::array<SpanTotals, kNumSpanKinds> Aggregate() const;

  /// Writes the span log as tab-separated lines
  /// `thread id parent kind tx start_ns end_ns` (parent -1 = none; times
  /// relative to the tracer's creation). Call once traced threads stopped.
  Status WriteSpans(const std::string& path) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer* Local();

  const uint64_t id_;
  const int64_t epoch_ns_;
  std::atomic<bool> recording_{false};
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> threads_ XTC_GUARDED_BY(mu_);
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind, uint64_t tx = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Open(kind, tx);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_tx(uint64_t tx) {
    if (tracer_ != nullptr) tracer_->SetTx(tx);
  }

 private:
  Tracer* tracer_;
};

}  // namespace xtc::perfbench

#endif  // XTC_PERFBENCH_TRACE_H_
