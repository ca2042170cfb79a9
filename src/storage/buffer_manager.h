// Buffer manager: a fixed pool of page frames over the page file with
// LRU replacement, pin counting and dirty tracking.
//
// The paper relies on "reference locality in the B*-trees ... most of the
// referenced tree pages (at least in upper tree layers) are expected to
// reside in DB buffers" (§3.2); the pool makes that locality real so that
// protocols which force extra document traversals (the *-2PL group on
// subtree deletion) pay for the misses.
//
// Concurrency model: the pool mutex mu_ protects only the frame table and
// replacement metadata — it is NEVER held across PageFile I/O. Each frame
// carries an explicit state:
//
//   kFree      not mapped to any page (on free_frames_ or claimed by a
//              fetch that is about to load into it)
//   kLoading   a miss is reading the page from the file; the frame is in
//              table_ so concurrent fetches of the same page coalesce onto
//              the one in-flight read by waiting on the frame's cv
//   kResident  mapped and readable; pinnable
//   kEvicting  a dirty victim's write-back is in flight; the frame stays
//              in table_ so a concurrent fetch of the evictee waits
//              instead of double-caching, and the evictor re-validates
//              (waiters present => eviction is cancelled, the frame stays
//              resident) after the write returns
//
// A dirty frame whose write-back fails is never evicted: dropping it
// would lose committed data outside any transaction's undo reach. It
// returns to kResident, stays dirty, and victim scans move on.

#ifndef XTC_STORAGE_BUFFER_MANAGER_H_
#define XTC_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"
#include "util/mutex.h"
#include "util/relaxed_stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {

class BufferManager;

/// RAII pin on a buffered page. Unpins (and marks dirty if requested) on
/// destruction. Movable, not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferManager* bm, PageId id, Page* page)
      : bm_(bm), id_(id), page_(page) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  PageId id() const { return id_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }

  /// Marks the underlying frame dirty; it is written back on eviction or
  /// flush.
  void MarkDirty() { dirty_ = true; }

  void Release();

 private:
  BufferManager* bm_ = nullptr;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

/// Buffer-pool counters (all monotonically increasing over the pool's
/// lifetime; read with relaxed ordering, exact only at quiescence).
struct BufferPoolStats {
  /// Fetches answered by a resident frame.
  uint64_t hits = 0;
  /// Fetches that read their page from the page file.
  uint64_t misses = 0;
  /// High-water mark of page-file reads/writes in flight at once. 1 on a
  /// single-threaded workload; > 1 proves overlapped simulated disk I/O.
  uint64_t io_in_flight_hwm = 0;
  /// Fetches that found their page already being read by another thread
  /// and waited on that read instead of issuing a second one.
  uint64_t coalesced_fetches = 0;
  /// Dirty-victim write-backs issued by the replacement scan.
  uint64_t eviction_writebacks = 0;
  /// Write-backs that failed (injected or real I/O error); the frame
  /// stayed cached and dirty.
  uint64_t failed_writebacks = 0;
  /// Evictions cancelled because a fetch arrived for the victim while its
  /// write-back was in flight (the frame stayed resident, now clean).
  uint64_t cancelled_evictions = 0;

  /// Calls f(name, unit, field) for every field, const or mutable as `s`
  /// — the one place a field's name is written (tamix/metrics.cc). The
  /// owner counts into a RelaxedStats block of this struct.
  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("hits", "count", s.hits);
    f("misses", "count", s.misses);
    f("io_in_flight_hwm", "count", s.io_in_flight_hwm);
    f("coalesced_fetches", "count", s.coalesced_fetches);
    f("eviction_writebacks", "count", s.eviction_writebacks);
    f("failed_writebacks", "count", s.failed_writebacks);
    f("cancelled_evictions", "count", s.cancelled_evictions);
  }
};

class BufferManager {
 public:
  BufferManager(PageFile* file, const StorageOptions& options);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Fetches (and pins) a page, reading it from the page file on a miss.
  /// Concurrent misses on the same page issue exactly one read.
  StatusOr<PageGuard> Fetch(PageId id) XTC_EXCLUDES(mu_);

  /// Allocates a fresh page in the file and pins it (already zeroed). The
  /// file page is only allocated once a frame is secured, so pool
  /// exhaustion does not leak file pages.
  StatusOr<PageGuard> New() XTC_EXCLUDES(mu_);

  /// Drops a page: discards the frame and frees the file page. Waits for
  /// any in-flight load/write-back of the page to settle first.
  void Free(PageId id) XTC_EXCLUDES(mu_);

  /// Writes back all dirty unpinned frames. Frames pinned at flush time
  /// are skipped (their guard holder may still be mutating the page);
  /// they are written back on eviction or a later flush. At quiescence
  /// (zero pins) this persists everything.
  Status FlushAll() XTC_EXCLUDES(mu_);

  uint64_t hits() const { return io_stats().hits; }
  uint64_t misses() const { return io_stats().misses; }
  BufferPoolStats io_stats() const { return stats_.Load(); }

  /// Frames currently pinned (must be 0 when the system is quiescent —
  /// every PageGuard unpins on destruction).
  size_t PinnedFrames() const XTC_EXCLUDES(mu_);

  /// Frames currently mid-I/O (kLoading or kEvicting). Must be 0 at
  /// quiescence: no fetch or victim scan may leave a frame stuck in a
  /// transitional state.
  size_t FramesInIo() const XTC_EXCLUDES(mu_);

  // --- write-ahead-log support (DESIGN.md §6) ---

  /// Attaches the log. Must happen at setup, before concurrent use. From
  /// then on WritePage forces the log durable through the page's
  /// page_lsn before the bytes reach the file (WAL-before-data), frames
  /// track the recovery LSN of their first dirtying, and the capture
  /// mechanism below protects mid-operation pages.
  void AttachWal(WalBackend* wal) { wal_ = wal; }
  WalBackend* wal() const { return wal_; }

  /// Opens a capture scope (one at a time; Document serializes them
  /// under its exclusive latch). Until EndCapture, every page dirtied or
  /// created is recorded AND becomes ineligible for eviction/flush: a
  /// mid-operation page carries a stale page_lsn, so letting it reach
  /// the file would write bytes whose covering log record does not exist
  /// yet — a WAL-before-data violation redo could never repair.
  void BeginCapture() XTC_EXCLUDES(mu_);
  /// The pages captured so far (still protected until EndCapture, so the
  /// caller can stamp LSNs and copy after-images from resident frames).
  std::vector<PageId> CapturedPages() const XTC_EXCLUDES(mu_);
  void EndCapture() XTC_EXCLUDES(mu_);

  /// Dirty-page table for fuzzy checkpoints: (page id, recovery LSN of
  /// its first dirtying since it was last clean).
  std::vector<std::pair<PageId, uint64_t>> DirtyPageTable() const
      XTC_EXCLUDES(mu_);

 private:
  friend class PageGuard;

  enum class FrameState : uint8_t { kFree, kLoading, kResident, kEvicting };

  struct Frame {
    PageId id = kInvalidPageId;
    std::unique_ptr<Page> page;
    FrameState state = FrameState::kFree;
    int pin_count = 0;
    /// Fetch/Free calls blocked on this frame's load or write-back.
    int waiters = 0;
    bool dirty = false;
    /// Log watermark when the frame last went clean -> dirty; a redo
    /// scan starting there cannot miss an update to this page. 0 while
    /// clean or when no WAL is attached.
    uint64_t rec_lsn = 0;
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
    /// Signalled on every state transition out of kLoading/kEvicting.
    std::condition_variable cv;
  };

  void Unpin(PageId id, bool dirty) XTC_EXCLUDES(mu_);

  /// Returns the index of a frame reserved for the caller (kFree, out of
  /// the table, the LRU list and free_frames_), or -1 if every frame is
  /// pinned or mid-I/O. May release and reacquire mu_ to write back a
  /// dirty victim — callers must re-validate table state afterwards.
  int FindVictim() XTC_REQUIRES(mu_);

  /// Pins a resident frame (removing it from the LRU list).
  PageGuard PinResident(size_t idx) XTC_REQUIRES(mu_);

  // All page-file I/O funnels through these two helpers. XTC_EXCLUDES
  // turns the pool's core invariant — the latch is never held across
  // I/O — into a compile-time contract: calling either with mu_ held is
  // an error under -Wthread-safety (see docs/static_analysis.md).
  Status ReadPage(PageId id, Page* page) XTC_EXCLUDES(mu_);
  Status WritePage(PageId id, const Page& page) XTC_EXCLUDES(mu_);

  /// Tracks one page-file I/O for the in-flight high-water mark.
  class ScopedIo {
   public:
    explicit ScopedIo(BufferManager* bm) : bm_(bm) {
      bm_->stats_.Max(&BufferPoolStats::io_in_flight_hwm,
                      bm_->io_in_flight_.fetch_add(1) + 1);
    }
    ~ScopedIo() { bm_->io_in_flight_.fetch_sub(1); }

   private:
    BufferManager* bm_;
  };

  PageFile* file_;
  StorageOptions options_;
  /// Set once at setup (AttachWal) before concurrent use.
  WalBackend* wal_ = nullptr;
  mutable Mutex mu_;
  bool capture_active_ XTC_GUARDED_BY(mu_) = false;
  std::unordered_set<PageId> capture_ XTC_GUARDED_BY(mu_);
  std::vector<Frame> frames_ XTC_GUARDED_BY(mu_);
  std::unordered_map<PageId, size_t> table_ XTC_GUARDED_BY(mu_);
  // front = most recent; only unpinned residents
  std::list<size_t> lru_ XTC_GUARDED_BY(mu_);
  std::vector<size_t> free_frames_ XTC_GUARDED_BY(mu_);
  /// Every BufferPoolStats counter, bumped in place (relaxed).
  RelaxedStats<BufferPoolStats> stats_;
  /// Page-file I/Os in flight right now: a live gauge whose peak is
  /// io_in_flight_hwm.
  std::atomic<uint64_t> io_in_flight_{0};
};

}  // namespace xtc

#endif  // XTC_STORAGE_BUFFER_MANAGER_H_
