#include "storage/buffer_manager.h"

#include "util/check.h"
#include "util/fault_injector.h"

namespace xtc {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    id_ = other.id_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.bm_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kInvalidPageId;
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (bm_ != nullptr && page_ != nullptr) {
    bm_->Unpin(id_, dirty_);
  }
  bm_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPageId;
  dirty_ = false;
}

BufferManager::BufferManager(PageFile* file, const StorageOptions& options)
    : file_(file), options_(options), frames_(options.buffer_pool_pages) {
  free_frames_.reserve(frames_.size());
  for (size_t i = 0; i < frames_.size(); ++i) {
    free_frames_.push_back(frames_.size() - 1 - i);
  }
}

Status BufferManager::ReadPage(PageId id, Page* page) {
  ScopedIo io(this);
  return file_->Read(id, page);
}

Status BufferManager::WritePage(PageId id, const Page& page) {
  if (wal_ != nullptr) {
    // WAL-before-data: the page's bytes may not reach the file until the
    // log record that covers them is durable. page_lsn 0 means the page
    // was never part of a logged operation (bib generation runs before
    // the log is attached) and carries no ordering obligation.
    const uint64_t page_lsn = ReadPageLsn(page);
    if (page_lsn != 0) {
      Status st = wal_->EnsureDurable(page_lsn);
      if (!st.ok()) {
        // The caller keeps the frame cached and dirty, exactly as for a
        // failed page write (PR-1 invariant).
        return st.Annotate("WAL force before write-back of page " +
                           std::to_string(id));
      }
      XTC_CHECK(wal_->DurableLsn() >= page_lsn,
                "WAL-before-data violated: page write-back would overtake "
                "the durable log");
    }
  }
  ScopedIo io(this);
  return file_->Write(id, page);
}

PageGuard BufferManager::PinResident(size_t idx) {
  Frame& f = frames_[idx];
  if (f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  ++f.pin_count;
  return PageGuard(this, f.id, f.page.get());
}

StatusOr<PageGuard> BufferManager::Fetch(PageId id) {
  XTC_RETURN_IF_ERROR(
      MaybeInject(options_.fault_injector, fault_points::kBufferPin));
  MutexLock guard(mu_);
  for (;;) {
    auto it = table_.find(id);
    if (it != table_.end()) {
      size_t idx = it->second;
      Frame& f = frames_[idx];
      if (f.state == FrameState::kResident) {
        stats_.Add(&BufferPoolStats::hits);
        return PinResident(idx);
      }
      // kLoading: another fetch is already reading this page — coalesce
      // onto its read. kEvicting: wait for the write-back verdict (a
      // cancelled eviction resolves to a hit, a completed one to a miss).
      if (f.state == FrameState::kLoading) {
        stats_.Add(&BufferPoolStats::coalesced_fetches);
      }
      ++f.waiters;
      f.cv.wait(guard.native(), [&f, id] {
        return f.id != id || (f.state != FrameState::kLoading &&
                              f.state != FrameState::kEvicting);
      });
      --f.waiters;
      continue;  // re-check the table from scratch
    }
    int idx = FindVictim();
    if (idx < 0) {
      return Status::ResourceExhausted("buffer pool exhausted (all pinned)");
    }
    Frame& f = frames_[static_cast<size_t>(idx)];
    // FindVictim may have dropped the latch for a write-back; another
    // fetch can have cached `id` meanwhile. Return the frame and retry.
    if (table_.find(id) != table_.end()) {
      free_frames_.push_back(static_cast<size_t>(idx));
      continue;
    }
    stats_.Add(&BufferPoolStats::misses);
    if (!f.page) f.page = std::make_unique<Page>(file_->page_size());
    f.id = id;
    f.state = FrameState::kLoading;
    f.pin_count = 0;
    f.dirty = false;
    f.rec_lsn = 0;
    f.in_lru = false;
    table_[id] = static_cast<size_t>(idx);
    Page* page = f.page.get();  // stable: kLoading pins the frame mapping
    guard.Unlock();
    Status st = ReadPage(id, page);
    guard.Lock();
    if (!st.ok()) {
      table_.erase(id);
      f.id = kInvalidPageId;
      f.state = FrameState::kFree;
      free_frames_.push_back(static_cast<size_t>(idx));
      f.cv.notify_all();  // coalesced waiters retry (and re-read) themselves
      return st;
    }
    f.state = FrameState::kResident;
    f.pin_count = 1;
    f.cv.notify_all();
    return PageGuard(this, id, f.page.get());
  }
}

StatusOr<PageGuard> BufferManager::New() {
  MutexLock guard(mu_);
  int idx = FindVictim();
  if (idx < 0) {
    return Status::ResourceExhausted("buffer pool exhausted (all pinned)");
  }
  // Allocate only once a frame is secured: an exhausted pool must not
  // leak file pages under caller retry loops.
  PageId id = file_->Allocate();
  Frame& f = frames_[static_cast<size_t>(idx)];
  if (!f.page) f.page = std::make_unique<Page>(file_->page_size());
  std::memset(f.page->data(), 0, f.page->size());
  f.id = id;
  f.state = FrameState::kResident;
  f.pin_count = 1;
  f.dirty = true;  // must be written back even if never touched again
  f.rec_lsn = wal_ != nullptr ? wal_->AppendedLsn() : 0;
  f.in_lru = false;
  table_[id] = static_cast<size_t>(idx);
  if (capture_active_) capture_.insert(id);
  return PageGuard(this, id, f.page.get());
}

void BufferManager::Free(PageId id) {
  MutexLock guard(mu_);
  capture_.erase(id);  // a freed page has no after-image to log
  for (;;) {
    auto it = table_.find(id);
    if (it == table_.end()) break;
    Frame& f = frames_[it->second];
    if (f.state == FrameState::kLoading || f.state == FrameState::kEvicting) {
      // Let the in-flight I/O settle; dropping the frame under it would
      // hand the loader/evictor a recycled frame.
      ++f.waiters;
      f.cv.wait(guard.native(), [&f, id] {
        return f.id != id || (f.state != FrameState::kLoading &&
                              f.state != FrameState::kEvicting);
      });
      --f.waiters;
      continue;
    }
    XTC_CHECK(f.pin_count == 0, "BufferManager::Free of a pinned page");
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.id = kInvalidPageId;
    f.dirty = false;
    f.rec_lsn = 0;
    f.state = FrameState::kFree;
    free_frames_.push_back(it->second);
    table_.erase(it);
    break;
  }
  file_->Free(id);
}

Status BufferManager::FlushAll() {
  MutexLock guard(mu_);
  for (size_t idx = 0; idx < frames_.size(); ++idx) {
    Frame& f = frames_[idx];
    if (f.state != FrameState::kResident || !f.dirty || f.pin_count > 0) {
      continue;
    }
    // Captured pages are mid-operation (their covering log record does
    // not exist yet) and must not reach the file — same rule as the
    // victim scan.
    if (capture_active_ && capture_.count(f.id) != 0) continue;
    // kEvicting blocks new pins, so the page content is stable for the
    // duration of the write; the frame stays in the LRU list and victim
    // scans skip non-resident entries.
    f.state = FrameState::kEvicting;
    const PageId id = f.id;
    const Page* page = f.page.get();  // stable while kEvicting
    guard.Unlock();
    Status st = WritePage(id, *page);
    guard.Lock();
    f.state = FrameState::kResident;
    if (st.ok()) {
      f.dirty = false;
      f.rec_lsn = 0;
    }
    f.cv.notify_all();
    XTC_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

void BufferManager::BeginCapture() {
  MutexLock guard(mu_);
  XTC_CHECK(!capture_active_, "nested BufferManager capture scopes");
  capture_active_ = true;
  capture_.clear();
}

std::vector<PageId> BufferManager::CapturedPages() const {
  MutexLock guard(mu_);
  std::vector<PageId> pages(capture_.begin(), capture_.end());
  return pages;
}

void BufferManager::EndCapture() {
  MutexLock guard(mu_);
  XTC_CHECK(capture_active_, "EndCapture without BeginCapture");
  capture_active_ = false;
  capture_.clear();
}

std::vector<std::pair<PageId, uint64_t>> BufferManager::DirtyPageTable()
    const {
  MutexLock guard(mu_);
  std::vector<std::pair<PageId, uint64_t>> dpt;
  for (const Frame& f : frames_) {
    if (f.id == kInvalidPageId || !f.dirty) continue;
    if (f.state != FrameState::kResident && f.state != FrameState::kEvicting) {
      continue;
    }
    dpt.emplace_back(f.id, f.rec_lsn);
  }
  return dpt;
}

size_t BufferManager::PinnedFrames() const {
  MutexLock guard(mu_);
  size_t pinned = 0;
  for (const Frame& f : frames_) {
    if (f.id != kInvalidPageId && f.pin_count > 0) ++pinned;
  }
  return pinned;
}

size_t BufferManager::FramesInIo() const {
  MutexLock guard(mu_);
  size_t in_io = 0;
  for (const Frame& f : frames_) {
    if (f.state == FrameState::kLoading || f.state == FrameState::kEvicting) {
      ++in_io;
    }
  }
  return in_io;
}

void BufferManager::Unpin(PageId id, bool dirty) {
  MutexLock guard(mu_);
  auto it = table_.find(id);
  XTC_CHECK(it != table_.end(), "BufferManager::Unpin of an uncached page");
  Frame& f = frames_[it->second];
  XTC_CHECK(f.pin_count > 0, "BufferManager::Unpin without a pin");
  if (dirty) {
    if (!f.dirty && wal_ != nullptr) f.rec_lsn = wal_->AppendedLsn();
    f.dirty = true;
    if (capture_active_) capture_.insert(id);
  }
  if (--f.pin_count == 0) {
    lru_.push_front(it->second);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
  }
}

int BufferManager::FindVictim() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return static_cast<int>(idx);
  }
  // Frames already attempted in this call (write-back failed, or the
  // eviction was cancelled by a waiter): each restart of the scan marks
  // at least one, so the loop terminates within frames_.size() rounds.
  std::vector<bool> tried(frames_.size(), false);
  for (;;) {
    if (!free_frames_.empty()) {
      size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return static_cast<int>(idx);
    }
    // Least recently used first. A dirty frame whose write-back fails
    // (injected or real I/O error) must NOT be evicted — dropping it would
    // lose committed data outside any transaction's undo reach. It stays
    // cached and dirty; the scan moves on to the next candidate.
    bool restarted = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      size_t idx = *it;
      Frame& f = frames_[idx];
      if (tried[idx] || f.state != FrameState::kResident) continue;
      // Mid-operation pages (in the active capture set) are pinned in
      // spirit: their covering log record does not exist yet, so neither
      // a clean drop (losing un-redoable bytes' context) nor a dirty
      // write-back (WAL-before-data) is allowed.
      if (capture_active_ && capture_.count(f.id) != 0) continue;
      if (!f.dirty) {
        lru_.erase(std::next(it).base());
        f.in_lru = false;
        table_.erase(f.id);
        f.id = kInvalidPageId;
        f.state = FrameState::kFree;
        return static_cast<int>(idx);
      }
      // Dirty victim: write it back without the latch. The frame leaves
      // the LRU list (no second evictor can pick it) but stays in the
      // table in kEvicting so a concurrent fetch of this page waits for
      // the verdict instead of double-caching it.
      lru_.erase(std::next(it).base());
      f.in_lru = false;
      f.state = FrameState::kEvicting;
      const PageId victim_id = f.id;
      const Page* victim_page = f.page.get();  // stable while kEvicting
      stats_.Add(&BufferPoolStats::eviction_writebacks);
      mu_.unlock();
      Status st = WritePage(victim_id, *victim_page);
      mu_.lock();
      tried[idx] = true;
      if (!st.ok()) {
        stats_.Add(&BufferPoolStats::failed_writebacks);
        f.state = FrameState::kResident;  // keep it cached, still dirty
        lru_.push_front(idx);
        f.lru_pos = lru_.begin();
        f.in_lru = true;
        f.cv.notify_all();
      } else if (f.waiters > 0) {
        // Re-validate after the latch drop: a fetch arrived for the
        // victim while its write-back was in flight. Evicting now would
        // force an immediate re-read, so cancel — the frame stays
        // resident and is clean (the write persisted it).
        stats_.Add(&BufferPoolStats::cancelled_evictions);
        f.state = FrameState::kResident;
        f.dirty = false;
        f.rec_lsn = 0;
        lru_.push_front(idx);
        f.lru_pos = lru_.begin();
        f.in_lru = true;
        f.cv.notify_all();
      } else {
        table_.erase(victim_id);
        f.id = kInvalidPageId;
        f.dirty = false;
        f.rec_lsn = 0;
        f.state = FrameState::kFree;
        f.cv.notify_all();
        return static_cast<int>(idx);
      }
      // The latch was dropped: LRU iterators are stale, and free frames
      // may have appeared. Restart the scan, skipping tried frames.
      restarted = true;
      break;
    }
    if (restarted) continue;
    // No candidate in the LRU list. Frames mid-I/O are merely transient:
    // a finishing load or write-back can free one, so wait for a state
    // transition and rescan rather than failing. (The old global-latch
    // pool blocked here implicitly; reporting exhaustion instead leaks
    // spurious errors into multi-page tree mutations that are not
    // failure-atomic.) Note we do NOT register in f.waiters — that would
    // make the evictor cancel its eviction, and the scan wants the frame
    // released, not the page kept.
    size_t in_io = frames_.size();
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].state == FrameState::kLoading ||
          frames_[i].state == FrameState::kEvicting) {
        in_io = i;
        break;
      }
    }
    if (in_io == frames_.size()) return -1;  // genuinely exhausted
    Frame& w = frames_[in_io];
    // The wait needs a unique_lock; adopt the mu_ we already hold and
    // release it back un-owned afterwards — net lock state unchanged, so
    // this stays invisible to (and sound under) the analysis.
    std::unique_lock<std::mutex> lk(mu_.native(), std::adopt_lock);
    w.cv.wait(lk, [&w] {
      return w.state != FrameState::kLoading &&
             w.state != FrameState::kEvicting;
    });
    lk.release();
  }
}

}  // namespace xtc
