#include "storage/page_file.h"

#include <chrono>
#include <thread>

#include "util/check.h"
#include "util/crash_switch.h"
#include "util/crc32.h"
#include "util/fault_injector.h"

namespace xtc {

namespace {

// CRC-32 of a page with its checksum field treated as zero, so the
// stored checksum does not feed its own computation.
uint32_t ComputePageChecksum(const uint8_t* data, uint32_t size) {
  static const uint8_t kZero[4] = {0, 0, 0, 0};
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, data, kPageChecksumOffset);
  crc = Crc32Update(crc, kZero, sizeof(kZero));
  crc = Crc32Update(crc, data + kPageChecksumOffset + 4,
                    size - kPageChecksumOffset - 4);
  return Crc32Finish(crc);
}

uint32_t LoadStoredChecksum(const uint8_t* data) {
  uint32_t v;
  std::memcpy(&v, data + kPageChecksumOffset, sizeof(v));
  return v;
}

bool Crashed(const StorageOptions& options) {
  return options.crash_switch != nullptr && options.crash_switch->crashed();
}

}  // namespace

void PageFile::StampChecksum(Page* stored, uint32_t page_size) {
  const uint32_t crc = ComputePageChecksum(stored->data(), page_size);
  std::memcpy(stored->data() + kPageChecksumOffset, &crc, sizeof(crc));
}

PageFile::PageFile(const StorageOptions& options) : options_(options) {}

PageFile::PageFile(const StorageOptions& options, const PageFileImage& image)
    : options_(options) {
  XTC_CHECK(image.pages.empty() || image.page_size == options.page_size,
            "page file image page size mismatch");
  MutexLock guard(mu_);
  pages_.reserve(image.pages.size());
  for (const std::string& bytes : image.pages) {
    XTC_CHECK(bytes.size() == options.page_size,
              "page file image holds a short page");
    auto page = std::make_unique<Page>(options.page_size);
    std::memcpy(page->data(), bytes.data(), bytes.size());
    pages_.push_back(std::move(page));
  }
  freed_.assign(image.freed.begin(), image.freed.end());
  freed_.resize(pages_.size(), false);
  for (PageId id = 1; id <= pages_.size(); ++id) {
    if (freed_[id - 1]) free_list_.push_back(id);
  }
}

PageId PageFile::Allocate() {
  MutexLock guard(mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    freed_[id - 1] = false;
    auto& slot = pages_[id - 1];
    std::memset(slot->data(), 0, slot->size());
    StampChecksum(slot.get(), options_.page_size);
    return id;
  }
  pages_.push_back(std::make_unique<Page>(options_.page_size));
  StampChecksum(pages_.back().get(), options_.page_size);
  freed_.push_back(false);
  return static_cast<PageId>(pages_.size());
}

Status PageFile::Read(PageId id, Page* out) {
  if (Crashed(options_)) {
    return Status::IoError("page file offline after simulated crash");
  }
  XTC_RETURN_IF_ERROR(
      MaybeInject(options_.fault_injector, fault_points::kIoRead));
  SimulateLatency();
  reads_.fetch_add(1, std::memory_order_relaxed);
  MutexLock guard(mu_);
  if (id == kInvalidPageId || id > pages_.size()) {
    return Status::InvalidArgument("page id out of range");
  }
  const uint8_t* stored = pages_[id - 1]->data();
  if (ComputePageChecksum(stored, options_.page_size) !=
      LoadStoredChecksum(stored)) {
    return Status::DataLoss("page " + std::to_string(id) +
                            " checksum mismatch (torn or corrupt)");
  }
  std::memcpy(out->data(), stored, options_.page_size);
  // The stored checksum is a device-level detail: readers get the field
  // zeroed (a freshly allocated page reads back as all zeros), and Write
  // restamps it from the bytes it is handed.
  std::memset(out->data() + kPageChecksumOffset, 0, 4);
  return Status::OK();
}

Status PageFile::Write(PageId id, const Page& in) {
  if (Crashed(options_)) {
    return Status::IoError("page file offline after simulated crash");
  }
  XTC_RETURN_IF_ERROR(
      MaybeInject(options_.fault_injector, fault_points::kIoWrite));
  SimulateLatency();
  writes_.fetch_add(1, std::memory_order_relaxed);
  MutexLock guard(mu_);
  if (id == kInvalidPageId || id > pages_.size()) {
    return Status::InvalidArgument("page id out of range");
  }
  Page* stored = pages_[id - 1].get();
  if (options_.crash_switch != nullptr && options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFail(fault_points::kCrashPage)) {
    // Hard kill mid write-back: a prefix of the new bytes lands over the
    // old ones and the checksum is NOT restamped, so the next Read of
    // this page (during recovery) reports kDataLoss and redo treats it
    // as lost. Tear strictly inside the page so it differs from both the
    // old and the new full image.
    if (options_.crash_switch->Trigger()) {
      const uint64_t torn =
          1 + options_.crash_switch->TearPoint(id, options_.page_size - 1);
      std::memcpy(stored->data(), in.data(), torn);
    }
    return Status::IoError("simulated crash during page write-back");
  }
  std::memcpy(stored->data(), in.data(), options_.page_size);
  StampChecksum(stored, options_.page_size);
  return Status::OK();
}

void PageFile::Free(PageId id) {
  if (Crashed(options_)) return;  // frozen: the free never reaches "disk"
  MutexLock guard(mu_);
  if (id == kInvalidPageId || id > pages_.size()) return;
  // Freeing an id twice would put it on the free list twice and make two
  // later Allocate() calls hand out the same page; already-free ids are
  // ignored.
  if (freed_[id - 1]) return;
  freed_[id - 1] = true;
  free_list_.push_back(id);
}

void PageFile::EnsureAllocated(PageId id) {
  MutexLock guard(mu_);
  while (pages_.size() < id) {
    pages_.push_back(std::make_unique<Page>(options_.page_size));
    StampChecksum(pages_.back().get(), options_.page_size);
    freed_.push_back(false);
  }
}

void PageFile::ResetFreeList(const std::vector<bool>& live) {
  MutexLock guard(mu_);
  free_list_.clear();
  freed_.assign(pages_.size(), false);
  for (PageId id = 1; id <= pages_.size(); ++id) {
    const bool is_live = id <= live.size() && live[id - 1];
    if (!is_live) {
      freed_[id - 1] = true;
      free_list_.push_back(id);
    }
  }
}

PageFileImage PageFile::CloneImage() const {
  MutexLock guard(mu_);
  PageFileImage image;
  image.page_size = options_.page_size;
  image.pages.reserve(pages_.size());
  for (const auto& page : pages_) {
    image.pages.emplace_back(reinterpret_cast<const char*>(page->data()),
                             page->size());
  }
  image.freed.assign(freed_.begin(), freed_.end());
  return image;
}

uint64_t PageFile::num_pages() const {
  MutexLock guard(mu_);
  return pages_.size() - free_list_.size();
}

void PageFile::SimulateLatency() {
  if (options_.io_latency_us == 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(options_.io_latency_us);
  // Device time is not CPU time: sleeping lets concurrent accesses
  // overlap their simulated latency the way real disk requests overlap,
  // even on a single core. Below ~50 us the scheduler's wakeup
  // granularity would dominate, so short latencies busy-wait instead.
  if (options_.io_latency_us >= 50) {
    std::this_thread::sleep_until(until);
  }
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace xtc
