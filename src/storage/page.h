// Fixed-size page abstraction shared by the page file, buffer manager and
// B+-tree.

#ifndef XTC_STORAGE_PAGE_H_
#define XTC_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

namespace xtc {

class FaultInjector;
class CrashSwitch;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0;

inline constexpr uint32_t kDefaultPageSize = 4096;

// --- WAL fields in the common page header ----------------------------------
// Every page reserves bytes [16, 28) ahead of its payload (SlottedPage's
// layout starts its cells after kHeaderSize = 28):
//   [16, 24)  page_lsn  — LSN (log end offset) of the last WAL record that
//                         included this page's after-image. 0 = the page has
//                         never been covered by a logged operation.
//   [24, 28)  checksum  — CRC-32 of the page with this field zeroed.
//                         Stamped by PageFile::Write / Allocate, verified by
//                         PageFile::Read (mismatch => kDataLoss).
inline constexpr uint32_t kPageLsnOffset = 16;
inline constexpr uint32_t kPageChecksumOffset = 24;
inline constexpr uint32_t kPageWalReservedEnd = 28;

/// A raw page buffer. Interpretation (slotted page layout) is provided by
/// SlottedPage in slotted_page.h.
class Page {
 public:
  explicit Page(uint32_t size) : data_(size, 0) {}

  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }
  uint32_t size() const { return static_cast<uint32_t>(data_.size()); }

 private:
  std::vector<uint8_t> data_;
};

inline uint64_t ReadPageLsn(const uint8_t* page_data) {
  uint64_t lsn;
  std::memcpy(&lsn, page_data + kPageLsnOffset, sizeof(lsn));
  return lsn;
}
inline uint64_t ReadPageLsn(const Page& page) {
  return ReadPageLsn(page.data());
}
inline void StampPageLsn(Page* page, uint64_t lsn) {
  std::memcpy(page->data() + kPageLsnOffset, &lsn, sizeof(lsn));
}

/// The WAL as the buffer manager sees it (declared here so the storage
/// layer need not depend on src/wal/). Implemented by xtc::Wal.
class WalBackend {
 public:
  virtual ~WalBackend() = default;
  /// Byte offset up to which the log is durable.
  virtual uint64_t DurableLsn() const = 0;
  /// Next append offset (every future record's LSN is >= this).
  virtual uint64_t AppendedLsn() const = 0;
  /// Forces the log durable through `lsn` (group-commit flush).
  virtual Status EnsureDurable(uint64_t lsn) = 0;
};

/// Tuning knobs for the storage substrate. The simulated I/O latency lets
/// benchmarks reproduce the cost asymmetry the paper attributes to
/// node-manager accesses that reach the disk (CLUSTER2 / Fig. 11).
struct StorageOptions {
  uint32_t page_size = kDefaultPageSize;
  /// Number of frames in the buffer pool.
  uint32_t buffer_pool_pages = 4096;
  /// Simulated latency per page-file read/write, microseconds (0 = off).
  uint32_t io_latency_us = 0;
  /// When set, PageFile evaluates "io.read"/"io.write" and BufferManager
  /// evaluates "buffer.pin" fault points (chaos testing; null = off).
  FaultInjector* fault_injector = nullptr;
  /// When set (crash-restart harness), PageFile evaluates the
  /// "crash.page" fault point on write-back and freezes all I/O once the
  /// switch has been triggered anywhere in the instance.
  CrashSwitch* crash_switch = nullptr;
};

/// `options` with the fault injector and the crash switch detached: the
/// storage a recovery, promotion or replay runs on when it must not be
/// injured itself.
inline StorageOptions FaultFreeStorage(StorageOptions options) {
  options.fault_injector = nullptr;
  options.crash_switch = nullptr;
  return options;
}

}  // namespace xtc

#endif  // XTC_STORAGE_PAGE_H_
