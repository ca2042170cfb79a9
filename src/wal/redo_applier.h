// RedoApplier: the one redo engine shared by restart recovery
// (src/wal/recovery.cc) and follower tailing (src/repl/follower.cc), so
// the two paths cannot drift apart.
//
// Redo is conditioned per page: a logged after-image is applied iff the
// stored page does not already reflect the record (stored page_lsn <
// record end offset), and unconditionally when the stored page is torn
// (checksum mismatch => kDataLoss) — the full-page image repairs it.
// Where the repaired bytes land is a RedoPageSink: restart recovery
// writes straight to the reopened PageFile, the follower applies through
// its buffer pool so replica reads see the tailed state without a flush.
//
// Parallel mode (restart only): ApplyAll partitions the *pages* of a
// record batch across a worker pool. Every page is owned by exactly one
// worker, which applies that page's images in log order — per-page LSN
// order is preserved by construction, and workers never touch the same
// page. The speedup comes from overlapping simulated device latency
// (PageFile sleeps outside its mutex); bench/micro_recovery measures it.

#ifndef XTC_WAL_REDO_APPLIER_H_
#define XTC_WAL_REDO_APPLIER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/page_file.h"
#include "util/status.h"
#include "wal/wal.h"

namespace xtc {

/// Where redo lands one logged after-image. Implementations must be
/// thread-safe when used with ApplyAll(workers > 1).
class RedoPageSink {
 public:
  virtual ~RedoPageSink() = default;

  /// Applies `bytes` (a full page image covered through `end_lsn`, a
  /// view into the log image) to page `id` iff the stored page does not
  /// already reflect it; *applied reports whether the write happened.
  /// Must allocate the page when the store lost it and treat a torn
  /// stored page as "apply".
  virtual Status ApplyImage(PageId id, Lsn end_lsn, std::string_view bytes,
                            bool* applied) = 0;
};

/// Sink over a raw PageFile (restart recovery: no buffer pool exists
/// yet). PageFile I/O is internally synchronized, so this sink is safe
/// under parallel ApplyAll.
class FilePageSink : public RedoPageSink {
 public:
  explicit FilePageSink(PageFile* file) : file_(file) {}
  Status ApplyImage(PageId id, Lsn end_lsn, std::string_view bytes,
                    bool* applied) override;

 private:
  PageFile* file_;
};

struct RedoApplierStats {
  uint64_t records_redone = 0;  // records with at least one applied page
  uint64_t pages_redone = 0;    // page images actually written
  uint64_t pages_skipped = 0;   // images the store already reflected
  int workers = 1;              // pool size the batch ran with
};

class RedoApplier {
 public:
  explicit RedoApplier(RedoPageSink* sink) : sink_(sink) {}

  /// Applies one update record's page images in order (serial path;
  /// follower tailing applies records one by one as they arrive).
  /// Non-update records are ignored. Returns whether any page applied.
  StatusOr<bool> ApplyRecord(const WalRecord& record);

  /// Batch redo of every update record with lsn >= redo_start,
  /// partitioned by page id across `workers` threads (1 = serial, same
  /// result). On the first error the remaining work is abandoned and
  /// that error returned — the sink's store may then be partially
  /// repaired, exactly like a serial redo that died midway.
  Status ApplyAll(const std::vector<WalRecord>& records, Lsn redo_start,
                  int workers = 1);

  const RedoApplierStats& stats() const { return stats_; }

 private:
  RedoPageSink* sink_;
  RedoApplierStats stats_;
};

}  // namespace xtc

#endif  // XTC_WAL_REDO_APPLIER_H_
