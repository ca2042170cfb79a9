// Restart recovery (ARIES-lite, DESIGN.md §6): rebuilds a consistent
// Document from the two artifacts a hard kill leaves behind — the page
// file's stored bytes and the durable prefix of the log.
//
//   1. Analysis   one scan of the whole durable log; the last complete
//                 checkpoint seeds the tables, and the records after it
//                 yield the loser transactions (updates but neither
//                 commit nor end), the latest tree attach points and
//                 vocabulary. Committed transactions (+ their payloads)
//                 come from the whole log. The torn tail is dropped.
//   2. Redo       replay full-page after-images from the minimum
//                 recovery LSN, conditioned on each stored page's LSN —
//                 torn or lost pages (checksum mismatch / short file)
//                 are simply overwritten.
//   3. Undo       roll the losers back in reverse-LSN order through the
//                 ordinary logical-undo operations, logging the
//                 compensations so a crash *during* recovery just grows
//                 the chains; finish each loser with an end record.
//
// Recovery runs through the same fault-evaluating I/O paths as normal
// operation, so the crash harness can kill it mid-flight and re-recover
// from the artifacts it returns.

#ifndef XTC_WAL_RECOVERY_H_
#define XTC_WAL_RECOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "node/document.h"
#include "storage/page_file.h"
#include "util/status.h"
#include "wal/wal.h"

namespace xtc {

struct RecoveryStats {
  bool performed = false;  // false on a fresh (empty-image) open
  bool torn_log_tail = false;
  Lsn checkpoint_lsn = 0;
  uint64_t records_scanned = 0;
  uint64_t records_redone = 0;
  uint64_t pages_redone = 0;
  uint64_t losers_undone = 0;
};

/// One committed transaction recovered from the log, in commit order.
struct RecoveredCommit {
  uint64_t tx = 0;
  uint64_t seq = 0;
  std::string payload;  // opaque bytes the committer stored (replay seed)
};

/// Filled when recovery itself dies to a simulated crash: the artifacts
/// the *next* recovery attempt starts from.
struct CrashArtifacts {
  PageFileImage disk_image;
  std::string log_image;
};

struct OpenResult {
  std::unique_ptr<Wal> wal;
  std::unique_ptr<Document> doc;
  RecoveryStats stats;
  std::vector<RecoveredCommit> committed;  // ascending commit seq
};

struct RecoveryOptions {
  /// Redo worker pool size (>1 partitions the redo scan by page id;
  /// per-page LSN order is preserved — see wal/redo_applier.h). The
  /// analysis and undo passes stay single-threaded.
  int redo_workers = 1;
};

/// Opens (or recovers) a database from crash images. Empty images mean a
/// fresh database. `storage`/`wal_options` carry the *new* instance's
/// fault injector and crash switch — pass a fresh (or no) CrashSwitch,
/// not the triggered one from the dead instance. On a simulated crash
/// during recovery, `crash_artifacts` (if non-null) receives the frozen
/// state alongside the error so the caller can try again.
StatusOr<OpenResult> OpenDatabase(const StorageOptions& storage,
                                  const WalOptions& wal_options,
                                  const PageFileImage& disk_image,
                                  const std::string& log_image,
                                  uint32_t dist = 2,
                                  CrashArtifacts* crash_artifacts = nullptr,
                                  const RecoveryOptions& recovery = {});

}  // namespace xtc

#endif  // XTC_WAL_RECOVERY_H_
