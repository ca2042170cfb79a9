// ARIES-lite write-ahead log (DESIGN.md §6).
//
// The log is a single sequential byte stream: a 16-byte header
// ([magic u64][reserved u64, written as zero]) followed by CRC-framed
// records, each [u32 len][u32 crc][payload]. A record's
// LSN is its start offset; its *end offset* (start + frame + payload)
// is what gets stamped into the page header of every page whose
// after-image it carries, so "page reflects record" is the simple
// comparison page_lsn >= record end.
//
// Record catalog:
//   kUpdate      one logical document operation: tx id, prev-LSN chain
//                link, a logical undo description (UndoOp), the current
//                B+-tree attach points (roots/counts — volatile state a
//                restart must rebuild), and full after-images of every
//                page the operation dirtied (page-level redo).
//   kCommit      tx id, global commit sequence number, and an opaque
//                payload (the TaMix harness stores {tx type, body seed}
//                so recovery can replay committed work for ground-truth
//                equivalence). Appending it forces the log durable
//                through the record (group commit: everything buffered
//                ahead of it flushes too).
//   kEnd         tx id; the transaction's rollback finished. Losers are
//                transactions with update records but neither commit
//                nor end.
//   kVocab       (surrogate, element name) — vocabulary assignments are
//                volatile state; the record is appended under the
//                vocabulary mutex when a new surrogate is handed out,
//                so it precedes any logged operation that uses it.
//   kCheckpoint  fuzzy checkpoint: active-tx table (tx -> last LSN),
//                dirty-page table (page -> recovery LSN), vocabulary
//                snapshot, tree attach points. Taken under the document
//                latch so the tables and the attach points are mutually
//                consistent.
//
// Rollback logs no compensation-record type: undo (at runtime abort and
// during restart recovery alike) applies inverse operations through the
// ordinary logged-update path under the loser's tx id and finishes with
// kEnd. Re-crashing during recovery therefore just grows the chain with
// undo-of-undo records; repeating the procedure converges because every
// UndoOp kind has an exact logged inverse.
//
// Durability is simulated: bytes beyond durable_lsn_ are the in-memory
// group-commit buffer; Sync advances the watermark in flush_chunk-sized
// steps, evaluating the wal.flush (clean failure) and crash.wal (torn
// tail + hard kill) fault points per step. After a crash every append
// and flush fails and DurableImage() returns exactly the bytes a real
// process would find in the log file.

#ifndef XTC_WAL_WAL_H_
#define XTC_WAL_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/page.h"
#include "util/crash_switch.h"
#include "util/fault_injector.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xtc {

using Lsn = uint64_t;  // byte offset into the log; 0 = none/invalid

inline constexpr uint64_t kWalMagic = 0x58544357414c3031ULL;  // "XTCWAL01"
inline constexpr Lsn kWalHeaderSize = 16;

// --- logical undo descriptions ---------------------------------------------

enum class UndoKind : uint8_t {
  kNone = 0,           // nothing to undo (op failed before changing logic)
  kUpdateContent = 1,  // restore a node's previous content
  kRenameElement = 2,  // restore an element's previous name surrogate
  kRemoveSubtree = 3,  // remove the subtree the op inserted
  kRestoreNodes = 4,   // re-insert the nodes the op removed (document order)
  kRemoveNodes = 5,    // remove individually stored nodes (reverse order)
};

struct UndoNode {
  std::string splid;  // encoded Splid
  uint8_t kind = 0;   // NodeKind as stored
  uint32_t name = 0;  // name surrogate
  std::string content;
};

struct UndoOp {
  UndoKind kind = UndoKind::kNone;
  std::string splid;    // target (kUpdateContent/kRenameElement/kRemoveSubtree)
  std::string content;  // previous content (kUpdateContent)
  uint32_t name = 0;    // previous surrogate (kRenameElement)
  std::vector<UndoNode> nodes;  // kRestoreNodes (full) / kRemoveNodes (splids)
};

/// Volatile attach points of the three B+-trees; piggybacked on every
/// update record (last one seen during the log scan wins) and snapshot
/// in checkpoints.
struct WalTreeMeta {
  PageId doc_root = kInvalidPageId;
  uint64_t doc_count = 0;
  PageId elem_root = kInvalidPageId;
  uint64_t elem_count = 0;
  PageId id_root = kInvalidPageId;
  uint64_t id_count = 0;

  bool operator==(const WalTreeMeta&) const = default;
};

// --- decoded records (recovery) --------------------------------------------

enum class WalRecordType : uint8_t {
  kUpdate = 1,
  kCommit = 2,
  kEnd = 3,
  kVocab = 4,
  kCheckpoint = 5,
};

/// One logged after-image. `bytes` views the log image the record was
/// decoded from (ReadFrame/ScanDurable copy no page), so a decoded
/// record's page images live exactly as long as that image: keep it
/// alive and unchanged while the record is in use.
struct WalPageImage {
  PageId id = kInvalidPageId;
  std::string_view bytes;
};

struct WalRecord {
  WalRecordType type = WalRecordType::kUpdate;
  Lsn lsn = 0;      // start offset
  Lsn end_lsn = 0;  // offset just past the record (stamped into pages)
  uint64_t tx = 0;
  Lsn prev_lsn = 0;                 // kUpdate: previous record of this tx
  UndoOp undo;                      // kUpdate
  WalTreeMeta meta;                 // kUpdate, kCheckpoint
  std::vector<WalPageImage> pages;  // kUpdate
  uint64_t commit_seq = 0;          // kCommit
  std::string payload;              // kCommit
  uint32_t surrogate = 0;           // kVocab
  std::string name;                 // kVocab
  std::vector<std::pair<uint64_t, Lsn>> active_txs;     // kCheckpoint
  std::vector<std::pair<PageId, Lsn>> dirty_pages;      // kCheckpoint
  std::vector<std::pair<uint32_t, std::string>> vocab;  // kCheckpoint
};

/// What the bytes at one log offset hold (Wal::ReadFrame).
enum class WalFrameKind : uint8_t {
  kRecord,      // a complete record whose CRC matched
  kIncomplete,  // the image ends inside the frame; more bytes may follow
  kTorn,        // CRC mismatch or impossible length: the log ends here
};

struct WalFrame {
  WalFrameKind kind = WalFrameKind::kIncomplete;
  WalRecord record;  // kRecord only; record.end_lsn is the next offset
};

/// Every complete record of a log image (Wal::ScanDurable).
struct WalScan {
  std::vector<WalRecord> records;  // ascending lsn
  /// Offset just past the last complete record: the prefix a reopened
  /// log keeps (0 for the empty image).
  Lsn clean_end = 0;
  /// Bytes past clean_end hold an incomplete or torn record.
  bool torn_tail = false;
};

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;           // Sync/EnsureDurable calls that flushed
  uint64_t flush_failures = 0;  // clean wal.flush injections
  uint64_t commits_logged = 0;
  uint64_t checkpoints_taken = 0;
  // Restart-recovery counters (zero outside recovery; OpenDatabase sets
  // them on the wal it hands back so RunStats/report_metrics can expose
  // them — satellite of ISSUE 5).
  uint64_t records_redone = 0;
  uint64_t pages_redone = 0;
  uint64_t losers_undone = 0;

  /// Calls f(name, unit, field) for every field, const or mutable as `s`
  /// — the one place a field's name is written (tamix/metrics.cc).
  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("records_appended", "count", s.records_appended);
    f("bytes_appended", "B", s.bytes_appended);
    f("syncs", "count", s.syncs);
    f("flush_failures", "count", s.flush_failures);
    f("commits_logged", "count", s.commits_logged);
    f("checkpoints_taken", "count", s.checkpoints_taken);
    f("records_redone", "count", s.records_redone);
    f("pages_redone", "count", s.pages_redone);
    f("losers_undone", "count", s.losers_undone);
  }
};

struct WalOptions {
  /// Group-commit buffer granularity: Sync advances durability in steps
  /// of this many bytes, and a crash.wal kill tears inside one step.
  uint64_t flush_chunk = 4096;
  /// Evaluates wal.flush (clean flush failure on non-commit paths) and
  /// crash.wal (hard kill mid-flush). Null = no injection.
  FaultInjector* fault_injector = nullptr;
  /// Shared hard-kill switch; required for crash.* points to fire.
  CrashSwitch* crash_switch = nullptr;
};

class Wal : public WalBackend {
 public:
  explicit Wal(WalOptions options = {});
  /// Reopens from the durable image of a crashed instance. The image's
  /// existing bytes are all considered durable; new appends follow, so
  /// the image must end on a record boundary (ScanDurable's clean_end).
  Wal(WalOptions options, std::string durable_image);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // WalBackend (buffer-manager side):
  uint64_t DurableLsn() const override {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  uint64_t AppendedLsn() const override {
    return appended_lsn_.load(std::memory_order_acquire);
  }
  Status EnsureDurable(uint64_t lsn) override XTC_EXCLUDES(mu_);

  /// Copies one captured page: stamp `end_lsn` into the page header,
  /// then append the page bytes to *out. Called under the log mutex with
  /// the final record end offset, so the logged after-image and the
  /// buffered page carry the same LSN.
  using PageReader = std::function<void(PageId id, Lsn end_lsn,
                                        std::string* out)>;

  /// Appends an update record for one logical document operation.
  /// Returns the record's end LSN (also stamped into every listed page
  /// via `reader`). Never blocks on durability — redo images ride the
  /// group-commit buffer until a commit or an eviction forces them.
  Lsn AppendUpdate(uint64_t tx, const UndoOp& undo, const WalTreeMeta& meta,
                   const std::vector<PageId>& pages, uint32_t page_size,
                   const PageReader& reader) XTC_EXCLUDES(mu_);

  /// Appends the commit record and forces the log durable through it.
  /// On failure the record is guaranteed *absent* from the durable log
  /// (only a simulated hard kill can fail this path — clean wal.flush
  /// injections are not evaluated here, because a commit-flush failure
  /// is unrecoverable in a real engine and rollback after a possibly
  /// durable commit record would be unsound).
  Status AppendCommit(uint64_t tx, uint64_t commit_seq,
                      std::string_view payload) XTC_EXCLUDES(mu_);

  /// Appends the end-of-rollback record for `tx` (not forced).
  void AppendEnd(uint64_t tx) XTC_EXCLUDES(mu_);

  /// Appends a vocabulary assignment (not forced; WAL-before-data and
  /// commit forcing make it durable before any durable reference).
  void AppendVocab(uint32_t surrogate, std::string_view name)
      XTC_EXCLUDES(mu_);

  /// Appends a fuzzy checkpoint and forces it durable. The caller
  /// (Document::LogCheckpoint) holds the document latch so tables and
  /// attach points are consistent.
  Status AppendCheckpoint(
      const std::vector<std::pair<PageId, Lsn>>& dirty_pages,
      const std::vector<std::pair<uint32_t, std::string>>& vocab,
      const WalTreeMeta& meta) XTC_EXCLUDES(mu_);

  /// Forces everything appended so far durable.
  Status Sync() XTC_EXCLUDES(mu_);

  /// Restores a transaction's prev-LSN chain head (recovery seeds the
  /// chains of loser transactions before undoing them).
  void SeedTxChain(uint64_t tx, Lsn last_lsn) XTC_EXCLUDES(mu_);

  /// The bytes a real process would find in the log file right now.
  std::string DurableImage() const XTC_EXCLUDES(mu_);

  /// Durable bytes in [from, DurableLsn()) — what a log shipper still
  /// owes its follower — capped at `max_bytes` (0 = uncapped). Readable
  /// after a crash too: the log device outlives the process, and
  /// failover drains it from here.
  std::string DurableSuffix(Lsn from, uint64_t max_bytes = 0) const
      XTC_EXCLUDES(mu_);

  WalStats stats() const XTC_EXCLUDES(mu_);
  void SetRecoveryCounters(uint64_t records_redone, uint64_t pages_redone,
                           uint64_t losers_undone) XTC_EXCLUDES(mu_);

  /// Active-transaction table (tx -> last update LSN) for checkpoints.
  std::vector<std::pair<uint64_t, Lsn>> ActiveTxTable() const
      XTC_EXCLUDES(mu_);

  // --- log-image parsing (static) ---
  /// OK for the empty image (a fresh log) or a valid header; DataLoss
  /// otherwise.
  static Status CheckHeader(std::string_view image);
  /// Reads the frame at `pos`: the one decoder of the frame layout,
  /// shared by restart, follower tailing and bootstrap. Checks the CRC
  /// once and decodes the record once; an error means a record whose
  /// CRC matched but whose payload does not parse. The record's page
  /// images view `image` (see WalPageImage), so a temporary string
  /// does not compile here.
  static StatusOr<WalFrame> ReadFrame(std::string_view image, Lsn pos);
  static StatusOr<WalFrame> ReadFrame(std::string&& image, Lsn pos) = delete;
  /// Decodes every complete record after a valid header. A torn or
  /// incomplete tail ends the scan (torn_tail); it is not an error. A
  /// bad header is. Reopening a log from image.substr(0, clean_end)
  /// drops the torn tail, so later appends stay visible to the next
  /// scan. Like ReadFrame, the records' page images view `image`.
  static StatusOr<WalScan> ScanDurable(std::string_view image);
  static StatusOr<WalScan> ScanDurable(std::string&& image) = delete;

 private:
  Lsn AppendRecordLocked(std::string payload) XTC_REQUIRES(mu_);
  Status SyncToLocked(Lsn upto, bool allow_clean_failure)
      XTC_REQUIRES(mu_);
  bool CrashedLocked() const XTC_REQUIRES(mu_);

  WalOptions options_;
  mutable Mutex mu_;
  /// Entire log: header + every appended record. [0, durable_) is "on
  /// disk"; the rest is the group-commit buffer.
  std::string buffer_ XTC_GUARDED_BY(mu_);
  Lsn durable_ XTC_GUARDED_BY(mu_) = kWalHeaderSize;
  std::unordered_map<uint64_t, Lsn> tx_last_lsn_ XTC_GUARDED_BY(mu_);
  WalStats stats_ XTC_GUARDED_BY(mu_);
  // Lock-free mirrors of buffer_.size()/durable_ so the buffer manager
  // can read watermarks while holding its own latch (no lock-order edge
  // from the pool latch into mu_).
  std::atomic<uint64_t> appended_lsn_{kWalHeaderSize};
  std::atomic<uint64_t> durable_lsn_{kWalHeaderSize};
};

/// Sets the transaction id that Document attributes logged operations
/// to, for the current thread. NodeManager brackets every mutating
/// operation with it; recovery/abort bracket undo application. Without
/// an active scope operations log as tx 0 (system work: bib generation,
/// checkpointing) which is never undone.
class ScopedWalTx {
 public:
  explicit ScopedWalTx(uint64_t tx) : previous_(current_) { current_ = tx; }
  ~ScopedWalTx() { current_ = previous_; }
  ScopedWalTx(const ScopedWalTx&) = delete;
  ScopedWalTx& operator=(const ScopedWalTx&) = delete;

  static uint64_t Current() { return current_; }

 private:
  uint64_t previous_;
  // Inline for the same UBSan TLS-wrapper reason as FaultInjector's
  // suppress_depth_.
  static inline thread_local uint64_t current_ = 0;
};

}  // namespace xtc

#endif  // XTC_WAL_WAL_H_
