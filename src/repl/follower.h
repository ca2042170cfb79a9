// Replication follower (DESIGN.md §7): one warm standby fed by a
// LogShipper tailing the primary's durable log.
//
// The follower owns a Document opened from its base images (page file +
// buffer pool + trees) plus a local copy of the shipped log. Ingest
// appends shipped bytes and immediately applies every newly *complete*
// record through the shared RedoApplier — page after-images land in the
// follower's buffer pool (no flush required), the trees are reattached
// at each update record's attach points (which also drops their
// last-leaf hints, blind to pages the images changed), vocabulary and
// checkpoint records restore their snapshots, and commit records extend
// the follower's committed list and advance the applied watermark.
//
// Shipped bytes are durable on arrival (the primary only ships its
// durable prefix, and the follower "fsyncs" each chunk before acking),
// so the follower's crash artifacts are its page file's stored bytes
// plus its whole local log. What a kill loses is the *buffered* applied
// state — a restarted follower bootstraps from its own artifacts by
// re-running the same conditioned apply over its local log.
//
// Replica reads run at isolation NONE against the applied prefix: each
// read is consistent at a record boundary (Ingest holds the follower
// lock exclusively while applying), annotated with the applied LSN, and
// optionally refused when the follower lags the primary's durable tail
// by more than a configured bound (bounded staleness).
//
// Promotion (failover) turns the follower into a primary: flush the
// buffer pool and run ordinary restart recovery over the stored pages
// and the local log — its scan drops a torn shipped tail, and the undo
// pass rolls back transactions that never shipped a commit.
//
// Tailing, bootstrap and restart all read the log through Wal::ReadFrame,
// so each record's CRC is checked once and the record decoded once. Commit records are forced durable on the primary
// before the client learns of them, and failover drains the primary's
// surviving durable log before promoting, so promotion never loses an
// acknowledged commit.

#ifndef XTC_REPL_FOLLOWER_H_
#define XTC_REPL_FOLLOWER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "node/document.h"
#include "repl/repl_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "util/fault_injector.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace xtc {

struct FollowerOptions {
  /// Storage configuration for the follower's own substrate. The page
  /// size must match the primary's (logged after-images are full pages).
  /// `fault_injector`/`crash_switch` here are ignored; use the dedicated
  /// fields below so io.* chaos points never arm on the replica.
  StorageOptions storage;
  /// Splid distance parameter (must match the primary's document).
  uint32_t dist = 2;
  /// Refuse replica reads when the follower's applied watermark trails
  /// the primary's durable LSN by more than this many bytes (0 = serve
  /// arbitrarily stale reads).
  uint64_t max_staleness_bytes = 0;
  /// Evaluates crash.apply once per record applied; the follower's own
  /// kill site. Both must be set (and distinct from the primary's) for
  /// the point to fire.
  FaultInjector* fault_injector = nullptr;
  CrashSwitch* crash_switch = nullptr;
};

/// Staleness annotation returned with every replica read.
struct ReplicaReadView {
  Lsn applied_lsn = 0;       // record-boundary snapshot the read saw
  uint64_t lag_bytes = 0;    // primary durable bytes not yet applied
};

class Follower {
 public:
  /// Builds a follower from a base pair of images — either the primary's
  /// base checkpoint images (initial seeding) or a dead follower's own
  /// crash artifacts (restart). The log is replayed through the same
  /// conditioned apply path tailing uses, then a torn or incomplete tail
  /// truncates (the shipper re-ships from the new received watermark).
  /// The log opens with its base checkpoint, whose vocabulary and tree
  /// attach points the document opens with.
  static StatusOr<std::unique_ptr<Follower>> Bootstrap(
      const FollowerOptions& options, const PageFileImage& base_disk,
      const std::string& base_log);

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Appends shipped bytes to the local log ("durable" on return) and
  /// applies every newly complete record. `source_durable_lsn` is the
  /// primary's durable watermark at ship time (staleness accounting).
  /// A chunk ending mid-record leaves the tail pending — the next
  /// Ingest completes it. Fails without applying further records once
  /// crash.apply has fired (the follower is then "down" until the
  /// harness restarts it from DiskImage/LogImage).
  Status Ingest(std::string_view bytes, Lsn source_durable_lsn)
      XTC_EXCLUDES(mu_);

  /// Truncates any pending incomplete/torn tail so the local log ends on
  /// a record boundary; the shipper re-ships from the new received
  /// watermark. Returns the number of bytes dropped. Failover runs this
  /// before the final drain.
  uint64_t ResyncToCompleteRecord() XTC_EXCLUDES(mu_);

  // --- replica reads (isolation NONE at a record boundary) ---------------

  /// ID-index point lookup on the applied prefix.
  StatusOr<std::optional<Splid>> LookupId(std::string_view id,
                                          ReplicaReadView* view = nullptr)
      const XTC_EXCLUDES(mu_);

  /// Subtree read (document order, root included) on the applied prefix.
  StatusOr<std::vector<Node>> ReadSubtree(const Splid& root,
                                          ReplicaReadView* view = nullptr)
      const XTC_EXCLUDES(mu_);

  // --- failover ----------------------------------------------------------

  /// Promotes the follower: flush the pool and run restart recovery over
  /// the local log (losers roll back; parallel redo honoured via
  /// `recovery.redo_workers`). `storage`/`wal_options` configure the
  /// *new primary* — pass a fresh (or no) crash switch. The follower
  /// must not itself be crashed (restart it first). The follower is
  /// consumed: further Ingest calls fail.
  StatusOr<OpenResult> Promote(const StorageOptions& storage,
                               const WalOptions& wal_options,
                               const RecoveryOptions& recovery = {})
      XTC_EXCLUDES(mu_);

  // --- crash artifacts / introspection -----------------------------------

  /// The follower's stored page bytes — what its "disk" holds. Buffered
  /// (applied but unflushed) state is deliberately absent: a kill loses
  /// it, and restart re-derives it from the local log.
  PageFileImage DiskImage() const XTC_EXCLUDES(mu_);
  /// The local log copy (every shipped byte is durable on arrival).
  std::string LogImage() const XTC_EXCLUDES(mu_);

  Lsn received_lsn() const XTC_EXCLUDES(mu_);
  Lsn applied_lsn() const XTC_EXCLUDES(mu_);
  bool crashed() const;
  /// Commits applied so far, ascending commit seq.
  std::vector<RecoveredCommit> committed() const XTC_EXCLUDES(mu_);
  ReplicationStats stats() const XTC_EXCLUDES(mu_);

  /// Direct access for tests/invariant checks. The caller must guarantee
  /// no concurrent Ingest (the document is not snapshot-isolated).
  Document& document() { return *doc_; }
  const Document& document() const { return *doc_; }

 private:
  explicit Follower(const FollowerOptions& options);

  /// Applies every complete record in log_[scan_pos_, ...); stops at an
  /// incomplete or torn tail (not an error) or a crash.apply kill.
  Status ApplyCompleteRecordsLocked() XTC_REQUIRES(mu_);
  Status ApplyOneLocked(const WalRecord& record) XTC_REQUIRES(mu_);
  /// Truncates log_ to scan_pos_ and clears the parked torn tail;
  /// returns the number of bytes dropped.
  uint64_t DropUnappliedTailLocked() XTC_REQUIRES(mu_);
  uint64_t LagBytesLocked() const XTC_REQUIRES_SHARED(mu_);
  Status CheckReadableLocked() const XTC_REQUIRES_SHARED(mu_);

  FollowerOptions options_;
  std::unique_ptr<Document> doc_;  // set once in Bootstrap, then stable

  mutable SharedMutex mu_;
  std::string log_ XTC_GUARDED_BY(mu_);   // local durable log copy
  size_t scan_pos_ XTC_GUARDED_BY(mu_) = kWalHeaderSize;
  Lsn applied_lsn_ XTC_GUARDED_BY(mu_) = 0;
  Lsn source_durable_lsn_ XTC_GUARDED_BY(mu_) = 0;
  bool tail_torn_ XTC_GUARDED_BY(mu_) = false;  // CRC mismatch pending
  bool promoted_ XTC_GUARDED_BY(mu_) = false;
  WalTreeMeta meta_ XTC_GUARDED_BY(mu_);  // attach points of the trees
  std::vector<RecoveredCommit> committed_ XTC_GUARDED_BY(mu_);
  ReplicationStats stats_ XTC_GUARDED_BY(mu_);
};

}  // namespace xtc

#endif  // XTC_REPL_FOLLOWER_H_
