#include "repl/follower.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "storage/buffer_manager.h"
#include "util/check.h"
#include "wal/redo_applier.h"

namespace xtc {

namespace {

/// Redo sink over the follower's buffer pool: applied after-images stay
/// resident (replica reads see them without a flush) and only reach the
/// follower's "disk" on eviction or an applied checkpoint's flush —
/// which is exactly the state a kill is allowed to lose.
class BufferPageSink : public RedoPageSink {
 public:
  BufferPageSink(PageFile* file, BufferManager* buffer)
      : file_(file), buffer_(buffer) {}

  Status ApplyImage(PageId id, Lsn end_lsn, std::string_view bytes,
                    bool* applied) override {
    *applied = false;
    XTC_CHECK(bytes.size() == file_->page_size(),
              "follower redo: logged page size does not match the store");
    file_->EnsureAllocated(id);
    StatusOr<PageGuard> guard = buffer_->Fetch(id);
    if (!guard.ok()) {
      if (!guard.status().IsDataLoss()) {
        return guard.status().Annotate("follower redo: fetch of page " +
                                       std::to_string(id));
      }
      // Torn stored page (possible on a follower restarted mid-flush):
      // repair it directly in the file; the next fetch reads it back.
      Page image(file_->page_size());
      std::memcpy(image.data(), bytes.data(), bytes.size());
      Status write = file_->Write(id, image);
      if (!write.ok()) {
        return write.Annotate("follower redo: repair of page " +
                              std::to_string(id));
      }
      *applied = true;
      return Status::OK();
    }
    if (ReadPageLsn(*guard->page()) >= end_lsn) return Status::OK();
    std::memcpy(guard->page()->data(), bytes.data(), bytes.size());
    guard->MarkDirty();
    *applied = true;
    return Status::OK();
  }

 private:
  PageFile* file_;
  BufferManager* buffer_;
};

}  // namespace

Follower::Follower(const FollowerOptions& options) : options_(options) {
  // The replica's substrate never arms io.*/buffer.* chaos points; its
  // only injected failure mode is the crash.apply kill, evaluated here
  // in Ingest. The crash switch *is* wired through so a fired kill
  // freezes the follower's page I/O exactly like a primary kill does.
  options_.storage.fault_injector = nullptr;
  options_.storage.crash_switch = options.crash_switch;
}

StatusOr<std::unique_ptr<Follower>> Follower::Bootstrap(
    const FollowerOptions& options, const PageFileImage& base_disk,
    const std::string& base_log) {
  XTC_RETURN_IF_ERROR(Wal::CheckHeader(base_log));
  // The base checkpoint opens every follower log; the document opens from it.
  XTC_ASSIGN_OR_RETURN(const WalFrame first,
                       Wal::ReadFrame(base_log, kWalHeaderSize));
  if (first.kind != WalFrameKind::kRecord ||
      first.record.type != WalRecordType::kCheckpoint) {
    return Status::InvalidArgument(
        "follower bootstrap: base log does not open with a complete "
        "checkpoint (seed the follower from a checkpointed primary image)");
  }
  std::unique_ptr<Follower> follower(new Follower(options));
  XTC_ASSIGN_OR_RETURN(follower->doc_, Document::Open(
      follower->options_.storage,
      DocumentSnapshot{base_disk, first.record.vocab, first.record.meta},
      options.dist));
  WriterMutexLock lock(follower->mu_);
  follower->meta_ = first.record.meta;
  follower->log_ = base_log;
  XTC_RETURN_IF_ERROR(follower->ApplyCompleteRecordsLocked());
  // A torn or incomplete base tail goes; the shipper re-ships from the
  // received watermark.
  follower->DropUnappliedTailLocked();
  // Until the first shipped chunk reports the primary's watermark, the
  // best staleness estimate is "we have everything" relative to the
  // base images we were seeded from.
  follower->source_durable_lsn_ = follower->log_.size();
  return follower;
}

Status Follower::Ingest(std::string_view bytes, Lsn source_durable_lsn) {
  WriterMutexLock lock(mu_);
  if (promoted_) {
    return Status::InvalidArgument("follower: already promoted");
  }
  if (crashed()) {
    return Status::IoError("follower offline (simulated crash)");
  }
  log_.append(bytes.data(), bytes.size());
  source_durable_lsn_ = std::max(source_durable_lsn_, source_durable_lsn);
  return ApplyCompleteRecordsLocked();
}

Status Follower::ApplyCompleteRecordsLocked() {
  while (!tail_torn_) {
    XTC_ASSIGN_OR_RETURN(WalFrame frame, Wal::ReadFrame(log_, scan_pos_));
    if (frame.kind == WalFrameKind::kIncomplete) break;  // wait for more
    if (frame.kind == WalFrameKind::kTorn) {
      // Torn record shipped whole: the scan parks here until the
      // harness resyncs (truncate + re-ship); it is not an error.
      tail_torn_ = true;
      break;
    }
    // The follower's kill site: it dies after acking the chunk (the
    // bytes are on its log device) but before applying the record, so
    // everything the buffer pool held is lost with it.
    if (options_.fault_injector != nullptr &&
        options_.crash_switch != nullptr &&
        options_.fault_injector->ShouldFail(fault_points::kCrashApply)) {
      options_.crash_switch->Trigger();
      return Status::IoError(
          "injected fault at crash.apply: follower killed mid apply");
    }
    // The record's page images view log_, so it is applied before log_
    // changes again.
    XTC_RETURN_IF_ERROR(ApplyOneLocked(frame.record));
    scan_pos_ = frame.record.end_lsn;
    applied_lsn_ = frame.record.end_lsn;
    ++stats_.records_applied;
  }
  return Status::OK();
}

Status Follower::ApplyOneLocked(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kUpdate: {
      BufferPageSink sink(&doc_->page_file(), &doc_->buffer());
      RedoApplier redo(&sink);
      XTC_RETURN_IF_ERROR(redo.ApplyRecord(record).status());
      stats_.pages_applied += redo.stats().pages_redone;
      // Reattach even when roots and counts are unchanged: the images
      // bypassed the trees, so a page the primary freed or handed to
      // another tree may still be some tree's last-leaf hint here.
      // Fresh trees start without hints.
      XTC_RETURN_IF_ERROR(
          doc_->ReattachTrees(record.meta).Annotate("follower reattach"));
      if (meta_ != record.meta) ++stats_.reattaches;
      meta_ = record.meta;
      return Status::OK();
    }
    case WalRecordType::kCommit:
      committed_.push_back(
          RecoveredCommit{record.tx, record.commit_seq, record.payload});
      ++stats_.commits_applied;
      return Status::OK();
    case WalRecordType::kEnd:
      return Status::OK();  // rollback bookkeeping; nothing to apply
    case WalRecordType::kVocab:
      return doc_->vocabulary()
          .RestoreEntry(record.surrogate, record.name)
          .Annotate("follower vocab");
    case WalRecordType::kCheckpoint: {
      for (const auto& [surrogate, name] : record.vocab) {
        XTC_RETURN_IF_ERROR(doc_->vocabulary()
                                .RestoreEntry(surrogate, name)
                                .Annotate("follower checkpoint vocab"));
      }
      if (meta_ != record.meta) {
        XTC_RETURN_IF_ERROR(doc_->ReattachTrees(record.meta)
                                .Annotate("follower checkpoint reattach"));
        meta_ = record.meta;
        ++stats_.reattaches;
      }
      // Mirror the primary's checkpoint on the replica: flush the pool
      // so the follower's disk catches up and a restart replays less.
      XTC_RETURN_IF_ERROR(
          doc_->buffer().FlushAll().Annotate("follower checkpoint flush"));
      ++stats_.checkpoints_applied;
      return Status::OK();
    }
  }
  return Status::DataLoss("follower: unknown record type");
}

uint64_t Follower::DropUnappliedTailLocked() {
  const uint64_t dropped = log_.size() - scan_pos_;
  log_.resize(scan_pos_);
  tail_torn_ = false;
  return dropped;
}

uint64_t Follower::ResyncToCompleteRecord() {
  WriterMutexLock lock(mu_);
  const uint64_t dropped = DropUnappliedTailLocked();
  if (dropped > 0) ++stats_.resyncs;
  return dropped;
}

uint64_t Follower::LagBytesLocked() const {
  return source_durable_lsn_ > applied_lsn_ ? source_durable_lsn_ - applied_lsn_
                                            : 0;
}

Status Follower::CheckReadableLocked() const {
  if (promoted_) {
    return Status::InvalidArgument("replica read: follower was promoted");
  }
  if (crashed()) {
    return Status::IoError("replica read: follower offline");
  }
  const uint64_t lag = LagBytesLocked();
  if (options_.max_staleness_bytes > 0 && lag > options_.max_staleness_bytes) {
    return Status::ResourceExhausted(
        "replica read refused: lag " + std::to_string(lag) +
        " bytes exceeds staleness bound " +
        std::to_string(options_.max_staleness_bytes));
  }
  return Status::OK();
}

StatusOr<std::optional<Splid>> Follower::LookupId(std::string_view id,
                                                  ReplicaReadView* view) const {
  ReaderMutexLock lock(mu_);
  XTC_RETURN_IF_ERROR(CheckReadableLocked());
  if (view != nullptr) *view = ReplicaReadView{applied_lsn_, LagBytesLocked()};
  return doc_->LookupId(id);
}

StatusOr<std::vector<Node>> Follower::ReadSubtree(const Splid& root,
                                                  ReplicaReadView* view) const {
  ReaderMutexLock lock(mu_);
  XTC_RETURN_IF_ERROR(CheckReadableLocked());
  if (view != nullptr) *view = ReplicaReadView{applied_lsn_, LagBytesLocked()};
  return doc_->Subtree(root);
}

StatusOr<OpenResult> Follower::Promote(const StorageOptions& storage,
                                       const WalOptions& wal_options,
                                       const RecoveryOptions& recovery) {
  WriterMutexLock lock(mu_);
  if (promoted_) return Status::InvalidArgument("follower: already promoted");
  if (crashed()) {
    return Status::IoError(
        "cannot promote a crashed follower; restart it from its artifacts "
        "first");
  }
  // Persist the applied-but-buffered state, then run ordinary restart
  // recovery over (stored pages, local log): redo is a no-op for
  // everything flushed, the scan drops a torn shipped tail, and the undo
  // pass rolls back transactions whose commit never shipped.
  XTC_RETURN_IF_ERROR(
      doc_->buffer().FlushAll().Annotate("promote: follower flush"));
  StatusOr<OpenResult> opened =
      OpenDatabase(storage, wal_options, doc_->page_file().CloneImage(), log_,
                   options_.dist, nullptr, recovery);
  if (opened.ok()) promoted_ = true;
  return opened;
}

PageFileImage Follower::DiskImage() const {
  ReaderMutexLock lock(mu_);
  return doc_->page_file().CloneImage();
}

std::string Follower::LogImage() const {
  ReaderMutexLock lock(mu_);
  return log_;
}

Lsn Follower::received_lsn() const {
  ReaderMutexLock lock(mu_);
  return log_.size();
}

Lsn Follower::applied_lsn() const {
  ReaderMutexLock lock(mu_);
  return applied_lsn_;
}

bool Follower::crashed() const {
  return options_.crash_switch != nullptr && options_.crash_switch->crashed();
}

std::vector<RecoveredCommit> Follower::committed() const {
  ReaderMutexLock lock(mu_);
  std::vector<RecoveredCommit> out = committed_;
  std::sort(out.begin(), out.end(),
            [](const RecoveredCommit& a, const RecoveredCommit& b) {
              return a.seq < b.seq;
            });
  return out;
}

ReplicationStats Follower::stats() const {
  ReaderMutexLock lock(mu_);
  ReplicationStats out = stats_;
  out.enabled = true;
  out.applied_lsn = applied_lsn_;
  out.received_lsn = log_.size();
  out.source_durable_lsn = source_durable_lsn_;
  return out;
}

}  // namespace xtc
