#include "wal/wal.h"

#include <algorithm>

#include "util/check.h"
#include "util/crc32.h"

namespace xtc {

namespace {

// --- little-endian serialization helpers ---

template <typename T>
void PutInt(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutBytes16(std::string* out, std::string_view bytes) {
  XTC_CHECK(bytes.size() <= 0xffff, "wal: byte field too long for u16 length");
  PutInt<uint16_t>(out, static_cast<uint16_t>(bytes.size()));
  out->append(bytes.data(), bytes.size());
}

void PutBytes32(std::string* out, std::string_view bytes) {
  PutInt<uint32_t>(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes.data(), bytes.size());
}

void PutMeta(std::string* out, const WalTreeMeta& meta) {
  PutInt<uint32_t>(out, meta.doc_root);
  PutInt<uint64_t>(out, meta.doc_count);
  PutInt<uint32_t>(out, meta.elem_root);
  PutInt<uint64_t>(out, meta.elem_count);
  PutInt<uint32_t>(out, meta.id_root);
  PutInt<uint64_t>(out, meta.id_count);
}
void PutUndo(std::string* out, const UndoOp& undo) {
  PutInt<uint8_t>(out, static_cast<uint8_t>(undo.kind));
  switch (undo.kind) {
    case UndoKind::kNone:
      break;
    case UndoKind::kUpdateContent:
      PutBytes16(out, undo.splid);
      PutBytes32(out, undo.content);
      break;
    case UndoKind::kRenameElement:
      PutBytes16(out, undo.splid);
      PutInt<uint32_t>(out, undo.name);
      break;
    case UndoKind::kRemoveSubtree:
      PutBytes16(out, undo.splid);
      break;
    case UndoKind::kRestoreNodes:
      PutInt<uint32_t>(out, static_cast<uint32_t>(undo.nodes.size()));
      for (const UndoNode& node : undo.nodes) {
        PutBytes16(out, node.splid);
        PutInt<uint8_t>(out, node.kind);
        PutInt<uint32_t>(out, node.name);
        PutBytes32(out, node.content);
      }
      break;
    case UndoKind::kRemoveNodes:
      PutInt<uint32_t>(out, static_cast<uint32_t>(undo.nodes.size()));
      for (const UndoNode& node : undo.nodes) {
        PutBytes16(out, node.splid);
      }
      break;
  }
}

// --- bounds-checked deserialization ---

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  T ReadInt() {
    T v{};
    if (pos_ + sizeof(T) > bytes_.size()) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// The next `n` bytes as a view into the decoded image.
  std::string_view ReadView(size_t n) {
    if (pos_ + n > bytes_.size()) {
      ok_ = false;
      return {};
    }
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::string ReadBytes16() {
    return std::string(ReadView(ReadInt<uint16_t>()));
  }
  std::string ReadBytes32() {
    return std::string(ReadView(ReadInt<uint32_t>()));
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

WalTreeMeta ReadMeta(ByteReader* in) {
  WalTreeMeta meta;
  meta.doc_root = in->ReadInt<uint32_t>();
  meta.doc_count = in->ReadInt<uint64_t>();
  meta.elem_root = in->ReadInt<uint32_t>();
  meta.elem_count = in->ReadInt<uint64_t>();
  meta.id_root = in->ReadInt<uint32_t>();
  meta.id_count = in->ReadInt<uint64_t>();
  return meta;
}

UndoOp ReadUndo(ByteReader* in) {
  UndoOp undo;
  undo.kind = static_cast<UndoKind>(in->ReadInt<uint8_t>());
  switch (undo.kind) {
    case UndoKind::kNone:
      break;
    case UndoKind::kUpdateContent:
      undo.splid = in->ReadBytes16();
      undo.content = in->ReadBytes32();
      break;
    case UndoKind::kRenameElement:
      undo.splid = in->ReadBytes16();
      undo.name = in->ReadInt<uint32_t>();
      break;
    case UndoKind::kRemoveSubtree:
      undo.splid = in->ReadBytes16();
      break;
    case UndoKind::kRestoreNodes: {
      const uint32_t n = in->ReadInt<uint32_t>();
      for (uint32_t i = 0; i < n && in->ok(); ++i) {
        UndoNode node;
        node.splid = in->ReadBytes16();
        node.kind = in->ReadInt<uint8_t>();
        node.name = in->ReadInt<uint32_t>();
        node.content = in->ReadBytes32();
        undo.nodes.push_back(std::move(node));
      }
      break;
    }
    case UndoKind::kRemoveNodes: {
      const uint32_t n = in->ReadInt<uint32_t>();
      for (uint32_t i = 0; i < n && in->ok(); ++i) {
        UndoNode node;
        node.splid = in->ReadBytes16();
        undo.nodes.push_back(std::move(node));
      }
      break;
    }
  }
  return undo;
}

StatusOr<WalRecord> DecodeRecord(std::string_view payload, Lsn lsn,
                                 Lsn end_lsn) {
  ByteReader in(payload);
  WalRecord record;
  record.lsn = lsn;
  record.end_lsn = end_lsn;
  record.type = static_cast<WalRecordType>(in.ReadInt<uint8_t>());
  switch (record.type) {
    case WalRecordType::kUpdate: {
      record.tx = in.ReadInt<uint64_t>();
      record.prev_lsn = in.ReadInt<uint64_t>();
      record.meta = ReadMeta(&in);
      record.undo = ReadUndo(&in);
      const uint32_t npages = in.ReadInt<uint32_t>();
      const uint32_t page_size = in.ReadInt<uint32_t>();
      for (uint32_t i = 0; i < npages && in.ok(); ++i) {
        WalPageImage image;
        image.id = in.ReadInt<uint32_t>();
        image.bytes = in.ReadView(page_size);
        record.pages.push_back(std::move(image));
      }
      break;
    }
    case WalRecordType::kCommit:
      record.tx = in.ReadInt<uint64_t>();
      record.commit_seq = in.ReadInt<uint64_t>();
      record.payload = in.ReadBytes32();
      break;
    case WalRecordType::kEnd:
      record.tx = in.ReadInt<uint64_t>();
      break;
    case WalRecordType::kVocab:
      record.surrogate = in.ReadInt<uint32_t>();
      record.name = in.ReadBytes32();
      break;
    case WalRecordType::kCheckpoint: {
      const uint32_t n_tx = in.ReadInt<uint32_t>();
      for (uint32_t i = 0; i < n_tx && in.ok(); ++i) {
        const uint64_t tx = in.ReadInt<uint64_t>();
        const Lsn last = in.ReadInt<uint64_t>();
        record.active_txs.emplace_back(tx, last);
      }
      const uint32_t n_dpt = in.ReadInt<uint32_t>();
      for (uint32_t i = 0; i < n_dpt && in.ok(); ++i) {
        const PageId page = in.ReadInt<uint32_t>();
        const Lsn rec_lsn = in.ReadInt<uint64_t>();
        record.dirty_pages.emplace_back(page, rec_lsn);
      }
      const uint32_t n_vocab = in.ReadInt<uint32_t>();
      for (uint32_t i = 0; i < n_vocab && in.ok(); ++i) {
        const uint32_t surrogate = in.ReadInt<uint32_t>();
        std::string name = in.ReadBytes32();
        record.vocab.emplace_back(surrogate, std::move(name));
      }
      record.meta = ReadMeta(&in);
      break;
    }
    default:
      return Status::DataLoss("wal: unknown record type");
  }
  if (!in.AtEnd()) {
    return Status::DataLoss("wal: record payload malformed");
  }
  return record;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Wal::Wal(WalOptions options) : Wal(options, std::string()) {}

Wal::Wal(WalOptions options, std::string durable_image) : options_(options) {
  MutexLock guard(mu_);
  if (durable_image.empty()) {
    PutInt<uint64_t>(&buffer_, kWalMagic);
    PutInt<uint64_t>(&buffer_, 0);  // reserved
  } else {
    XTC_CHECK(CheckHeader(durable_image).ok(),
              "wal: reopening from an image with a bad header");
    buffer_ = std::move(durable_image);
  }
  durable_ = buffer_.size();
  appended_lsn_.store(buffer_.size(), std::memory_order_release);
  durable_lsn_.store(durable_, std::memory_order_release);
}

bool Wal::CrashedLocked() const {
  return options_.crash_switch != nullptr && options_.crash_switch->crashed();
}

Lsn Wal::AppendRecordLocked(std::string payload) {
  const uint32_t crc = Crc32(payload);
  PutInt<uint32_t>(&buffer_, static_cast<uint32_t>(payload.size()));
  PutInt<uint32_t>(&buffer_, crc);
  buffer_.append(payload);
  stats_.records_appended++;
  stats_.bytes_appended += 8 + payload.size();
  appended_lsn_.store(buffer_.size(), std::memory_order_release);
  return buffer_.size();
}

Status Wal::SyncToLocked(Lsn upto, bool allow_clean_failure) {
  XTC_CHECK(upto <= buffer_.size(), "wal: sync past the end of the log");
  bool flushed = false;
  while (durable_ < upto) {
    if (CrashedLocked()) {
      return Status::IoError("log device offline after simulated crash");
    }
    FaultInjector* fi = options_.fault_injector;
    if (allow_clean_failure) {
      Status st = MaybeInject(fi, fault_points::kWalFlush);
      if (!st.ok()) {
        stats_.flush_failures++;
        return st.Annotate("wal flush");
      }
    }
    const Lsn chunk = std::min<Lsn>(options_.flush_chunk, upto - durable_);
    if (options_.crash_switch != nullptr && fi != nullptr &&
        fi->ShouldFail(fault_points::kCrashWal)) {
      // Hard kill mid flush: a seeded prefix of this chunk reaches the
      // "disk", leaving a torn final record for recovery to detect.
      if (options_.crash_switch->Trigger()) {
        durable_ += options_.crash_switch->TearPoint(durable_, chunk);
        durable_lsn_.store(durable_, std::memory_order_release);
      }
      return Status::IoError("simulated crash during log flush");
    }
    durable_ += chunk;
    flushed = true;
  }
  durable_lsn_.store(durable_, std::memory_order_release);
  if (flushed) stats_.syncs++;
  return Status::OK();
}

Status Wal::EnsureDurable(uint64_t lsn) {
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) {
    return Status::OK();
  }
  MutexLock guard(mu_);
  XTC_CHECK(lsn <= buffer_.size(), "page stamped with an LSN the log lacks");
  return SyncToLocked(lsn, /*allow_clean_failure=*/true);
}

Lsn Wal::AppendUpdate(uint64_t tx, const UndoOp& undo, const WalTreeMeta& meta,
                      const std::vector<PageId>& pages, uint32_t page_size,
                      const PageReader& reader) {
  MutexLock guard(mu_);
  std::string payload;
  PutInt<uint8_t>(&payload, static_cast<uint8_t>(WalRecordType::kUpdate));
  PutInt<uint64_t>(&payload, tx);
  Lsn prev = 0;
  if (tx != 0) {
    auto it = tx_last_lsn_.find(tx);
    if (it != tx_last_lsn_.end()) prev = it->second;
  }
  PutInt<uint64_t>(&payload, prev);
  PutMeta(&payload, meta);
  PutUndo(&payload, undo);
  PutInt<uint32_t>(&payload, static_cast<uint32_t>(pages.size()));
  PutInt<uint32_t>(&payload, page_size);
  const Lsn start = buffer_.size();
  const Lsn end = start + 8 + payload.size() +
                  pages.size() * (4 + static_cast<size_t>(page_size));
  for (PageId id : pages) {
    PutInt<uint32_t>(&payload, id);
    const size_t before = payload.size();
    reader(id, end, &payload);
    XTC_CHECK(payload.size() - before == page_size,
              "wal: page reader produced inconsistent page sizes");
  }
  const Lsn appended_end = AppendRecordLocked(std::move(payload));
  XTC_CHECK(appended_end == end, "wal: update record size miscomputed");
  if (tx != 0) tx_last_lsn_[tx] = start;
  return end;
}

Status Wal::AppendCommit(uint64_t tx, uint64_t commit_seq,
                         std::string_view payload) {
  MutexLock guard(mu_);
  if (CrashedLocked()) {
    return Status::IoError("log device offline after simulated crash");
  }
  FaultInjector* fi = options_.fault_injector;
  if (options_.crash_switch != nullptr && fi != nullptr &&
      fi->ShouldFail(fault_points::kCrashCommit)) {
    options_.crash_switch->Trigger();
    return Status::IoError("simulated crash before commit record");
  }
  std::string record;
  PutInt<uint8_t>(&record, static_cast<uint8_t>(WalRecordType::kCommit));
  PutInt<uint64_t>(&record, tx);
  PutInt<uint64_t>(&record, commit_seq);
  PutBytes32(&record, payload);
  const Lsn start = buffer_.size();
  AppendRecordLocked(std::move(record));
  // Force the group-commit buffer through the commit record. Clean
  // wal.flush failures are not evaluated on this path (see header): on
  // failure here the instance has crashed, and either nothing of the
  // record flushed (durable watermark before `start`) or the kill tore
  // inside it — both leave the commit absent from the recoverable log.
  Status st = SyncToLocked(buffer_.size(), /*allow_clean_failure=*/false);
  if (!st.ok()) {
    if (durable_ <= start) {
      buffer_.resize(start);
      appended_lsn_.store(buffer_.size(), std::memory_order_release);
    }
    return st.Annotate("commit force flush");
  }
  tx_last_lsn_.erase(tx);
  stats_.commits_logged++;
  return Status::OK();
}

void Wal::AppendEnd(uint64_t tx) {
  MutexLock guard(mu_);
  std::string record;
  PutInt<uint8_t>(&record, static_cast<uint8_t>(WalRecordType::kEnd));
  PutInt<uint64_t>(&record, tx);
  AppendRecordLocked(std::move(record));
  tx_last_lsn_.erase(tx);
}

void Wal::AppendVocab(uint32_t surrogate, std::string_view name) {
  MutexLock guard(mu_);
  std::string record;
  PutInt<uint8_t>(&record, static_cast<uint8_t>(WalRecordType::kVocab));
  PutInt<uint32_t>(&record, surrogate);
  PutBytes32(&record, name);
  AppendRecordLocked(std::move(record));
}

Status Wal::AppendCheckpoint(
    const std::vector<std::pair<PageId, Lsn>>& dirty_pages,
    const std::vector<std::pair<uint32_t, std::string>>& vocab,
    const WalTreeMeta& meta) {
  MutexLock guard(mu_);
  if (CrashedLocked()) {
    return Status::IoError("log device offline after simulated crash");
  }
  std::string record;
  PutInt<uint8_t>(&record, static_cast<uint8_t>(WalRecordType::kCheckpoint));
  PutInt<uint32_t>(&record, static_cast<uint32_t>(tx_last_lsn_.size()));
  for (const auto& [tx, last] : tx_last_lsn_) {
    PutInt<uint64_t>(&record, tx);
    PutInt<uint64_t>(&record, last);
  }
  PutInt<uint32_t>(&record, static_cast<uint32_t>(dirty_pages.size()));
  for (const auto& [page, rec_lsn] : dirty_pages) {
    PutInt<uint32_t>(&record, page);
    PutInt<uint64_t>(&record, rec_lsn);
  }
  PutInt<uint32_t>(&record, static_cast<uint32_t>(vocab.size()));
  for (const auto& [surrogate, name] : vocab) {
    PutInt<uint32_t>(&record, surrogate);
    PutBytes32(&record, name);
  }
  PutMeta(&record, meta);
  AppendRecordLocked(std::move(record));
  XTC_RETURN_IF_ERROR(
      SyncToLocked(buffer_.size(), /*allow_clean_failure=*/true)
          .Annotate("checkpoint flush"));
  stats_.checkpoints_taken++;
  return Status::OK();
}

Status Wal::Sync() {
  MutexLock guard(mu_);
  return SyncToLocked(buffer_.size(), /*allow_clean_failure=*/true);
}

void Wal::SeedTxChain(uint64_t tx, Lsn last_lsn) {
  MutexLock guard(mu_);
  tx_last_lsn_[tx] = last_lsn;
}

std::string Wal::DurableImage() const {
  MutexLock guard(mu_);
  return buffer_.substr(0, durable_);
}

std::string Wal::DurableSuffix(Lsn from, uint64_t max_bytes) const {
  MutexLock guard(mu_);
  if (from >= durable_) return {};
  uint64_t len = durable_ - from;
  if (max_bytes != 0 && max_bytes < len) len = max_bytes;
  return buffer_.substr(from, len);
}

WalStats Wal::stats() const {
  MutexLock guard(mu_);
  return stats_;
}

void Wal::SetRecoveryCounters(uint64_t records_redone, uint64_t pages_redone,
                              uint64_t losers_undone) {
  MutexLock guard(mu_);
  stats_.records_redone = records_redone;
  stats_.pages_redone = pages_redone;
  stats_.losers_undone = losers_undone;
}

std::vector<std::pair<uint64_t, Lsn>> Wal::ActiveTxTable() const {
  MutexLock guard(mu_);
  return {tx_last_lsn_.begin(), tx_last_lsn_.end()};
}

Status Wal::CheckHeader(std::string_view image) {
  if (image.empty()) return Status::OK();
  if (image.size() < kWalHeaderSize || LoadU64(image.data()) != kWalMagic) {
    return Status::DataLoss("wal: log header missing or corrupt");
  }
  return Status::OK();
}

StatusOr<WalFrame> Wal::ReadFrame(std::string_view image, Lsn pos) {
  WalFrame frame;
  if (pos + 8 > image.size()) return frame;
  const uint32_t len = LoadU32(image.data() + pos);
  const uint32_t crc = LoadU32(image.data() + pos + 4);
  if (len == 0) {
    // Every record starts with its type byte.
    frame.kind = WalFrameKind::kTorn;
    return frame;
  }
  if (pos + 8 + len > image.size()) return frame;
  const std::string_view payload = image.substr(pos + 8, len);
  if (Crc32(payload) != crc) {
    // A torn flush can leave stale bytes where the length field used to
    // be, making `len` garbage that still fits — the CRC is what
    // actually delimits the durable tail.
    frame.kind = WalFrameKind::kTorn;
    return frame;
  }
  auto record = DecodeRecord(payload, pos, pos + 8 + len);
  if (!record.ok()) {
    return record.status().Annotate("wal: record at offset " +
                                    std::to_string(pos));
  }
  frame.kind = WalFrameKind::kRecord;
  frame.record = std::move(*record);
  return frame;
}

StatusOr<WalScan> Wal::ScanDurable(std::string_view image) {
  XTC_RETURN_IF_ERROR(CheckHeader(image));
  WalScan scan;
  if (image.empty()) return scan;
  scan.clean_end = kWalHeaderSize;
  while (scan.clean_end < image.size()) {
    XTC_ASSIGN_OR_RETURN(WalFrame frame, ReadFrame(image, scan.clean_end));
    if (frame.kind != WalFrameKind::kRecord) {
      scan.torn_tail = true;
      break;
    }
    scan.clean_end = frame.record.end_lsn;
    scan.records.push_back(std::move(frame.record));
  }
  return scan;
}

}  // namespace xtc
