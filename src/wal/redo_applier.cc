#include "wal/redo_applier.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace xtc {

Status FilePageSink::ApplyImage(PageId id, Lsn end_lsn,
                                std::string_view bytes, bool* applied) {
  *applied = false;
  XTC_CHECK(bytes.size() == file_->page_size(),
            "redo: logged page size does not match the store");
  file_->EnsureAllocated(id);
  Page current(file_->page_size());
  Status read = file_->Read(id, &current);
  bool apply;
  if (read.ok()) {
    apply = ReadPageLsn(current) < end_lsn;
  } else if (read.IsDataLoss()) {
    apply = true;  // torn page: the logged after-image repairs it
  } else {
    return read.Annotate("redo: read of page " + std::to_string(id));
  }
  if (!apply) return Status::OK();
  Page image(file_->page_size());
  std::memcpy(image.data(), bytes.data(), bytes.size());
  Status write = file_->Write(id, image);
  if (!write.ok()) {
    return write.Annotate("redo: write of page " + std::to_string(id));
  }
  *applied = true;
  return Status::OK();
}

StatusOr<bool> RedoApplier::ApplyRecord(const WalRecord& record) {
  if (record.type != WalRecordType::kUpdate) return false;
  bool any = false;
  for (const WalPageImage& img : record.pages) {
    bool applied = false;
    XTC_RETURN_IF_ERROR(
        sink_->ApplyImage(img.id, record.end_lsn, img.bytes, &applied));
    if (applied) {
      ++stats_.pages_redone;
      any = true;
    } else {
      ++stats_.pages_skipped;
    }
  }
  if (any) ++stats_.records_redone;
  return any;
}

Status RedoApplier::ApplyAll(const std::vector<WalRecord>& records,
                             Lsn redo_start, int workers) {
  workers = std::max(workers, 1);
  stats_.workers = workers;

  // Per-page image chains in log order. Each page is owned by exactly
  // one worker, so per-page LSN order is preserved no matter how the
  // pool interleaves.
  struct PendingImage {
    size_t record_index;
    Lsn end_lsn;
    std::string_view bytes;
  };
  std::unordered_map<PageId, std::vector<PendingImage>> chains;
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& r = records[i];
    if (r.type != WalRecordType::kUpdate || r.lsn < redo_start) continue;
    for (const WalPageImage& img : r.pages) {
      chains[img.id].push_back(PendingImage{i, r.end_lsn, img.bytes});
    }
  }
  std::vector<PageId> page_ids;
  page_ids.reserve(chains.size());
  for (const auto& [id, chain] : chains) page_ids.push_back(id);
  std::sort(page_ids.begin(), page_ids.end());

  auto record_applied = std::make_unique<std::atomic<bool>[]>(records.size());
  std::atomic<uint64_t> pages_redone{0};
  std::atomic<uint64_t> pages_skipped{0};
  std::atomic<bool> failed{false};
  std::vector<Status> errors(static_cast<size_t>(workers), Status::OK());

  auto run_shard = [&](int shard) {
    for (size_t i = static_cast<size_t>(shard); i < page_ids.size();
         i += static_cast<size_t>(workers)) {
      if (failed.load(std::memory_order_acquire)) return;
      for (const PendingImage& img : chains.at(page_ids[i])) {
        bool applied = false;
        Status st =
            sink_->ApplyImage(page_ids[i], img.end_lsn, img.bytes, &applied);
        if (!st.ok()) {
          errors[static_cast<size_t>(shard)] = st;
          failed.store(true, std::memory_order_release);
          return;
        }
        if (applied) {
          pages_redone.fetch_add(1, std::memory_order_relaxed);
          record_applied[img.record_index].store(true,
                                                 std::memory_order_relaxed);
        } else {
          pages_skipped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  if (workers == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(run_shard, w);
    for (auto& t : pool) t.join();
  }

  stats_.pages_redone += pages_redone.load(std::memory_order_relaxed);
  stats_.pages_skipped += pages_skipped.load(std::memory_order_relaxed);
  for (size_t i = 0; i < records.size(); ++i) {
    if (record_applied[i].load(std::memory_order_relaxed)) {
      ++stats_.records_redone;
    }
  }
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace xtc
