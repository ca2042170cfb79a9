// RedoApplier unit tests: conditioned page redo through both sinks,
// torn-page repair, and the parallel partitioned mode (per-page LSN
// order must hold for any worker count, and every pool size must
// produce a byte-identical store).

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "wal/redo_applier.h"
#include "wal/wal.h"

namespace xtc {
namespace {

constexpr uint32_t kPageSize = 128;

/// Page bytes with a recognizable fill, the LSN stamped where redo
/// compares it, and byte 0 carrying `tag` for content assertions.
std::string PageBytes(char tag, Lsn end_lsn) {
  std::string bytes(kPageSize, tag);
  std::memcpy(bytes.data() + kPageLsnOffset, &end_lsn, sizeof(end_lsn));
  return bytes;
}

/// Backs the page images of the records a test builds: their images
/// view these bytes, as a decoded record's images view the log image.
/// A deque never moves the strings it already holds.
using ImageStore = std::deque<std::string>;

WalRecord UpdateRecord(ImageStore* store, Lsn lsn, Lsn end_lsn,
                       std::vector<std::pair<PageId, char>> pages) {
  WalRecord r;
  r.type = WalRecordType::kUpdate;
  r.lsn = lsn;
  r.end_lsn = end_lsn;
  for (const auto& [id, tag] : pages) {
    store->push_back(PageBytes(tag, end_lsn));
    r.pages.push_back(WalPageImage{id, store->back()});
  }
  return r;
}

char TagOf(PageFile* file, PageId id) {
  Page page(kPageSize);
  Status st = file->Read(id, &page);
  EXPECT_TRUE(st.ok()) << st.message();
  return static_cast<char>(page.data()[0]);
}

TEST(RedoApplierTest, AppliesOnlyWhatTheStoreIsMissing) {
  StorageOptions options;
  options.page_size = kPageSize;
  PageFile file(options);
  FilePageSink sink(&file);

  // Pre-store page 1 already reflecting LSN 100; page 2 stale at 10.
  file.EnsureAllocated(2);
  Page fresh(kPageSize);
  std::memcpy(fresh.data(), PageBytes('F', 100).data(), kPageSize);
  ASSERT_TRUE(file.Write(1, fresh).ok());
  Page stale(kPageSize);
  std::memcpy(stale.data(), PageBytes('S', 10).data(), kPageSize);
  ASSERT_TRUE(file.Write(2, stale).ok());

  RedoApplier redo(&sink);
  ImageStore store;
  auto applied =
      redo.ApplyRecord(UpdateRecord(&store, 50, 100, {{1, 'A'}, {2, 'B'}}));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_TRUE(*applied);
  EXPECT_EQ(TagOf(&file, 1), 'F');  // already reflected: skipped
  EXPECT_EQ(TagOf(&file, 2), 'B');  // stale: overwritten
  EXPECT_EQ(redo.stats().pages_redone, 1u);
  EXPECT_EQ(redo.stats().pages_skipped, 1u);
  EXPECT_EQ(redo.stats().records_redone, 1u);

  // Non-update records are ignored outright.
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  auto ignored = redo.ApplyRecord(commit);
  ASSERT_TRUE(ignored.ok());
  EXPECT_FALSE(*ignored);
}

TEST(RedoApplierTest, TornStoredPageIsRepairedUnconditionally) {
  StorageOptions options;
  options.page_size = kPageSize;
  PageFile pristine(options);
  pristine.EnsureAllocated(1);
  Page good(kPageSize);
  // A very high stored LSN would normally suppress redo — but the page
  // is torn (corrupted after checksum stamping), so redo must repair it.
  std::memcpy(good.data(), PageBytes('G', 999).data(), kPageSize);
  ASSERT_TRUE(pristine.Write(1, good).ok());
  PageFileImage image = pristine.CloneImage();
  image.pages[0][60] ^= 0x5a;  // tear page 1 behind the file's back
  PageFile file(options, image);
  Page check(kPageSize);
  ASSERT_TRUE(file.Read(1, &check).IsDataLoss());

  FilePageSink sink(&file);
  RedoApplier redo(&sink);
  ImageStore store;
  auto applied = redo.ApplyRecord(UpdateRecord(&store, 10, 20, {{1, 'R'}}));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_TRUE(*applied);
  EXPECT_EQ(TagOf(&file, 1), 'R');
}

TEST(RedoApplierTest, ParallelModeMatchesSerialByteForByte) {
  // A batch with long per-page chains and shared pages across records:
  // any worker count must land the same final bytes (last image per
  // page wins, because per-page chains apply in log order).
  ImageStore store;
  std::vector<WalRecord> records;
  Lsn lsn = 16;
  for (int round = 0; round < 8; ++round) {
    for (PageId id = 1; id <= 13; ++id) {
      const Lsn end = lsn + 100;
      records.push_back(
          UpdateRecord(&store, lsn, end,
                       {{id, static_cast<char>('a' + (round + id) % 26)}}));
      lsn = end;
    }
  }

  auto run = [&](int workers, Lsn redo_start) {
    StorageOptions options;
    options.page_size = kPageSize;
    PageFile file(options);
    FilePageSink sink(&file);
    RedoApplier redo(&sink);
    Status st = redo.ApplyAll(records, redo_start, workers);
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(redo.stats().workers, std::max(workers, 1));
    std::string tags;
    for (PageId id = 1; id <= 13; ++id) tags.push_back(TagOf(&file, id));
    return std::make_pair(tags, redo.stats());
  };

  const auto [serial_tags, serial_stats] = run(1, 0);
  for (int workers : {2, 4, 8}) {
    const auto [tags, stats] = run(workers, 0);
    EXPECT_EQ(tags, serial_tags) << "workers=" << workers;
    EXPECT_EQ(stats.pages_redone, serial_stats.pages_redone);
    EXPECT_EQ(stats.pages_skipped, serial_stats.pages_skipped);
  }

  // redo_start filters by record LSN: starting after round 0 must skip
  // its records entirely (here: everything is re-written later anyway,
  // so the final bytes still match).
  const auto [late_tags, late_stats] = run(4, records[13].lsn);
  EXPECT_EQ(late_tags, serial_tags);
  EXPECT_LT(late_stats.pages_redone + late_stats.pages_skipped,
            serial_stats.pages_redone + serial_stats.pages_skipped);
}

TEST(RedoApplierTest, ParallelPreservesPerPageLsnOrder) {
  // Three images of one page in one batch: the final store must carry
  // the *last* image no matter the pool size — a worker applying them
  // out of order would leave an older tag.
  for (int workers : {1, 2, 4, 7}) {
    std::vector<WalRecord> records;
    ImageStore store;
    records.push_back(UpdateRecord(&store, 16, 100, {{5, 'x'}}));
    records.push_back(UpdateRecord(&store, 100, 200, {{5, 'y'}}));
    records.push_back(UpdateRecord(&store, 200, 300, {{5, 'z'}}));
    StorageOptions options;
    options.page_size = kPageSize;
    PageFile file(options);
    FilePageSink sink(&file);
    RedoApplier redo(&sink);
    ASSERT_TRUE(redo.ApplyAll(records, 0, workers).ok());
    EXPECT_EQ(TagOf(&file, 5), 'z') << "workers=" << workers;
    Page page(kPageSize);
    ASSERT_TRUE(file.Read(5, &page).ok());
    EXPECT_EQ(ReadPageLsn(page), 300u);
  }
}

}  // namespace
}  // namespace xtc
