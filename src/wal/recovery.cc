#include "wal/recovery.h"

#include <algorithm>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "wal/redo_applier.h"

namespace xtc {

namespace {

bool Crashed(const StorageOptions& storage) {
  return storage.crash_switch != nullptr && storage.crash_switch->crashed();
}

}  // namespace

StatusOr<OpenResult> OpenDatabase(const StorageOptions& storage,
                                  const WalOptions& wal_options,
                                  const PageFileImage& disk_image,
                                  const std::string& log_image, uint32_t dist,
                                  CrashArtifacts* crash_artifacts,
                                  const RecoveryOptions& recovery) {
  OpenResult result;

  // Fresh database: nothing stored, nothing logged.
  if (disk_image.pages.empty() && log_image.empty()) {
    result.wal = std::make_unique<Wal>(wal_options);
    result.doc = std::make_unique<Document>(storage, dist);
    result.doc->AttachWal(result.wal.get());
    return result;
  }

  // --- Analysis -----------------------------------------------------------
  // The records' page images view log_image, which outlives them.
  auto scan = Wal::ScanDurable(log_image);
  if (!scan.ok()) return scan.status().Annotate("recovery: log scan");
  const std::vector<WalRecord>& records = scan->records;
  // The reopened log keeps only the complete records: appending after a
  // torn tail would leave every later record behind mid-log garbage,
  // invisible to the next restart's scan. It is copied once, into a
  // buffer with the room the first append would otherwise reallocate
  // (and copy the whole log again) to get.
  auto reopen_wal = [&] {
    std::string image;
    image.reserve(2 * scan->clean_end);
    image.append(log_image, 0, scan->clean_end);
    return std::make_unique<Wal>(wal_options, std::move(image));
  };

  // The last complete checkpoint governs recovery.
  const WalRecord* checkpoint = nullptr;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kCheckpoint) checkpoint = &r;
  }
  if (checkpoint == nullptr) {
    if (disk_image.pages.empty() && records.empty()) {
      // A bare log header over an empty disk: nothing ever happened.
      result.wal = reopen_wal();
      result.doc = std::make_unique<Document>(storage, dist);
      result.doc->AttachWal(result.wal.get());
      return result;
    }
    return Status::DataLoss(
        "recovery: no durable checkpoint in a nonempty database");
  }

  result.stats.performed = true;
  result.stats.torn_log_tail = scan->torn_tail;
  result.stats.records_scanned = records.size();
  result.stats.checkpoint_lsn = checkpoint->lsn;

  // Transaction table (tx -> last update LSN), committed set and the
  // latest tree attach points. Commit payloads are collected across the
  // *whole* log — the harness compares them against the full run, not
  // just the tail after the checkpoint.
  std::unordered_map<uint64_t, Lsn> tx_table;
  for (const auto& [tx, last] : checkpoint->active_txs) tx_table[tx] = last;
  WalTreeMeta meta = checkpoint->meta;
  std::vector<RecoveredCommit> committed;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kCommit) {
      committed.push_back(RecoveredCommit{r.tx, r.commit_seq, r.payload});
    }
    if (r.lsn <= checkpoint->lsn) continue;  // the checkpoint reflects these
    switch (r.type) {
      case WalRecordType::kUpdate:
        if (r.tx != 0) tx_table[r.tx] = r.lsn;
        meta = r.meta;  // last one wins
        break;
      case WalRecordType::kCommit:
      case WalRecordType::kEnd:
        tx_table.erase(r.tx);
        break;
      default:
        break;
    }
  }

  // --- Redo ---------------------------------------------------------------
  // Start at the oldest point any dirty page at checkpoint time might
  // have been first modified; pages already reflecting a record (stored
  // page_lsn >= record end) are skipped, torn/missing pages overwritten.
  Lsn redo_start = checkpoint->lsn;
  for (const auto& [page, rec_lsn] : checkpoint->dirty_pages) {
    if (rec_lsn != 0) redo_start = std::min(redo_start, rec_lsn);
  }

  PageFile file(storage, disk_image);
  auto redo_failed = [&](const Status& st) {
    if (crash_artifacts != nullptr && Crashed(storage)) {
      crash_artifacts->disk_image = file.CloneImage();
      crash_artifacts->log_image = log_image;
    }
    return st;
  };
  FilePageSink sink(&file);
  RedoApplier redo(&sink);
  Status redo_st = redo.ApplyAll(records, redo_start, recovery.redo_workers);
  if (!redo_st.ok()) return redo_failed(redo_st.Annotate("recovery redo"));
  const uint64_t records_redone = redo.stats().records_redone;
  const uint64_t pages_redone = redo.stats().pages_redone;
  result.stats.records_redone = records_redone;
  result.stats.pages_redone = pages_redone;

  // --- Reopen the document over the repaired image -----------------------
  // Vocabulary: the checkpoint snapshot first, then every logged
  // assignment (overlap is expected and idempotent; contradiction is
  // data loss). The snapshot's image copy dies with this block.
  {
    DocumentSnapshot snapshot{file.CloneImage(), checkpoint->vocab, meta};
    for (const WalRecord& r : records) {
      if (r.type != WalRecordType::kVocab) continue;
      snapshot.vocab.emplace_back(r.surrogate, r.name);
    }
    auto opened = Document::Open(storage, snapshot, dist);
    if (!opened.ok()) return opened.status().Annotate("recovery: reopen");
    result.doc = std::move(*opened);
  }
  Document& doc = *result.doc;

  // --- Undo ---------------------------------------------------------------
  // Losers: transactions with updates but neither commit nor end. Their
  // compensations are logged through the reopened wal (under the loser's
  // id), so a crash mid-undo just grows the chains and a repeat run
  // converges. Tx 0 is system work (bib generation, checkpoints) and is
  // never undone. Each chain step is found among the scanned records.
  result.wal = reopen_wal();
  doc.AttachWal(result.wal.get());
  auto failed = [&](const Status& st) {
    if (crash_artifacts != nullptr && Crashed(storage)) {
      crash_artifacts->disk_image = doc.page_file().CloneImage();
      crash_artifacts->log_image = result.wal->DurableImage();
    }
    return st;
  };

  tx_table.erase(0);
  std::priority_queue<std::pair<Lsn, uint64_t>> frontier;
  for (const auto& [tx, last] : tx_table) {
    result.wal->SeedTxChain(tx, last);
    frontier.push({last, tx});
  }
  const uint64_t losers = tx_table.size();
  while (!frontier.empty()) {
    const auto [lsn, tx] = frontier.top();
    frontier.pop();
    const auto rec = std::lower_bound(
        records.begin(), records.end(), lsn,
        [](const WalRecord& r, Lsn target) { return r.lsn < target; });
    if (rec == records.end() || rec->lsn != lsn) {
      return Status::DataLoss("recovery undo: prev-LSN chain of tx " +
                              std::to_string(tx) + " names offset " +
                              std::to_string(lsn) +
                              ", which starts no complete record");
    }
    XTC_CHECK(rec->type == WalRecordType::kUpdate && rec->tx == tx,
              "recovery undo: prev-LSN chain reached a foreign record");
    {
      ScopedWalTx scope(tx);
      Status st = doc.ApplyUndo(rec->undo);
      if (!st.ok()) {
        return failed(
            st.Annotate("recovery undo: tx " + std::to_string(tx)));
      }
    }
    if (rec->prev_lsn != 0) {
      frontier.push({rec->prev_lsn, tx});
    } else {
      result.wal->AppendEnd(tx);
    }
  }
  result.stats.losers_undone = losers;
  result.wal->SetRecoveryCounters(records_redone, pages_redone, losers);

  // The free list is volatile state the crash discarded; rebuild it from
  // a walk of the recovered trees.
  Status st = doc.RebuildFreeList();
  if (!st.ok()) return failed(st.Annotate("recovery: free-list rebuild"));

  // One forced checkpoint makes the whole recovery durable — the next
  // restart begins from here instead of repeating the undo work.
  st = doc.LogCheckpoint();
  if (!st.ok()) return failed(st.Annotate("recovery: final checkpoint"));

  st = doc.Validate();
  if (!st.ok()) return failed(st.Annotate("recovery: structural audit"));

  std::sort(committed.begin(), committed.end(),
            [](const RecoveredCommit& a, const RecoveredCommit& b) {
              return a.seq < b.seq;
            });
  result.committed = std::move(committed);
  return result;
}

}  // namespace xtc
