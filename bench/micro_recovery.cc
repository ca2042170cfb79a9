// Microbenchmark: parallel restart redo and follower catch-up.
//
// The first three measurements run against the simulated page device
// with a realistic per-I/O latency (DESIGN.md §2) so redo cost is
// I/O-shaped:
//   1. Raw RedoApplier::ApplyAll over a synthetic update batch at
//      worker counts 1/2/4/8 — the partitioned redo scan's scaling
//      (per-page LSN order preserved; see wal/redo_applier.h).
//   2. End-to-end OpenDatabase restart of a database whose WAL carries
//      every committed mutation since the setup checkpoint, serial vs
//      4 redo workers — what a real restart saves.
//   3. Follower catch-up: draining the same log into a bootstrapped
//      follower in flush-chunk units — the log-shipping apply rate.
//   4. Restore vs generate: the paper-sized bib document reopened from
//      its DocumentSnapshot against generating it, on c1-local's storage
//      (4096 frames, no simulated latency). Median of 3 each.
//   5. Restart per scanned record: OpenDatabase over a fixed log of
//      committed renames, checkpointed (after a full flush) every 64
//      commits, so nothing is redone; no simulated latency, median of 3.
//      Unlike perfbench's update-wal restart, the log does not depend on
//      how much a timed run happened to commit.
//
//   ./bench/micro_recovery            full run, one `name value unit`
//                                     line per metric (ToText)
//   ./bench/micro_recovery --smoke    quick CI run; exits 1 if 4-worker
//                                     redo speedup < 2x or restore takes
//                                     > 0.05x of generate
//   ./bench/micro_recovery --json     the same metrics as ToJson
//                                     (committed as BENCH_replication.json)
//
// Every mode exits 1 if a phase loses data: a worker count that changes
// the redo work, a restart or catch-up that loses commits, or a
// checkpointed restart that redoes a record.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "node/document.h"
#include "repl/follower.h"
#include "repl/log_shipper.h"
#include "storage/page_file.h"
#include "tamix/bib_generator.h"
#include "wal/recovery.h"
#include "wal/redo_applier.h"
#include "wal/wal.h"

using namespace xtc;
using namespace xtc::bench;

namespace {

// >= 50 us so the device model sleeps (not spins): sleeping overlaps
// across redo workers even on a single hardware core, the way real
// in-flight disk requests do.
constexpr uint32_t kIoLatencyUs = 100;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "FAIL: %s: %s\n", what, status.message().c_str());
  std::exit(1);
}

// --- 1. Raw partitioned redo --------------------------------------------

struct ApplyResult {
  double secs = 0;
  uint64_t pages_redone = 0;
};

/// `records` update records round-robining over `pages` distinct pages,
/// each carrying one full-page image (the WAL's physical redo unit).
/// The images view `images`, as a decoded record's images view the log
/// image, so the batch is built in place and never copied.
struct SyntheticBatch {
  SyntheticBatch(int records, int pages, uint32_t page_size) {
    images.reserve(static_cast<size_t>(records) * page_size);
    batch.reserve(static_cast<size_t>(records));
    Lsn lsn = 16;
    for (int i = 0; i < records; ++i) {
      const Lsn end = lsn + page_size;
      WalRecord r;
      r.type = WalRecordType::kUpdate;
      r.lsn = lsn;
      r.end_lsn = end;
      const size_t at = images.size();
      images.append(page_size, static_cast<char>('a' + i % 26));
      std::memcpy(images.data() + at + kPageLsnOffset, &end, sizeof(end));
      r.pages.push_back(WalPageImage{
          static_cast<PageId>(1 + i % pages),
          std::string_view(images).substr(at, page_size)});
      batch.push_back(std::move(r));
      lsn = end;
    }
  }
  SyntheticBatch(const SyntheticBatch&) = delete;
  SyntheticBatch& operator=(const SyntheticBatch&) = delete;

  std::string images;
  std::vector<WalRecord> batch;
};

ApplyResult TimeApplyAll(const std::vector<WalRecord>& batch, int workers) {
  StorageOptions options;
  options.page_size = 512;
  options.io_latency_us = kIoLatencyUs;
  PageFile file(options);
  FilePageSink sink(&file);
  RedoApplier redo(&sink);
  const auto start = std::chrono::steady_clock::now();
  Status st = redo.ApplyAll(batch, 0, workers);
  if (!st.ok()) Die("ApplyAll", st);
  ApplyResult result;
  result.secs = Seconds(std::chrono::steady_clock::now() - start);
  result.pages_redone = redo.stats().pages_redone;
  return result;
}

// --- 2/3. A database with a long since-checkpoint redo distance ---------

/// Commits rename number `i` as transaction i + 1: an element of the
/// Tiny bib (round-robin over four names and ten occurrences) goes to
/// "bench-renamed" and back, so every commit logs page images.
void CommitRename(Document* doc, Wal* wal, int i) {
  const char* names[] = {"chapter", "author", "lend", "person"};
  const char* name = names[i % 4];
  auto target = doc->NthElementByName(i % 8 < 4 ? name : "bench-renamed",
                                      static_cast<size_t>(i / 8) % 10);
  if (!target.has_value()) {
    target = doc->NthElementByName(name, 0);
  }
  if (!target.has_value()) Die("rename target", Status::NotFound("none"));
  const NameSurrogate to =
      doc->vocabulary().Intern(i % 8 < 4 ? "bench-renamed" : name);
  {
    ScopedWalTx scope(static_cast<uint64_t>(i + 1));
    if (Status st = doc->RenameElement(*target, to); !st.ok()) {
      Die("RenameElement", st);
    }
  }
  Status st = wal->AppendCommit(static_cast<uint64_t>(i + 1),
                                static_cast<uint64_t>(i + 1), "bench");
  if (!st.ok()) Die("AppendCommit", st);
}

struct Artifacts {
  StorageOptions storage;
  PageFileImage checkpoint_disk;  // the disk as of the setup checkpoint
  std::string checkpoint_log;     // the log as of the setup checkpoint
  std::string log;                // every mutation since lives only here
  uint64_t commits = 0;
};

Artifacts BuildLoggedDatabase(int commits) {
  Artifacts a;
  // A modest document with a generous pool: the base image loads once,
  // so the restart cost is dominated by the since-checkpoint redo scan
  // (the thing being measured), not pool thrash.
  a.storage.buffer_pool_pages = 4096;
  a.storage.io_latency_us = kIoLatencyUs;
  Document doc(a.storage);
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  if (!info.ok()) Die("GenerateBib", info.status());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  if (Status st = doc.buffer().FlushAll(); !st.ok()) Die("FlushAll", st);
  if (Status st = doc.LogCheckpoint(); !st.ok()) Die("LogCheckpoint", st);
  a.checkpoint_disk = doc.page_file().CloneImage();
  a.checkpoint_log = wal.DurableImage();

  // Committed renames scattered across the document: each logs a page
  // image the restart must redo (the disk stays at the checkpoint).
  for (int i = 0; i < commits; ++i) {
    CommitRename(&doc, &wal, i);
    ++a.commits;
  }
  a.log = wal.DurableImage();
  return a;
}

struct OpenTiming {
  double secs = 0;
  uint64_t records_redone = 0;
  uint64_t commits = 0;
};

OpenTiming TimeOpen(const Artifacts& a, int workers) {
  RecoveryOptions recovery;
  recovery.redo_workers = workers;
  const auto start = std::chrono::steady_clock::now();
  auto opened = OpenDatabase(a.storage, WalOptions{}, a.checkpoint_disk, a.log,
                             2, nullptr, recovery);
  if (!opened.ok()) Die("OpenDatabase", opened.status());
  OpenTiming t;
  t.secs = Seconds(std::chrono::steady_clock::now() - start);
  t.records_redone = opened->stats.records_redone;
  t.commits = opened->committed.size();
  return t;
}

struct CatchUp {
  double secs = 0;
  double mib_per_sec = 0;
  uint64_t commits_applied = 0;
  uint64_t log_bytes = 0;
};

CatchUp TimeCatchUp(const Artifacts& a, uint64_t chunk_bytes) {
  // Bootstrap a follower from the checkpoint-time images, then drain the
  // rest of the primary's log into it in flush-chunk units — exactly
  // what a follower attached late (or restarted) does to catch back up.
  Wal source(WalOptions{}, a.log);
  FollowerOptions fo;
  fo.storage = a.storage;
  auto follower =
      Follower::Bootstrap(fo, a.checkpoint_disk, a.checkpoint_log);
  if (!follower.ok()) Die("Bootstrap", follower.status());
  LogShipperOptions so;
  so.chunk_bytes = chunk_bytes;
  LogShipper shipper(&source, follower->get(), so);
  CatchUp c;
  c.log_bytes = a.log.size() - a.checkpoint_log.size();
  const auto start = std::chrono::steady_clock::now();
  if (Status st = shipper.Drain(); !st.ok()) Die("Drain", st);
  c.secs = Seconds(std::chrono::steady_clock::now() - start);
  c.mib_per_sec =
      c.secs == 0 ? 0
                  : static_cast<double>(c.log_bytes) / (1024.0 * 1024.0) /
                        c.secs;
  c.commits_applied = (*follower)->stats().commits_applied;
  return c;
}

// --- 4. Restore vs generate ------------------------------------------------

struct RestoreTiming {
  double generate_secs = 0;
  double restore_secs = 0;
};

RestoreTiming TimeRestore() {
  const StorageOptions storage;  // c1-local: 4096 frames, no latency
  double generate[3] = {};
  double restore[3] = {};
  for (int i = 0; i < 3; ++i) {
    auto start = std::chrono::steady_clock::now();
    Document doc(storage);
    auto info = GenerateBib(&doc, BibConfig::Paper());
    if (!info.ok()) Die("GenerateBib", info.status());
    generate[i] = Seconds(std::chrono::steady_clock::now() - start);

    auto snapshot = doc.Snapshot();
    if (!snapshot.ok()) Die("Snapshot", snapshot.status());
    start = std::chrono::steady_clock::now();
    auto restored = Document::Open(storage, *snapshot);
    restore[i] = Seconds(std::chrono::steady_clock::now() - start);
    if (!restored.ok()) Die("Document::Open", restored.status());
    // Open reads no page (the pool fetches on demand); this check reads
    // the element index back, outside the timing.
    if ((*restored)->num_nodes() != doc.num_nodes() ||
        (*restored)->ElementsByName("book") != doc.ElementsByName("book")) {
      Die("restore", Status::DataLoss("restored bib differs"));
    }
  }
  std::sort(generate, generate + 3);
  std::sort(restore, restore + 3);
  return RestoreTiming{generate[1], restore[1]};  // medians
}

// --- 5. Restart of a checkpointed log ---------------------------------------

struct CheckpointedRestart {
  uint64_t log_bytes = 0;
  uint64_t records_scanned = 0;
  uint64_t records_redone = 0;
  uint64_t commits_recovered = 0;
  double secs = 0;  // median of 3
};

/// Restart of a fixed log with nothing to redo: `commits` committed
/// renames (a multiple of 64), with FlushAll + LogCheckpoint after every
/// 64th, so the disk reflects every record. What restart still pays per
/// record is the scan (one CRC and one decode), the copy of the log into
/// the reopened Wal, and the final checkpoint's append.
CheckpointedRestart TimeCheckpointedRestart(int commits) {
  const StorageOptions storage;  // 4096 frames, no simulated latency
  Document doc(storage);
  auto info = GenerateBib(&doc, BibConfig::Tiny());
  if (!info.ok()) Die("GenerateBib", info.status());
  Wal wal(WalOptions{});
  doc.AttachWal(&wal);
  auto checkpoint = [&] {
    if (Status st = doc.buffer().FlushAll(); !st.ok()) Die("FlushAll", st);
    if (Status st = doc.LogCheckpoint(); !st.ok()) Die("LogCheckpoint", st);
  };
  checkpoint();
  for (int i = 0; i < commits; ++i) {
    CommitRename(&doc, &wal, i);
    if ((i + 1) % 64 == 0) checkpoint();
  }
  const PageFileImage disk = doc.page_file().CloneImage();
  const std::string log = wal.DurableImage();

  CheckpointedRestart r;
  r.log_bytes = log.size();
  double secs[3] = {};
  for (double& t : secs) {
    const auto start = std::chrono::steady_clock::now();
    auto opened = OpenDatabase(storage, WalOptions{}, disk, log);
    t = Seconds(std::chrono::steady_clock::now() - start);
    if (!opened.ok()) Die("OpenDatabase", opened.status());
    r.records_scanned = opened->stats.records_scanned;
    r.records_redone = opened->stats.records_redone;
    r.commits_recovered = opened->committed.size();
  }
  std::sort(secs, secs + 3);
  r.secs = secs[1];
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  const int raw_records = flags.smoke ? 1200 : 4000;
  const int raw_pages = 192;
  const int commits = flags.smoke ? 120 : 400;
  const int checkpointed_commits = flags.smoke ? 1024 : 4096;

  if (!flags.json) {
    std::printf("# micro_recovery — parallel restart redo and follower "
                "catch-up%s\n", flags.smoke ? " (smoke)" : "");
  }
  MetricSet m;
  m.push_back({"io_latency_us", "us", kIoLatencyUs});

  // 1. Raw partitioned redo.
  const SyntheticBatch synthetic(raw_records, raw_pages, 512);
  m.push_back({"redo.records", "count", static_cast<double>(raw_records)});
  m.push_back({"redo.distinct_pages", "count",
               static_cast<double>(raw_pages)});
  ApplyResult apply[4];
  for (int i = 0; i < 4; ++i) {
    const int workers = 1 << i;
    apply[i] = TimeApplyAll(synthetic.batch, workers);
    if (apply[i].pages_redone != apply[0].pages_redone) {
      std::fprintf(stderr, "FAIL: worker count changed redo work\n");
      return 1;
    }
    m.push_back({"redo.apply_" + std::to_string(workers) + "w_ms", "ms",
                 apply[i].secs * 1000.0});
  }
  const double speedup4 = apply[2].secs == 0 ? 0 : apply[0].secs / apply[2].secs;
  m.push_back({"redo.speedup_4w", "ratio", speedup4});

  // 2. End-to-end restart.
  const Artifacts artifacts = BuildLoggedDatabase(commits);
  const OpenTiming open1 = TimeOpen(artifacts, 1);
  const OpenTiming open4 = TimeOpen(artifacts, 4);
  if (open1.commits != artifacts.commits || open4.commits != artifacts.commits) {
    std::fprintf(stderr, "FAIL: restart lost commits (%llu/%llu vs %llu)\n",
                 static_cast<unsigned long long>(open1.commits),
                 static_cast<unsigned long long>(open4.commits),
                 static_cast<unsigned long long>(artifacts.commits));
    return 1;
  }
  m.push_back({"open.commits", "count",
               static_cast<double>(artifacts.commits)});
  m.push_back({"open.records_redone", "count",
               static_cast<double>(open4.records_redone)});
  m.push_back({"open.1w_ms", "ms", open1.secs * 1000.0});
  m.push_back({"open.4w_ms", "ms", open4.secs * 1000.0});
  m.push_back({"open.speedup_4w", "ratio",
               open4.secs == 0 ? 0 : open1.secs / open4.secs});

  // 3. Follower catch-up.
  const CatchUp catch_up = TimeCatchUp(artifacts, 4096);
  if (catch_up.commits_applied != artifacts.commits) {
    std::fprintf(stderr, "FAIL: catch-up lost commits\n");
    return 1;
  }
  m.push_back({"catchup.log_bytes", "B",
               static_cast<double>(catch_up.log_bytes)});
  m.push_back({"catchup.ms", "ms", catch_up.secs * 1000.0});
  m.push_back({"catchup.mib_per_s", "MiB/s", catch_up.mib_per_sec});

  // 4. Restore vs generate.
  const RestoreTiming restore = TimeRestore();
  const double restore_ratio = restore.generate_secs == 0
                                   ? 0
                                   : restore.restore_secs /
                                         restore.generate_secs;
  m.push_back({"snapshot.generate_ms", "ms", restore.generate_secs * 1000.0});
  m.push_back({"snapshot.restore_ms", "ms", restore.restore_secs * 1000.0});
  m.push_back({"snapshot.restore_ratio", "ratio", restore_ratio});

  // 5. Restart of a checkpointed log.
  const CheckpointedRestart restart =
      TimeCheckpointedRestart(checkpointed_commits);
  if (restart.records_redone != 0 ||
      restart.commits_recovered !=
          static_cast<uint64_t>(checkpointed_commits)) {
    std::fprintf(stderr,
                 "FAIL: checkpointed restart redid %llu records and "
                 "recovered %llu of %d commits\n",
                 static_cast<unsigned long long>(restart.records_redone),
                 static_cast<unsigned long long>(restart.commits_recovered),
                 checkpointed_commits);
    return 1;
  }
  m.push_back({"restart.commits", "count",
               static_cast<double>(checkpointed_commits)});
  m.push_back({"restart.log_bytes", "B",
               static_cast<double>(restart.log_bytes)});
  m.push_back({"restart.records_scanned", "count",
               static_cast<double>(restart.records_scanned)});
  m.push_back({"restart.ms", "ms", restart.secs * 1000.0});
  m.push_back({"restart.us_per_record", "us",
               restart.records_scanned == 0
                   ? 0
                   : restart.secs * 1e6 /
                         static_cast<double>(restart.records_scanned)});
  PrintMetrics(m, flags);

  if (flags.smoke && speedup4 < 2.0) {
    std::fprintf(stderr,
                 "FAIL: 4-worker redo speedup %.2fx < 2x — the partitioned "
                 "scan is not overlapping page I/O\n",
                 speedup4);
    return 1;
  }
  if (flags.smoke && restore_ratio > 0.05) {
    std::fprintf(stderr,
                 "FAIL: restoring the bib document takes %.3fx of "
                 "generating it (> 0.05x)\n",
                 restore_ratio);
    return 1;
  }
  return 0;
}
