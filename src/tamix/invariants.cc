#include "tamix/invariants.h"

#include <algorithm>
#include <memory>
#include <string>

#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/bib_generator.h"
#include "tamix/transactions.h"
#include "tx/transaction_manager.h"
#include "util/rng.h"

namespace xtc {

namespace {

inline void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;  // FNV-1a
  }
}

inline void HashString(uint64_t* h, std::string_view s) {
  const uint64_t len = s.size();
  HashBytes(h, &len, sizeof(len));
  HashBytes(h, s.data(), s.size());
}

/// One node as the replay diff sees it: position-independent except for
/// depth, so stores with different labeling histories still compare.
struct DiffEntry {
  uint64_t depth;
  NodeKind kind;
  std::string name;
  std::string content;

  bool operator==(const DiffEntry& o) const {
    return depth == o.depth && kind == o.kind && name == o.name &&
           content == o.content;
  }

  std::string Describe() const {
    return "depth=" + std::to_string(depth) + " kind=" +
           std::to_string(static_cast<int>(kind)) + " name='" + name +
           "' content='" + content + "'";
  }
};

StatusOr<std::vector<DiffEntry>> FlattenForDiff(const Document& doc) {
  auto nodes = doc.Subtree(Splid::Root());
  if (!nodes.ok()) return nodes.status();
  std::vector<DiffEntry> out;
  out.reserve(nodes->size());
  for (const Node& n : *nodes) {
    out.push_back(DiffEntry{n.splid.NumDivisions(), n.record.kind,
                            std::string(doc.vocabulary().Name(n.record.name)),
                            n.record.content});
  }
  return out;
}

}  // namespace

Status CheckQuiescent(const LockTable& table, const Document& doc) {
  const size_t locked = table.NumLockedResources();
  if (locked != 0) {
    return Status::Internal("quiescence: lock table still holds " +
                            std::to_string(locked) + " locked resources");
  }
  const size_t waiters = table.NumWaitingTransactions();
  if (waiters != 0) {
    return Status::Internal("quiescence: wait-for graph still tracks " +
                            std::to_string(waiters) + " transactions");
  }
  const size_t pinned = doc.buffer().PinnedFrames();
  if (pinned != 0) {
    return Status::Internal("quiescence: " + std::to_string(pinned) +
                            " buffer frames still pinned");
  }
  // With the frame-state machine, fetches and victim scans move frames
  // through transitional loading/evicting states while their page-file
  // I/O is in flight; once all workers have joined, every frame must have
  // settled back to free or resident.
  const size_t in_io = doc.buffer().FramesInIo();
  if (in_io != 0) {
    return Status::Internal("quiescence: " + std::to_string(in_io) +
                            " buffer frames stuck mid-I/O (loading/evicting)");
  }
  return doc.Validate().Annotate("quiescence: document audit failed");
}

StatusOr<uint64_t> DocumentFingerprint(const Document& doc) {
  auto nodes = doc.Subtree(Splid::Root());
  if (!nodes.ok()) return nodes.status();
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (const Node& n : *nodes) {
    const uint64_t depth = n.splid.NumDivisions();
    HashBytes(&h, &depth, sizeof(depth));
    const uint8_t kind = static_cast<uint8_t>(n.record.kind);
    HashBytes(&h, &kind, sizeof(kind));
    HashString(&h, doc.vocabulary().Name(n.record.name));
    HashString(&h, n.record.content);
  }
  return h;
}

Status CheckCommittedReplay(const RunConfig& config,
                            const std::vector<CommittedTx>& committed,
                            const Document& surviving) {
  // Fresh single-threaded stack: same bib document, same protocol, no
  // faults, no think times.
  Document doc(FaultFreeStorage(config.storage));
  auto info = GenerateBib(&doc, config.bib);
  if (!info.ok()) return info.status();
  LockTableOptions lock_options;
  lock_options.wait_timeout = config.Scaled(config.lock_wait_timeout);
  std::unique_ptr<XmlProtocol> protocol =
      config.protocol_factory ? config.protocol_factory(lock_options)
                              : CreateProtocol(config.protocol, lock_options);
  if (protocol == nullptr) {
    return Status::InvalidArgument("unknown protocol: " + config.protocol);
  }
  LockManager lock_manager(protocol.get());
  TransactionManager tx_manager(&lock_manager);
  NodeManager node_manager(&doc, &lock_manager);
  TaMixBodyRunner bodies(&*info, Duration::zero());

  std::vector<CommittedTx> ordered = committed;
  std::sort(ordered.begin(), ordered.end(),
            [](const CommittedTx& a, const CommittedTx& b) {
              return a.seq < b.seq;
            });

  for (const CommittedTx& c : ordered) {
    auto tx = tx_manager.Begin(config.isolation, config.lock_depth);
    Rng body_rng(c.body_seed);
    LocalDom dom(&node_manager, tx.get());
    Status st = bodies.RunBody(c.type, dom, body_rng);
    if (!st.ok()) {
      (void)tx_manager.Abort(*tx);
      return st.Annotate("replay diverged: committed tx (seq " +
                         std::to_string(c.seq) + ", " +
                         std::string(TxTypeName(c.type)) +
                         ") failed single-threaded");
    }
    XTC_RETURN_IF_ERROR(tx_manager.Commit(*tx));
  }

  XTC_ASSIGN_OR_RETURN(std::vector<DiffEntry> expected,
                       FlattenForDiff(surviving));
  XTC_ASSIGN_OR_RETURN(std::vector<DiffEntry> replayed, FlattenForDiff(doc));
  if (expected == replayed) return Status::OK();
  const std::string prefix = "replay diverged over " +
                             std::to_string(ordered.size()) +
                             " committed transactions: ";
  const size_t common = std::min(expected.size(), replayed.size());
  for (size_t i = 0; i < common; ++i) {
    if (!(expected[i] == replayed[i])) {
      return Status::Internal(prefix + "node " + std::to_string(i) +
                              " survived as [" + expected[i].Describe() +
                              "] but replayed as [" + replayed[i].Describe() +
                              "]");
    }
  }
  return Status::Internal(prefix + "surviving document has " +
                          std::to_string(expected.size()) +
                          " nodes, replay produced " +
                          std::to_string(replayed.size()));
}

}  // namespace xtc
