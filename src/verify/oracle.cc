#include "verify/oracle.h"

#include <algorithm>
#include <set>

namespace xtc::verify {

std::string ItemName(ItemKind kind, const Splid& node) {
  char tag = '?';
  switch (kind) {
    case ItemKind::kContent:
      tag = 'C';
      break;
    case ItemKind::kName:
      tag = 'R';
      break;
    case ItemKind::kChildSet:
      tag = 'K';
      break;
  }
  std::string out(1, tag);
  out += ':';
  out += node.ToString();
  return out;
}

ItemKind ItemKindOf(const std::string& item) {
  switch (item.empty() ? '?' : item[0]) {
    case 'C':
      return ItemKind::kContent;
    case 'K':
      return ItemKind::kChildSet;
    default:
      return ItemKind::kName;
  }
}

std::string_view AnomalyName(Anomaly a) {
  switch (a) {
    case Anomaly::kDirtyRead:
      return "dirty-read";
    case Anomaly::kLostUpdate:
      return "lost-update";
    case Anomaly::kNonRepeatableRead:
      return "non-repeatable-read";
    case Anomaly::kPhantom:
      return "phantom";
  }
  return "?";
}

std::string AnomalyMaskToString(AnomalyMask mask) {
  if (mask == 0) return "none";
  std::string out;
  for (int i = 0; i < kNumAnomalies; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    if (!out.empty()) out += '+';
    out += AnomalyName(static_cast<Anomaly>(i));
  }
  return out;
}

void History::AddRead(uint64_t tx, std::string item, Version v, bool dirty) {
  reads_.push_back(ReadRecord{tx, std::move(item), v, dirty});
}

void History::AddWrite(uint64_t tx, const ItemWrite& w) {
  writes_.push_back(WriteRecord{tx, w.item, w.version, w.overwritten});
}

void History::SetFate(uint64_t tx, TxFate fate) { fates_[tx] = fate; }

TxFate History::Fate(uint64_t tx) const {
  auto it = fates_.find(tx);
  return it == fates_.end() ? TxFate::kActive : it->second;
}

std::string History::Canonical() const {
  // Deduplicated + sorted, so the fingerprint is insensitive to both the
  // recording order and repeated identical observations.
  std::set<std::string> lines;
  for (const ReadRecord& r : reads_) {
    std::string line = "r ";
    line += std::to_string(r.tx);
    line += ' ';
    line += r.item;
    line += ' ';
    line += std::to_string(r.version.writer);
    line += '.';
    line += std::to_string(r.version.seq);
    if (r.dirty) line += " dirty";
    lines.insert(std::move(line));
  }
  for (const WriteRecord& w : writes_) {
    std::string line = "w ";
    line += std::to_string(w.tx);
    line += ' ';
    line += w.item;
    line += ' ';
    line += std::to_string(w.version.writer);
    line += '.';
    line += std::to_string(w.version.seq);
    line += '<';
    line += std::to_string(w.overwritten.writer);
    line += '.';
    line += std::to_string(w.overwritten.seq);
    lines.insert(std::move(line));
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  for (const auto& [tx, fate] : fates_) {
    out += 'f';
    out += std::to_string(tx);
    out += static_cast<char>('0' + static_cast<int>(fate));
  }
  return out;
}

namespace {

// Cycle detection via iterative three-color DFS over a small adjacency set.
bool HasCycle(const std::set<uint64_t>& nodes,
              const std::set<std::pair<uint64_t, uint64_t>>& edges) {
  std::map<uint64_t, int> color;  // 0 white, 1 gray, 2 black
  for (uint64_t start : nodes) {
    if (color[start] != 0) continue;
    std::vector<std::pair<uint64_t, bool>> stack{{start, false}};
    while (!stack.empty()) {
      auto [n, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        color[n] = 2;
        continue;
      }
      if (color[n] == 2) continue;
      if (color[n] == 1) continue;
      color[n] = 1;
      stack.push_back({n, true});
      for (const auto& [from, to] : edges) {
        if (from != n) continue;
        if (color[to] == 1) return true;
        if (color[to] == 0) stack.push_back({to, false});
      }
    }
  }
  return false;
}

}  // namespace

HistoryEvaluation EvaluateHistory(const History& h) {
  HistoryEvaluation out;

  std::set<uint64_t> committed;
  for (const ReadRecord& r : h.reads()) {
    if (h.Fate(r.tx) == TxFate::kCommitted) committed.insert(r.tx);
  }
  for (const WriteRecord& w : h.writes()) {
    if (h.Fate(w.tx) == TxFate::kCommitted) committed.insert(w.tx);
  }

  // --- Anomalies (attributed only to committed transactions) -------------

  // Dirty read: a committed transaction observed a version whose writer
  // had not committed at read time (and was a different transaction).
  for (const ReadRecord& r : h.reads()) {
    if (!r.dirty) continue;
    if (h.Fate(r.tx) != TxFate::kCommitted) continue;
    if (r.version.writer == 0 || r.version.writer == r.tx) continue;
    out.anomalies |= Bit(Anomaly::kDirtyRead);
  }

  // Lost update: committed B overwrote a version written by a different
  // committed transaction, after having read an *older* version of the
  // item and without ever observing the version it clobbered.
  for (const WriteRecord& w : h.writes()) {
    if (h.Fate(w.tx) != TxFate::kCommitted) continue;
    const uint64_t victim = w.overwritten.writer;
    if (victim == 0 || victim == w.tx) continue;
    if (h.Fate(victim) != TxFate::kCommitted) continue;
    bool read_older = false;
    bool read_clobbered = false;
    for (const ReadRecord& r : h.reads()) {
      if (r.tx != w.tx || r.item != w.item) continue;
      if (r.version == w.overwritten) read_clobbered = true;
      if (r.version.seq < w.overwritten.seq) read_older = true;
    }
    if (read_older && !read_clobbered) {
      out.anomalies |= Bit(Anomaly::kLostUpdate);
    }
  }

  // Non-repeatable read / phantom: a committed transaction observed two
  // distinct versions of the same item. Content/record items make a
  // non-repeatable read; child-set items make a navigation phantom.
  {
    std::map<std::pair<uint64_t, std::string>, std::set<uint32_t>> seen;
    for (const ReadRecord& r : h.reads()) {
      if (h.Fate(r.tx) != TxFate::kCommitted) continue;
      seen[{r.tx, r.item}].insert(r.version.seq);
    }
    for (const auto& [key, versions] : seen) {
      if (versions.size() < 2) continue;
      out.anomalies |= Bit(ItemKindOf(key.second) == ItemKind::kChildSet
                               ? Anomaly::kPhantom
                               : Anomaly::kNonRepeatableRead);
    }
  }

  // --- Conflict-serializability of the committed projection --------------
  //
  // The record sets carry no order, but the order of any two conflicting
  // operations by committed transactions is recoverable:
  //   ww: committed versions of one item advance monotonically in time,
  //       so sequence numbers give the write order;
  //   wr: the writer of an observed version acted before its reader;
  //   rw: a read observing version v precedes exactly the writes on that
  //       item with a higher sequence number (any such write performed
  //       before the read would have replaced what the read observed).
  std::set<std::pair<uint64_t, uint64_t>> edges;
  auto add_edge = [&edges, &committed](uint64_t from, uint64_t to) {
    if (from == to || from == 0 || to == 0) return;
    if (committed.count(from) == 0 || committed.count(to) == 0) return;
    edges.insert({from, to});
  };

  for (const WriteRecord& a : h.writes()) {
    for (const WriteRecord& b : h.writes()) {
      if (a.item != b.item || a.version.seq >= b.version.seq) continue;
      add_edge(a.tx, b.tx);  // ww
    }
  }
  for (const ReadRecord& r : h.reads()) {
    add_edge(r.version.writer, r.tx);  // wr
    for (const WriteRecord& w : h.writes()) {
      if (w.item != r.item || w.tx == r.tx) continue;
      if (w.version.seq > r.version.seq) {
        add_edge(r.tx, w.tx);  // rw: read before the overwrite
      } else if (w.version.seq <= r.version.seq) {
        add_edge(w.tx, r.tx);  // the write predates the observed version
      }
    }
  }

  out.serializable = !HasCycle(committed, edges);
  return out;
}

}  // namespace xtc::verify
