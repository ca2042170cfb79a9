#include "verify/scheduler.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "protocols/protocol_registry.h"
#include "util/check.h"

namespace xtc::verify {

// --- CheckProbe -----------------------------------------------------------

bool CheckProbe::CycleFrom(uint64_t start) const {
  // Does `start` reach itself through the mirrored waiter->blocker edges?
  std::vector<uint64_t> stack{start};
  std::set<uint64_t> seen;
  while (!stack.empty()) {
    uint64_t n = stack.back();
    stack.pop_back();
    auto it = edges_.find(n);
    if (it == edges_.end()) continue;
    for (uint64_t b : it->second) {
      if (b == start) return true;
      if (seen.insert(b).second) stack.push_back(b);
    }
  }
  return false;
}

void CheckProbe::OnGrant(uint64_t tx, std::string_view /*resource*/,
                         ModeId /*previous*/, ModeId /*effective*/,
                         LockDuration /*duration*/) {
  edges_.erase(tx);
}

void CheckProbe::OnWouldBlock(uint64_t tx, std::string_view /*resource*/,
                              ModeId /*target*/,
                              const std::vector<uint64_t>& blockers) {
  edges_[tx] = blockers;
  if (CycleFrom(tx)) {
    violations_->insert(
        "undetected deadlock: request reported would-block while the "
        "wait-for graph has a cycle through the requester");
  }
}

void CheckProbe::OnDeadlockVictim(uint64_t tx, std::string_view /*resource*/,
                                  ModeId /*target*/,
                                  const std::vector<uint64_t>& blockers) {
  edges_[tx] = blockers;
  if (!CycleFrom(tx)) {
    violations_->insert(
        "false victim: transaction aborted as deadlock victim but the "
        "wait-for graph has no cycle through it");
  }
  edges_.erase(tx);
}

// --- Execution ------------------------------------------------------------

namespace {

using K = ScriptOpKind;

// The bib-shaped scenario document (roles in verify/scripts.h).
SubtreeSpec ScenarioDocument() {
  const SubtreeSpec note{"note", {}, "", {}};
  const SubtreeSpec book_a{"book", {}, "a", {}};
  const SubtreeSpec book_b{"book", {}, "b", {note}};
  const SubtreeSpec topic{"topic", {}, "", {book_a, book_b}};
  return SubtreeSpec{"bib", {}, "", {topic}};
}

// Every replay reopens the document from one snapshot and reads each
// page back under its checksum: small pages and few frames keep that
// cheap, and the dozen-node document fits either way.
StorageOptions ScenarioStorage() {
  StorageOptions options;
  options.buffer_pool_pages = 16;
  options.page_size = 512;
  return options;
}

}  // namespace

Execution::Execution(const Scenario& scenario, IsolationLevel isolation,
                     int lock_depth, LockManager* mgr, CheckProbe* probe,
                     std::set<std::string>* violations)
    : scripts_(scenario.scripts),
      isolation_(isolation),
      lock_depth_(lock_depth),
      mgr_(mgr),
      probe_(probe),
      violations_(violations) {
  for (TxScriptSpec& s : scripts_) {
    if (s.ops.empty() ||
        (s.ops.back().kind != K::kCommit && s.ops.back().kind != K::kAbort)) {
      s.ops.push_back(ScriptOp{K::kCommit, -1});
    }
  }
  Document built(ScenarioStorage());
  XTC_CHECK(built.BuildFromSpec(ScenarioDocument()).ok(),
            "scenario document build failed");
  auto snapshot = built.Snapshot();
  XTC_CHECK(snapshot.ok(), "scenario document snapshot failed");
  scenario_ = std::move(*snapshot);
  Reset();
  auto child = [this](const Splid& parent, size_t i) {
    return doc_->Children(parent)->at(i).splid;
  };
  const Splid root = Splid::Root();
  const Splid topic = child(root, 0);
  const Splid book_a = child(topic, 0);
  const Splid book_b = child(topic, 1);
  roles_ = {root,   topic,           book_a,           child(book_a, 0),
            book_b, child(book_b, 0), child(book_b, 1)};
}

void Execution::Reset() {
  // Release whatever transactions are still live (terminal steps release
  // for themselves), so the shared lock table is empty again.
  for (const std::unique_ptr<Transaction>& tx : txs_) {
    if (tx->state() == TxState::kActive) mgr_->ReleaseAll(tx->LockView());
  }
  probe_->Clear();
  txs_.clear();
  nodes_.reset();
  txm_.reset();
  auto doc = Document::Open(ScenarioStorage(), scenario_);
  XTC_CHECK(doc.ok(), "scenario document open failed");
  doc_ = std::move(*doc);
  txm_ = std::make_unique<TransactionManager>(mgr_);
  nodes_ = std::make_unique<NodeManager>(doc_.get(), mgr_);
  for (int t = 0; t < num_txs(); ++t) {
    txs_.push_back(txm_->Begin(isolation_, lock_depth_));
  }
  tx_.assign(scripts_.size(), Progress{});
  versions_.clear();
  writes_.assign(scripts_.size(), {});
  seq_ = 0;
  history_ = History{};
  release_gen_ = 0;
  any_victim_ = false;
}

bool Execution::Finished(int t) const {
  return tx_[t].phase == Phase::kCommitted || tx_[t].phase == Phase::kAborted;
}

bool Execution::AllFinished() const {
  for (int t = 0; t < num_txs(); ++t) {
    if (!Finished(t)) return false;
  }
  return true;
}

bool Execution::Enabled(int t) const {
  const Progress& s = tx_[t];
  if (s.phase == Phase::kRunnable) return true;
  // A blocked transaction is worth retrying only after some lock release
  // (every grant path starts with one; retrying into an unchanged table
  // would block again on the very same holders).
  return s.phase == Phase::kBlocked && s.blocked_gen != release_gen_;
}

bool Execution::ReadOnlyNext(int t) const {
  const Progress& s = tx_[t];
  return s.phase == Phase::kRunnable &&
         IsReadOnlyOp(scripts_[t].ops[s.pc].kind);
}

void Execution::RecordRead(int t, ItemKind kind, const Splid& node) {
  std::string item = ItemName(kind, node);
  auto it = versions_.find(item);
  const Version v = it == versions_.end() ? Version{} : it->second;
  const bool dirty = v.writer != 0 && v.writer != TxId(t) &&
                     tx_[v.writer - 1].phase != Phase::kCommitted;
  history_.AddRead(TxId(t), std::move(item), v, dirty);
}

void Execution::RecordWrite(int t, ItemKind kind, const Splid& node) {
  std::string item = ItemName(kind, node);
  Version& current = versions_[item];
  const ItemWrite w{std::move(item), Version{TxId(t), ++seq_}, current};
  current = w.version;
  history_.AddWrite(TxId(t), w);
  writes_[t].push_back(w);
}

Status Execution::RunOp(int t, const ScriptOp& op) {
  // A would-block return leaves already-granted locks in place, as a
  // parked thread would.
  Transaction& tx = *txs_[t];
  const Splid& node = roles_[op.node];
  switch (op.kind) {
    case K::kNavigate: {
      XTC_RETURN_IF_ERROR(nodes_->GetNode(tx, node).status());
      RecordRead(t, ItemKind::kName, node);
      return Status::OK();
    }
    case K::kNavigateFirstChild: {
      XTC_ASSIGN_OR_RETURN(std::optional<Node> child,
                           nodes_->GetFirstChild(tx, node));
      if (child.has_value()) RecordRead(t, ItemKind::kName, child->splid);
      return Status::OK();
    }
    case K::kReadContent: {
      XTC_RETURN_IF_ERROR(nodes_->GetTextContent(tx, node).status());
      RecordRead(t, ItemKind::kContent, node);
      return Status::OK();
    }
    case K::kReadChildren: {
      XTC_ASSIGN_OR_RETURN(std::vector<Node> kids,
                           nodes_->GetChildNodes(tx, node));
      RecordRead(t, ItemKind::kChildSet, node);
      for (const Node& c : kids) RecordRead(t, ItemKind::kName, c.splid);
      return Status::OK();
    }
    case K::kDeclareUpdate:
      // Announces the write only; a transaction that wants the old value
      // reads it afterwards, under the update lock (kReadContent).
      return nodes_->DeclareUpdateIntent(tx, node);
    case K::kUpdateContent: {
      XTC_RETURN_IF_ERROR(nodes_->UpdateText(tx, node, "updated"));
      RecordWrite(t, ItemKind::kContent, node);
      return Status::OK();
    }
    case K::kRename: {
      XTC_RETURN_IF_ERROR(nodes_->Rename(tx, node, "renamed"));
      RecordWrite(t, ItemKind::kName, node);
      return Status::OK();
    }
    case K::kInsertChild: {
      XTC_ASSIGN_OR_RETURN(
          Splid label,
          nodes_->AppendSubtree(tx, node, SubtreeSpec{"chapter", {}, "", {}}));
      RecordWrite(t, ItemKind::kChildSet, node);
      RecordWrite(t, ItemKind::kName, label);
      return Status::OK();
    }
    case K::kDeleteSubtree: {
      // Calls run one at a time, so the subtree listed now is exactly
      // what a successful delete removes.
      XTC_ASSIGN_OR_RETURN(std::vector<Node> doomed, doc_->Subtree(node));
      XTC_RETURN_IF_ERROR(nodes_->DeleteSubtree(tx, node));
      RecordWrite(t, ItemKind::kChildSet, node.Parent());
      for (const Node& n : doomed) {
        for (ItemKind kind :
             {ItemKind::kName, ItemKind::kContent, ItemKind::kChildSet}) {
          RecordWrite(t, kind, n.splid);
        }
      }
      return Status::OK();
    }
    case K::kCommit:
    case K::kAbort:
      return Status::Internal("terminal op reached RunOp");
  }
  return Status::Internal("unhandled op kind");
}

void Execution::FinishTx(int t, bool commit) {
  Transaction& tx = *txs_[t];
  const Status st = commit ? txm_->Commit(tx) : txm_->Abort(tx);
  if (!st.ok()) violations_->insert("commit/abort failed: " + st.ToString());
  probe_->OnRelease(TxId(t));
  ++release_gen_;
  if (!commit) {
    // The abort undid the document changes; undo the versions with them.
    for (auto w = writes_[t].rbegin(); w != writes_[t].rend(); ++w) {
      versions_[w->item] = w->overwritten;
    }
  }
  writes_[t].clear();
  history_.SetFate(TxId(t), commit ? TxFate::kCommitted : TxFate::kAborted);
  tx_[t].phase = commit ? Phase::kCommitted : Phase::kAborted;
}

Execution::StepOutcome Execution::Step(int t) {
  ++steps_;
  Progress& s = tx_[t];
  const ScriptOp& op = scripts_[t].ops[s.pc];
  if (op.kind == K::kCommit || op.kind == K::kAbort) {
    ++s.pc;
    FinishTx(t, op.kind == K::kCommit);
    return StepOutcome::kProgress;
  }

  const std::string before = DocumentImage();
  const Status st = RunOp(t, op);
  if (st.ok()) {
    // Only isolation level committed holds operation-duration locks, so
    // only there can the call's EndOperation unblock a waiter.
    if (isolation_ == IsolationLevel::kCommitted) ++release_gen_;
    s.phase = Phase::kRunnable;
    ++s.pc;
    return StepOutcome::kProgress;
  }
  if (st.IsWouldBlock()) {
    // The retry makes the whole call again, which is sound only if every
    // request that can block precedes the call's first mutation.
    if (DocumentImage() != before) {
      violations_->insert(
          "blocked operation mutated the document before its last lock "
          "request");
    }
    s.phase = Phase::kBlocked;
    s.blocked_gen = release_gen_;
    return StepOutcome::kBlocked;
  }
  if (!st.IsDeadlock()) {
    violations_->insert("unexpected status: " + st.ToString());
  }
  FinishTx(t, /*commit=*/false);
  any_victim_ = true;
  return StepOutcome::kVictim;
}

std::string Execution::DocumentImage() const {
  auto nodes = doc_->Subtree(Splid::Root());
  XTC_CHECK(nodes.ok(), "scenario document scan failed");
  std::string out;
  for (const Node& n : *nodes) {
    out += n.splid.ToString();
    out += '=';
    out += n.record.Encode();
    out += ';';
  }
  return out;
}

std::string Execution::CanonicalState() const {
  std::string out;
  for (int t = 0; t < num_txs(); ++t) {
    out += 'T';
    out += std::to_string(tx_[t].pc);
    out += static_cast<char>('a' + static_cast<int>(tx_[t].phase));
    out += Enabled(t) ? '+' : '-';
  }
  out += '|';
  for (const LockTable::HoldSnapshot& h :
       mgr_->protocol().table().SnapshotHolds()) {
    out += std::to_string(h.resource.size());
    out += ':';
    out += h.resource;
    out += '#';
    out += std::to_string(h.tx);
    out += ',';
    out += std::to_string(h.long_mode);
    out += ',';
    out += std::to_string(h.short_mode);
    out += ';';
  }
  out += '|';
  out += DocumentImage();
  out += '|';
  for (const auto& [item, v] : versions_) {
    out += item;
    out += '=';
    out += std::to_string(v.writer);
    out += '.';
    out += std::to_string(v.seq);
    out += ';';
  }
  out += '|';
  out += history_.Canonical();
  return out;
}

// --- EnumerateSchedules ---------------------------------------------------

EnumResult EnumerateSchedules(const Scenario& scenario,
                              const EnumOptions& options) {
  EnumResult res;
  std::set<std::string> violations;
  CheckProbe probe(&violations);

  LockTableOptions topt;
  topt.probe = &probe;
  if (options.mutate_options) options.mutate_options(&topt);

  std::unique_ptr<XmlProtocol> proto = CreateProtocol(options.protocol, topt);
  if (proto == nullptr) {
    res.violations.push_back("unknown protocol: " + options.protocol);
    return res;
  }
  if (options.mutate_protocol) options.mutate_protocol(proto.get());

  LockManager mgr(proto.get());
  Execution exec(scenario, options.isolation, options.lock_depth, &mgr, &probe,
                 &violations);

  const int n = exec.num_txs();
  const bool use_sleep =
      options.prune && options.isolation != IsolationLevel::kCommitted;
  std::unordered_map<std::string, uint32_t> memo;
  std::vector<int> prefix;

  auto replay = [&]() {
    exec.Reset();
    for (int t : prefix) exec.Step(t);
  };

  std::function<void(uint32_t)> dfs = [&](uint32_t sleep) {
    if (res.budget_exhausted) return;
    if (exec.steps_taken() > options.max_steps) {
      res.budget_exhausted = true;
      return;
    }
    ++res.states;

    std::vector<int> enabled;
    for (int t = 0; t < n; ++t) {
      if (exec.Enabled(t)) enabled.push_back(t);
    }
    if (enabled.empty()) {
      ++res.schedules;
      if (!exec.AllFinished()) {
        violations.insert(
            "stall: unfinished transactions but none can make progress "
            "(undetected deadlock)");
      }
      const HistoryEvaluation ev = EvaluateHistory(exec.history());
      res.anomalies |= ev.anomalies;
      if (!ev.serializable) res.nonserializable = true;
      if (exec.any_victim()) res.deadlock = true;
      const Status valid = exec.document().Validate();
      if (!valid.ok()) {
        violations.insert("leaf document fails Validate: " + valid.ToString());
      }
      return;
    }

    if (options.prune) {
      std::string key = exec.CanonicalState();
      auto it = memo.find(key);
      if (it != memo.end()) {
        if ((it->second & ~sleep) == 0) {
          // Everything explorable from here was explored under a sleep
          // set no larger than ours.
          ++res.pruned;
          return;
        }
        it->second &= sleep;
      } else {
        memo.emplace(std::move(key), sleep);
      }
    }

    std::vector<bool> read_only(n);
    for (int t = 0; t < n; ++t) read_only[t] = exec.ReadOnlyNext(t);

    std::vector<int> to_explore;
    for (int t : enabled) {
      if (use_sleep && ((sleep >> t) & 1u)) continue;
      to_explore.push_back(t);
    }
    uint32_t explored = 0;
    for (size_t i = 0; i < to_explore.size(); ++i) {
      const int t = to_explore[i];
      uint32_t child_sleep = 0;
      if (use_sleep) {
        child_sleep = sleep | explored;
        for (int u = 0; u < n; ++u) {
          // A sleeping step stays asleep only while it commutes with the
          // chosen one; read-only/read-only pairs of runnable
          // transactions are the sole case we claim.
          if (((child_sleep >> u) & 1u) && !(read_only[t] && read_only[u])) {
            child_sleep &= ~(1u << u);
          }
        }
      }
      prefix.push_back(t);
      exec.Step(t);
      dfs(child_sleep);
      prefix.pop_back();
      explored |= 1u << t;
      if (i + 1 < to_explore.size()) replay();  // caller replays otherwise
    }
  };

  dfs(0);
  res.steps = exec.steps_taken();
  res.violations.assign(violations.begin(), violations.end());
  return res;
}

}  // namespace xtc::verify
