#include "verify/scheduler.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "protocols/protocol_registry.h"

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

Execution::Execution(const Scenario& scenario, IsolationLevel isolation,
                     int lock_depth, LockManager* mgr, CheckProbe* probe,
                     std::set<std::string>* violations)
    : scripts_(scenario.scripts),
      isolation_(isolation),
      lock_depth_(lock_depth),
      mgr_(mgr),
      probe_(probe),
      violations_(violations),
      tree_(ModelTree::MakeBibTree(&roles_)) {
  for (TxScriptSpec& s : scripts_) {
    if (s.ops.empty() || (s.ops.back().kind != ScriptOpKind::kCommit &&
                          s.ops.back().kind != ScriptOpKind::kAbort)) {
      s.ops.push_back(ScriptOp{ScriptOpKind::kCommit, -1});
    }
  }
  tx_.resize(scripts_.size());
}

void Execution::Reset() {
  // Release whatever transactions are still live (terminal steps release
  // for themselves), so the shared lock table is empty again.
  for (int t = 0; t < num_txs(); ++t) {
    if (tx_[t].phase == Phase::kRunnable || tx_[t].phase == Phase::kBlocked) {
      mgr_->ReleaseAll(View(t));
    }
    tx_[t] = TxState{};
  }
  probe_->Clear();
  tree_ = ModelTree::MakeBibTree(&roles_);
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
  const TxState& s = tx_[t];
  if (s.phase == Phase::kRunnable) return true;
  // A blocked transaction is worth retrying only after some lock release
  // (every grant path starts with one; retrying into an unchanged table
  // would block again on the very same holders).
  return s.phase == Phase::kBlocked && s.blocked_gen != release_gen_;
}

bool Execution::ReadOnlyNext(int t) const {
  const TxState& s = tx_[t];
  return s.phase == Phase::kRunnable &&
         IsReadOnlyOp(scripts_[t].ops[s.pc].kind);
}

void Execution::RecordRead(int t, ItemKind kind, const Splid& node) {
  const Version v = tree_.ReadItem(kind, node);
  const bool dirty = v.writer != 0 && v.writer != TxId(t) &&
                     tx_[v.writer - 1].phase != Phase::kCommitted;
  history_.AddRead(TxId(t), ItemName(kind, node), v, dirty);
}

void Execution::RecordWrites(int t, const std::vector<ItemWrite>& writes) {
  for (const ItemWrite& w : writes) history_.AddWrite(TxId(t), w);
}

Status Execution::RunOp(int t, const ScriptOp& op) {
  // Lock requests mirror node/node_manager.cc operation by operation; the
  // tree is touched only after every lock of the operation is granted. A
  // would-block return leaves already-granted locks in place (as a
  // blocked thread would); the retry re-issues them as no-op conversions.
  const TxLockView view = View(t);
  const Splid node = op.node >= 0 ? roles_[op.node] : Splid::Root();
  switch (op.kind) {
    case ScriptOpKind::kNavigate: {
      Status s = mgr_->NodeRead(view, node);
      if (!s.ok()) return s;
      RecordRead(t, ItemKind::kName, node);
      return Status::OK();
    }
    case ScriptOpKind::kNavigateFirstChild: {
      Status s = mgr_->EdgeShared(view, node, EdgeKind::kFirstChild);
      if (!s.ok()) return s;
      const std::vector<Splid> kids = tree_.ChildrenList(node);
      if (!kids.empty()) {
        s = mgr_->NodeRead(view, kids.front());
        if (!s.ok()) return s;
        RecordRead(t, ItemKind::kName, kids.front());
      }
      return Status::OK();
    }
    case ScriptOpKind::kReadContent: {
      Status s = mgr_->LevelRead(view, node);
      if (!s.ok()) return s;
      RecordRead(t, ItemKind::kContent, node);
      return Status::OK();
    }
    case ScriptOpKind::kReadChildren: {
      Status s = mgr_->LevelRead(view, node);
      if (!s.ok()) return s;
      RecordRead(t, ItemKind::kChildSet, node);
      for (const Splid& c : tree_.ChildrenList(node)) {
        RecordRead(t, ItemKind::kName, c);
      }
      return Status::OK();
    }
    case ScriptOpKind::kDeclareUpdate: {
      // DeclareUpdateIntent only announces the write (node_manager.cc):
      // it reads nothing. A transaction that wants the old value reads
      // it afterwards, under the update lock (kReadContent).
      return mgr_->NodeUpdate(view, node);
    }
    case ScriptOpKind::kUpdateContent: {
      // Text content lives on the node's attribute/string child.
      Status s = mgr_->NodeWrite(view, node.AttributeChild());
      if (!s.ok()) return s;
      RecordWrites(t, {tree_.WriteContent(TxId(t), node)});
      return Status::OK();
    }
    case ScriptOpKind::kRename: {
      Status s = mgr_->NodeWrite(view, node);
      if (!s.ok()) return s;
      RecordWrites(t, {tree_.WriteName(TxId(t), node)});
      return Status::OK();
    }
    case ScriptOpKind::kInsertChild: {
      // Append under `node`: last-child edge, the displaced sibling's
      // next-sibling edge, then subtree-exclusive on the new label.
      Status s = mgr_->EdgeExclusive(view, node, EdgeKind::kLastChild);
      if (!s.ok()) return s;
      const std::vector<Splid> kids = tree_.ChildrenList(node);
      if (!kids.empty()) {
        s = mgr_->EdgeExclusive(view, kids.back(), EdgeKind::kNextSibling);
        if (!s.ok()) return s;
      }
      s = mgr_->TreeWrite(view, tree_.PeekAppendLabel(node));
      if (!s.ok()) return s;
      Splid created;
      RecordWrites(t, tree_.InsertChild(TxId(t), node, &created));
      return Status::OK();
    }
    case ScriptOpKind::kDeleteSubtree: {
      Status s = mgr_->PrepareSubtreeDelete(view, node);
      if (!s.ok()) return s;
      const Splid parent = node.Parent();
      const std::optional<Splid> prev = tree_.PreviousSibling(node);
      s = prev ? mgr_->EdgeExclusive(view, *prev, EdgeKind::kNextSibling)
               : mgr_->EdgeExclusive(view, parent, EdgeKind::kFirstChild);
      if (!s.ok()) return s;
      s = mgr_->EdgeExclusive(view, node, EdgeKind::kNextSibling);
      if (!s.ok()) return s;
      if (!tree_.NextSibling(node).has_value()) {
        s = mgr_->EdgeExclusive(view, parent, EdgeKind::kLastChild);
        if (!s.ok()) return s;
      }
      s = mgr_->TreeWrite(view, node);
      if (!s.ok()) return s;
      RecordWrites(t, tree_.DeleteSubtree(TxId(t), node));
      return Status::OK();
    }
    case ScriptOpKind::kCommit:
    case ScriptOpKind::kAbort:
      return Status::Internal("terminal op reached RunOp");
  }
  return Status::Internal("unhandled op kind");
}

void Execution::FinishTx(int t, bool commit) {
  mgr_->ReleaseAll(View(t));
  probe_->OnRelease(TxId(t));
  ++release_gen_;
  if (commit) {
    tree_.Commit(TxId(t));
    history_.SetFate(TxId(t), TxFate::kCommitted);
    tx_[t].phase = Phase::kCommitted;
  } else {
    tree_.Abort(TxId(t));
    history_.SetFate(TxId(t), TxFate::kAborted);
    tx_[t].phase = Phase::kAborted;
  }
}

void Execution::AbortAsVictim(int t) {
  FinishTx(t, /*commit=*/false);
  any_victim_ = true;
}

Execution::StepOutcome Execution::Step(int t) {
  ++steps_;
  TxState& s = tx_[t];
  const ScriptOp& op = scripts_[t].ops[s.pc];
  if (op.kind == ScriptOpKind::kCommit || op.kind == ScriptOpKind::kAbort) {
    ++s.pc;
    FinishTx(t, op.kind == ScriptOpKind::kCommit);
    return StepOutcome::kProgress;
  }

  const Status st = RunOp(t, op);
  if (st.ok()) {
    mgr_->EndOperation(View(t));
    // Only isolation level committed holds operation-duration locks, so
    // only there can EndOperation unblock a waiter.
    if (isolation_ == IsolationLevel::kCommitted) ++release_gen_;
    s.phase = Phase::kRunnable;
    ++s.pc;
    return StepOutcome::kProgress;
  }
  if (st.IsWouldBlock()) {
    s.phase = Phase::kBlocked;
    s.blocked_gen = release_gen_;
    return StepOutcome::kBlocked;
  }
  if (!st.IsDeadlock()) {
    violations_->insert("unexpected lock status: " +
                        std::string(st.message()));
  }
  AbortAsVictim(t);
  return StepOutcome::kVictim;
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
  out += tree_.Fingerprint();
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
  proto->set_document_accessor(&exec.tree());

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
