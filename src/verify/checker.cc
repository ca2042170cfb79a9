#include "verify/checker.h"

#include <set>

#include "lock/lock_manager.h"
#include "protocols/protocol.h"
#include "protocols/protocol_registry.h"

namespace xtc::verify {

namespace {

using K = ScriptOpKind;

Scenario Sc(std::string name, std::vector<TxScriptSpec> scripts) {
  return Scenario{std::move(name), std::move(scripts)};
}

std::vector<Scenario> BuildCatalog() {
  std::vector<Scenario> out;

  // Writer aborts after a content update; may the reader see the
  // uncommitted version?
  out.push_back(Sc("dirty-read",
                   {{"T1w", {{K::kUpdateContent, kRoleBookAText},
                             {K::kAbort, -1}}},
                    {"T2r", {{K::kReadContent, kRoleBookAText},
                             {K::kCommit, -1}}}}));

  // Rename then re-navigate by both sides: record-level dirty read.
  out.push_back(Sc("dirty-read-rename",
                   {{"T1w", {{K::kRename, kRoleBookA},
                             {K::kNavigate, kRoleBookA},
                             {K::kCommit, -1}}},
                    {"T2r", {{K::kNavigate, kRoleBookA},
                             {K::kCommit, -1}}}}));

  // The classic read-modify-write race (naive, no update intent).
  out.push_back(Sc("lost-update",
                   {{"T1", {{K::kReadContent, kRoleBookAText},
                            {K::kUpdateContent, kRoleBookAText},
                            {K::kCommit, -1}}},
                    {"T2", {{K::kReadContent, kRoleBookAText},
                            {K::kUpdateContent, kRoleBookAText},
                            {K::kCommit, -1}}}}));

  // Same race under the update-mode discipline: declare first, then
  // read the old value under the update lock, then write. Protocols
  // with real update modes serialize it without deadlock.
  out.push_back(Sc("lost-update-u",
                   {{"T1", {{K::kDeclareUpdate, kRoleBookAText},
                            {K::kReadContent, kRoleBookAText},
                            {K::kUpdateContent, kRoleBookAText},
                            {K::kCommit, -1}}},
                    {"T2", {{K::kDeclareUpdate, kRoleBookAText},
                            {K::kReadContent, kRoleBookAText},
                            {K::kUpdateContent, kRoleBookAText},
                            {K::kCommit, -1}}}}));

  // Re-read of one content item around a foreign update.
  out.push_back(Sc("non-repeatable",
                   {{"T1r", {{K::kReadContent, kRoleBookAText},
                             {K::kReadContent, kRoleBookAText},
                             {K::kCommit, -1}}},
                    {"T2w", {{K::kUpdateContent, kRoleBookAText},
                             {K::kCommit, -1}}}}));

  // Child-set re-read around a foreign insert (navigation phantom).
  out.push_back(Sc("phantom-insert",
                   {{"T1r", {{K::kReadChildren, kRoleBookA},
                             {K::kReadChildren, kRoleBookA},
                             {K::kCommit, -1}}},
                    {"T2w", {{K::kInsertChild, kRoleBookA},
                             {K::kCommit, -1}}}}));

  // Child-set re-read around a foreign subtree delete.
  out.push_back(Sc("phantom-delete",
                   {{"T1r", {{K::kReadChildren, kRoleTopic},
                             {K::kReadChildren, kRoleTopic},
                             {K::kCommit, -1}}},
                    {"T2w", {{K::kDeleteSubtree, kRoleBookB},
                             {K::kCommit, -1}}}}));

  // Insert then re-read own children: exercises the Fig. 4 CX+LR
  // children side effect (the corrupted taDOM2 admits a foreign rename
  // of a child between the two reads).
  out.push_back(Sc("insert-readchildren",
                   {{"T1", {{K::kInsertChild, kRoleBookB},
                            {K::kReadChildren, kRoleBookB},
                            {K::kReadChildren, kRoleBookB},
                            {K::kCommit, -1}}},
                    {"T2", {{K::kRename, kRoleBookBNote},
                            {K::kCommit, -1}}}}));

  // taDOM3's documented NX conversion waiver: navigate, insert (IX on
  // the node), navigate again — a concurrent rename can slip between.
  out.push_back(Sc("tadom3-waiver",
                   {{"T1", {{K::kNavigate, kRoleBookA},
                            {K::kInsertChild, kRoleBookA},
                            {K::kNavigate, kRoleBookA},
                            {K::kCommit, -1}}},
                    {"T2", {{K::kRename, kRoleBookA},
                            {K::kCommit, -1}}}}));

  // Trimmed three-transaction TaMix mix: query + append + update.
  out.push_back(Sc("tamix-mix",
                   {{"T1", {{K::kReadChildren, kRoleBookA},
                            {K::kReadContent, kRoleBookAText},
                            {K::kCommit, -1}}},
                    {"T2", {{K::kInsertChild, kRoleBookA},
                            {K::kCommit, -1}}},
                    {"T3", {{K::kDeclareUpdate, kRoleBookAText},
                            {K::kUpdateContent, kRoleBookAText},
                            {K::kCommit, -1}}}}));

  // First-child navigation vs. deletion of that first child: exercises
  // the first-child edge locks; the middle Navigate makes the deletion
  // visible to the oracle as a non-repeatable record read.
  out.push_back(Sc("navigate-first-child",
                   {{"T1r", {{K::kNavigateFirstChild, kRoleTopic},
                             {K::kNavigate, kRoleBookA},
                             {K::kNavigateFirstChild, kRoleTopic},
                             {K::kCommit, -1}}},
                    {"T2w", {{K::kDeleteSubtree, kRoleBookA},
                             {K::kCommit, -1}}}}));

  // Phantom against a childless parent: the empty-level corner several
  // edge-locking protocols cover differently from the populated case.
  out.push_back(Sc("phantom-insert-empty",
                   {{"T1r", {{K::kReadChildren, kRoleBookBNote},
                             {K::kReadChildren, kRoleBookBNote},
                             {K::kCommit, -1}}},
                    {"T2w", {{K::kInsertChild, kRoleBookBNote},
                             {K::kCommit, -1}}}}));

  return out;
}

}  // namespace

const std::vector<Scenario>& ScenarioCatalog() {
  static const std::vector<Scenario> kCatalog = BuildCatalog();
  return kCatalog;
}

ProtocolCheckResult CheckProtocol(std::string_view protocol,
                                  IsolationLevel level,
                                  const CheckOptions& options) {
  ProtocolCheckResult out;
  out.protocol = std::string(protocol);
  out.level = level;
  out.expected = ExpectedBehavior(protocol, level);

  for (const Scenario& sc : ScenarioCatalog()) {
    EnumOptions eo;
    eo.protocol = std::string(protocol);
    eo.isolation = level;
    eo.prune = options.prune;
    eo.max_steps = options.max_steps;
    eo.mutate_protocol = options.mutate_protocol;
    eo.mutate_options = options.mutate_options;

    EnumResult r = EnumerateSchedules(sc, eo);
    out.measured.dirty_read |= (r.anomalies & Bit(Anomaly::kDirtyRead)) != 0;
    out.measured.lost_update |= (r.anomalies & Bit(Anomaly::kLostUpdate)) != 0;
    out.measured.non_repeatable |=
        (r.anomalies & Bit(Anomaly::kNonRepeatableRead)) != 0;
    out.measured.phantom |= (r.anomalies & Bit(Anomaly::kPhantom)) != 0;
    out.measured.nonserializable |= r.nonserializable;
    out.measured.deadlock |= r.deadlock;
    out.schedules += r.schedules;
    out.states += r.states;
    out.steps += r.steps;
    out.budget_exhausted |= r.budget_exhausted;
    for (const std::string& v : r.violations) {
      out.violations.push_back(sc.name + ": " + v);
    }
    out.outcomes.push_back(ScenarioOutcome{sc.name, std::move(r)});
  }
  return out;
}

// --- Conflict matrices / dominance ----------------------------------------

namespace {

struct ConflictOp {
  std::string label;
  ScriptOp op;
};

const std::vector<ConflictOp>& ConflictOps() {
  static const std::vector<ConflictOp> kOps = {
      {"navigate(bookA)", {K::kNavigate, kRoleBookA}},
      {"first-child(bookA)", {K::kNavigateFirstChild, kRoleBookA}},
      {"read-content(textA)", {K::kReadContent, kRoleBookAText}},
      {"read-children(bookA)", {K::kReadChildren, kRoleBookA}},
      {"read-children(topic)", {K::kReadChildren, kRoleTopic}},
      {"declare-update(textA)", {K::kDeclareUpdate, kRoleBookAText}},
      {"update-content(textA)", {K::kUpdateContent, kRoleBookAText}},
      {"rename(bookA)", {K::kRename, kRoleBookA}},
      {"insert-child(bookA)", {K::kInsertChild, kRoleBookA}},
      {"delete-subtree(bookB)", {K::kDeleteSubtree, kRoleBookB}},
  };
  return kOps;
}

}  // namespace

ConflictMatrix BuildConflictMatrix(std::string_view protocol) {
  ConflictMatrix out;
  out.protocol = std::string(protocol);

  std::set<std::string> violations;
  CheckProbe probe(&violations);
  LockTableOptions topt;
  topt.probe = &probe;
  std::unique_ptr<XmlProtocol> proto = CreateProtocol(protocol, topt);
  if (proto == nullptr) {
    out.violations.push_back("unknown protocol: " + out.protocol);
    return out;
  }
  LockManager mgr(proto.get());

  const std::vector<ConflictOp>& ops = ConflictOps();
  for (const ConflictOp& o : ops) out.ops.push_back(o.label);
  out.blocked.assign(ops.size(), std::vector<bool>(ops.size(), false));

  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = 0; j < ops.size(); ++j) {
      Scenario sc{"cell",
                  {TxScriptSpec{"H", {ops[i].op}},
                   TxScriptSpec{"C", {ops[j].op}}}};
      Execution exec(sc, IsolationLevel::kRepeatable, 7, &mgr, &probe,
                     &violations);
      exec.Step(0);  // the holder's operation (never blocks when alone)
      const Execution::StepOutcome got = exec.Step(1);
      out.blocked[i][j] = got != Execution::StepOutcome::kProgress;
      exec.Reset();  // releases both transactions: table empty again
    }
  }
  out.violations.assign(violations.begin(), violations.end());
  return out;
}

std::vector<DominanceCheckResult> CheckDominanceClaims() {
  std::vector<DominanceCheckResult> out;
  for (const DominanceClaim& claim : FootprintDominanceClaims()) {
    DominanceCheckResult r;
    r.better = std::string(claim.better);
    r.baseline = std::string(claim.baseline);
    const ConflictMatrix better = BuildConflictMatrix(claim.better);
    const ConflictMatrix baseline = BuildConflictMatrix(claim.baseline);
    for (const std::string& v : better.violations) r.failures.push_back(v);
    for (const std::string& v : baseline.violations) r.failures.push_back(v);
    for (size_t i = 0; i < better.ops.size(); ++i) {
      for (size_t j = 0; j < better.ops.size(); ++j) {
        if (better.blocked[i][j] && !baseline.blocked[i][j]) {
          r.failures.push_back("holder " + better.ops[i] + " vs challenger " +
                               better.ops[j] + ": " + r.better +
                               " blocks where " + r.baseline + " does not");
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

// --- Corruption self-test -------------------------------------------------

std::vector<SelfTestResult> RunCorruptionSelfTests(
    const CheckOptions& options) {
  std::vector<SelfTestResult> out;
  for (const CorruptionSpec& c : CorruptionCatalog()) {
    SelfTestResult r;
    r.corruption = c.id;

    // Structural layer: does ModeTable::Verify reject the mutated table?
    if (c.apply) {
      std::unique_ptr<XmlProtocol> proto = CreateProtocol(c.protocol);
      if (proto != nullptr) {
        ApplyCorruption(c, proto.get());
        auto* base = dynamic_cast<ProtocolBase*>(proto.get());
        const Status v = base->modes().Verify(c.protocol);
        if (!v.ok()) {
          r.caught_structurally = true;
          r.evidence.push_back("Verify: " + v.message());
        }
      }
    }
    if (r.caught_structurally != c.structurally_detectable) {
      r.evidence.push_back(
          c.structurally_detectable
              ? "EXPECTED structural detection but Verify accepted the table"
              : "expected Verify to accept, but it rejected");
    }

    // Behavioral layer: does any isolation level diverge from the
    // declared expectation (or trip a checker invariant)?
    for (IsolationLevel level :
         {IsolationLevel::kCommitted, IsolationLevel::kRepeatable}) {
      CheckOptions co = options;
      co.mutate_protocol = c.apply;
      co.mutate_options = c.mutate_options;
      const ProtocolCheckResult pcr = CheckProtocol(c.protocol, level, co);
      if (!pcr.Pass()) {
        r.caught_behaviorally = true;
        std::string why;
        if (!pcr.violations.empty()) {
          why = "violation: " + pcr.violations.front();
        } else if (pcr.expected.has_value()) {
          why = "measured behavior diverges from expectation";
        } else {
          why = "no expectation declared";
        }
        r.evidence.push_back(std::string(IsolationLevelName(level)) + ": " +
                             why);
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace xtc::verify
