// Tests for the protocol model checker's schedule enumerator
// (src/verify/): the DFS must enumerate exactly the interleavings of the
// transaction scripts, pruning must never change the set of observable
// outcomes, and the checker must reproduce the pinned anomaly matrix on
// the clean protocols.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "protocols/expectations.h"
#include "protocols/protocol_registry.h"
#include "tamix/invariants.h"
#include "verify/checker.h"
#include "verify/corruptions.h"
#include "verify/scheduler.h"

namespace xtc::verify {
namespace {

// Two transactions of three steps each (two reads + the implicit
// commit), no lock conflicts at isolation level none: the enumerator
// must produce exactly C(6,3) = 20 maximal schedules when pruning is
// off. A pruner that merged distinct prefixes too eagerly — or a
// scheduler that dropped an enabled transaction — would change this
// count.
TEST(Scheduler, UnprunedInterleavingCountIsExact) {
  Scenario sc;
  sc.name = "count";
  sc.scripts = {
      {"A",
       {{ScriptOpKind::kNavigate, kRoleBookA},
        {ScriptOpKind::kNavigate, kRoleTopic}}},
      {"B",
       {{ScriptOpKind::kNavigate, kRoleBookB},
        {ScriptOpKind::kNavigate, kRoleTopic}}},
  };
  EnumOptions opt;
  opt.protocol = "taDOM2";
  opt.isolation = IsolationLevel::kNone;
  opt.prune = false;
  EnumResult r = EnumerateSchedules(sc, opt);
  EXPECT_EQ(r.schedules, 20u);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_FALSE(r.budget_exhausted);
}

// Three transactions, one step each (the commit): 3! = 6 schedules.
TEST(Scheduler, ThreeTransactionFactorialCount) {
  Scenario sc;
  sc.name = "count3";
  sc.scripts = {{"A", {}}, {"B", {}}, {"C", {}}};
  EnumOptions opt;
  opt.protocol = "taDOM2";
  opt.isolation = IsolationLevel::kNone;
  opt.prune = false;
  EnumResult r = EnumerateSchedules(sc, opt);
  EXPECT_EQ(r.schedules, 6u);
}

// Pruning (memoization + sleep sets) is a pure search optimization: for
// every catalog scenario, protocol and isolation level it must report
// exactly the same anomaly flags, serializability, deadlock flag and
// violations as the exhaustive run.
TEST(Scheduler, PruningPreservesOutcomes) {
  const std::vector<std::string> protocols = {"taDOM2", "Node2PL", "URIX"};
  const IsolationLevel levels[] = {IsolationLevel::kNone,
                                   IsolationLevel::kCommitted,
                                   IsolationLevel::kRepeatable};
  for (const std::string& p : protocols) {
    for (IsolationLevel lvl : levels) {
      for (const Scenario& sc : ScenarioCatalog()) {
        EnumOptions opt;
        opt.protocol = p;
        opt.isolation = lvl;
        opt.prune = true;
        EnumResult pruned = EnumerateSchedules(sc, opt);
        opt.prune = false;
        EnumResult full = EnumerateSchedules(sc, opt);
        SCOPED_TRACE(p + "/" + std::string(IsolationLevelName(lvl)) + "/" +
                     sc.name);
        EXPECT_EQ(pruned.anomalies, full.anomalies);
        EXPECT_EQ(pruned.nonserializable, full.nonserializable);
        EXPECT_EQ(pruned.deadlock, full.deadlock);
        EXPECT_EQ(pruned.violations, full.violations);
        EXPECT_LE(pruned.states, full.states);
      }
    }
  }
}

// The canonical lost-update scenario: present with locking off, gone
// (replaced by deadlock-or-serialization) at repeatable.
TEST(Scheduler, LostUpdateIsIsolationLevelDependent) {
  const Scenario* lost = nullptr;
  for (const Scenario& sc : ScenarioCatalog()) {
    if (sc.name == "lost-update") lost = &sc;
  }
  ASSERT_NE(lost, nullptr);
  EnumOptions opt;
  opt.protocol = "taDOM2";
  opt.isolation = IsolationLevel::kNone;
  EnumResult none = EnumerateSchedules(*lost, opt);
  EXPECT_TRUE(none.anomalies & Bit(Anomaly::kLostUpdate));
  opt.isolation = IsolationLevel::kRepeatable;
  EnumResult rep = EnumerateSchedules(*lost, opt);
  EXPECT_FALSE(rep.anomalies & Bit(Anomaly::kLostUpdate));
  EXPECT_TRUE(rep.violations.empty()) << rep.violations.front();
}

// Visits every maximal schedule of `exec`, replaying each prefix on a
// fresh Reset().
void ForEachLeaf(Execution& exec, std::vector<int>* prefix,
                 const std::function<void()>& leaf) {
  exec.Reset();
  for (int t : *prefix) exec.Step(t);
  std::vector<int> enabled;
  for (int t = 0; t < exec.num_txs(); ++t) {
    if (exec.Enabled(t)) enabled.push_back(t);
  }
  if (enabled.empty()) leaf();
  for (int t : enabled) {
    prefix->push_back(t);
    ForEachLeaf(exec, prefix, leaf);
    prefix->pop_back();
  }
}

// Abort parity: when every transaction writes and then aborts — itself
// or as a deadlock victim — the engine's undo path must restore the
// initial document under every interleaving.
TEST(Scheduler, AbortsRestoreTheDocumentUnderEveryInterleaving) {
  using K = ScriptOpKind;
  Scenario sc;
  sc.name = "all-abort";
  sc.scripts = {
      {"T1",
       {{K::kUpdateContent, kRoleBookAText},
        {K::kInsertChild, kRoleBookA},
        {K::kRename, kRoleBookBNote},
        {K::kAbort, -1}}},
      {"T2",
       {{K::kInsertChild, kRoleBookBNote},
        {K::kDeleteSubtree, kRoleBookA},
        {K::kAbort, -1}}},
  };
  for (const char* p : {"taDOM3+", "Node2PL", "OO2PL"}) {
    SCOPED_TRACE(p);
    std::set<std::string> violations;
    CheckProbe probe(&violations);
    LockTableOptions topt;
    topt.probe = &probe;
    std::unique_ptr<XmlProtocol> proto = CreateProtocol(p, topt);
    ASSERT_NE(proto, nullptr);
    LockManager mgr(proto.get());
    Execution exec(sc, IsolationLevel::kRepeatable, 7, &mgr, &probe,
                   &violations);
    const StatusOr<uint64_t> initial = DocumentFingerprint(exec.document());
    ASSERT_TRUE(initial.ok());

    std::vector<int> prefix;
    int leaves = 0;
    ForEachLeaf(exec, &prefix, [&] {
      ++leaves;
      EXPECT_TRUE(exec.AllFinished());
      const Status valid = exec.document().Validate();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
      const StatusOr<uint64_t> now = DocumentFingerprint(exec.document());
      ASSERT_TRUE(now.ok());
      EXPECT_EQ(*now, *initial);
    });
    EXPECT_GT(leaves, 1);
    for (const std::string& v : violations) ADD_FAILURE() << v;
  }
}

// Full matrix: every registered protocol at every isolation level must
// match its declared expectation row — the in-process equivalent of a
// `protoverify` run (kept here so plain ctest exercises it too).
TEST(Checker, AllProtocolsMatchPinnedExpectations) {
  const IsolationLevel levels[] = {
      IsolationLevel::kNone,      IsolationLevel::kUncommitted,
      IsolationLevel::kCommitted, IsolationLevel::kRepeatable,
      IsolationLevel::kSerializable,
  };
  for (std::string_view p : AllProtocolNames()) {
    for (IsolationLevel lvl : levels) {
      ProtocolCheckResult r = CheckProtocol(p, lvl, CheckOptions{});
      SCOPED_TRACE(std::string(p) + "/" +
                   std::string(IsolationLevelName(lvl)));
      ASSERT_TRUE(r.expected.has_value()) << "no expectation row declared";
      EXPECT_TRUE(r.Pass());
      for (const std::string& v : r.violations) ADD_FAILURE() << v;
    }
  }
}

// Lock-footprint dominance claims (taDOM2+ <= taDOM2, taDOM3+ <=
// taDOM3) hold cell-wise on the pairwise conflict matrices.
TEST(Checker, DominanceClaimsHold) {
  for (const DominanceCheckResult& d : CheckDominanceClaims()) {
    SCOPED_TRACE(d.better + " <= " + d.baseline);
    for (const std::string& f : d.failures) ADD_FAILURE() << f;
  }
}

// Every seeded corruption must be caught, on the declared layer.
TEST(Checker, CorruptionSelfTestCatchesEverySeed) {
  const std::vector<SelfTestResult> results =
      RunCorruptionSelfTests(CheckOptions{});
  const std::vector<CorruptionSpec>& catalog = CorruptionCatalog();
  ASSERT_EQ(results.size(), catalog.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(results[i].corruption);
    EXPECT_TRUE(results[i].Caught());
    EXPECT_EQ(results[i].caught_structurally,
              catalog[i].structurally_detectable);
  }
}

}  // namespace
}  // namespace xtc::verify
