// protoverify: exhaustive model checker for the contest's lock protocols.
//
// Where protolint statically lints each protocol's mode table, protoverify
// *executes* the protocols: it enumerates every interleaving of a catalog
// of 2–3 transaction scenarios (src/verify/checker.cc), each op one
// NodeManager call on a small in-memory Document, with commit and abort
// through TransactionManager, over the real LockManager/LockTable/
// protocol stack — single-threaded, deterministic, with a LockEventProbe
// installed: a blocked request runs the engine's wait path up to the
// park, then returns kWouldBlock — and checks, per protocol and
// isolation level, that
//   * exactly the declared anomalies occur (protocols/expectations.cc:
//     dirty read, lost update, non-repeatable read, phantom,
//     non-serializable schedules, deadlocks),
//   * every blocking cycle is detected (no undetected deadlock, no false
//     victim, no stalled schedule),
//   * no blocked call changed the document, and every schedule ends with
//     a document that passes Document::Validate,
//   * the lock-footprint dominance claims hold (taDOM2+ never blocks
//     where taDOM2 does not, etc.), verified cell-wise on pairwise
//     conflict matrices.
//
// Usage:
//   protoverify                     full matrix + dominance claims
//   protoverify --protocol NAME     restrict to one protocol
//   protoverify --isolation LEVEL   restrict to one isolation level
//   protoverify --no-prune          disable memoization/sleep sets
//   protoverify --max-steps N       per-(protocol,level) step budget
//   protoverify --selftest          seed catalog corruptions; all must be
//                                   caught (structurally or behaviorally)
//   protoverify --print-measured    emit expectations.cc table rows
//   protoverify --print-doc-matrix  emit docs/PROTOCOLS.md anomaly tables
//   protoverify --print-dominance   emit the measured pairwise dominance
//                                   relation over all protocols

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "protocols/expectations.h"
#include "protocols/protocol_registry.h"
#include "verify/checker.h"

namespace xtc::verify {
namespace {

const IsolationLevel kLevels[] = {
    IsolationLevel::kNone,      IsolationLevel::kUncommitted,
    IsolationLevel::kCommitted, IsolationLevel::kRepeatable,
    IsolationLevel::kSerializable,
};

std::string FlagStr(const AnomalyExpectation& e) {
  std::string s;
  auto put = [&s](bool b, char c) { s += b ? c : '-'; };
  put(e.dirty_read, 'D');
  put(e.lost_update, 'L');
  put(e.non_repeatable, 'N');
  put(e.phantom, 'P');
  put(e.nonserializable, 'S');
  put(e.deadlock, 'K');
  return s;
}

const char* B(bool b) { return b ? "true" : "false"; }

int RunMatrix(const std::vector<std::string_view>& protocols,
              const std::vector<IsolationLevel>& levels,
              const CheckOptions& opts, bool print_measured,
              bool print_doc) {
  int failures = 0;
  std::vector<ProtocolCheckResult> all;
  for (std::string_view p : protocols) {
    for (IsolationLevel lvl : levels) {
      all.push_back(CheckProtocol(p, lvl, opts));
    }
  }

  if (print_measured) {
    std::printf("const std::vector<ExpectationRow> kExpectations = {\n");
    std::printf("    // {protocol, level, {dirty, lost, non-rep, phantom,"
                " non-ser, deadlock}}\n");
    for (const ProtocolCheckResult& r : all) {
      std::printf("    {\"%s\", IsolationLevel::k%c%s,\n"
                  "     E{%s, %s, %s, %s, %s, %s}},\n",
                  r.protocol.c_str(),
                  static_cast<char>(
                      std::string(IsolationLevelName(r.level))[0] - 32),
                  std::string(IsolationLevelName(r.level)).c_str() + 1,
                  B(r.measured.dirty_read), B(r.measured.lost_update),
                  B(r.measured.non_repeatable), B(r.measured.phantom),
                  B(r.measured.nonserializable), B(r.measured.deadlock));
    }
    std::printf("};\n");
    return 0;
  }

  if (print_doc) {
    for (IsolationLevel lvl : levels) {
      std::printf("### Isolation level %s\n\n",
                  std::string(IsolationLevelName(lvl)).c_str());
      std::printf("| Protocol | dirty read | lost update | non-repeatable |"
                  " phantom | non-serializable | deadlock |\n");
      std::printf("|---|---|---|---|---|---|---|\n");
      for (const ProtocolCheckResult& r : all) {
        if (r.level != lvl) continue;
        auto cell = [](bool b) { return b ? "X" : "-"; };
        std::printf("| %s | %s | %s | %s | %s | %s | %s |\n",
                    r.protocol.c_str(), cell(r.measured.dirty_read),
                    cell(r.measured.lost_update),
                    cell(r.measured.non_repeatable), cell(r.measured.phantom),
                    cell(r.measured.nonserializable),
                    cell(r.measured.deadlock));
      }
      std::printf("\n");
    }
    return 0;
  }

  uint64_t total_states = 0;
  uint64_t total_steps = 0;
  for (const ProtocolCheckResult& r : all) {
    total_states += r.states;
    total_steps += r.steps;
    const bool pass = r.Pass();
    if (!pass) ++failures;
    std::printf("%-4s  %-9s %-12s measured %s", pass ? "OK" : "FAIL",
                r.protocol.c_str(),
                std::string(IsolationLevelName(r.level)).c_str(),
                FlagStr(r.measured).c_str());
    if (!r.expected.has_value()) {
      std::printf("  expected <undeclared>");
    } else if (!(*r.expected == r.measured)) {
      std::printf("  expected %s", FlagStr(*r.expected).c_str());
    }
    std::printf("  (%llu schedules, %llu states)\n",
                static_cast<unsigned long long>(r.schedules),
                static_cast<unsigned long long>(r.states));
    if (r.budget_exhausted) {
      std::printf("      step budget exhausted (raise --max-steps)\n");
    }
    for (const std::string& v : r.violations) {
      std::printf("      violation: %s\n", v.c_str());
    }
  }
  std::printf("matrix: %zu checks, %d failed, %llu states, %llu steps\n",
              all.size(), failures,
              static_cast<unsigned long long>(total_states),
              static_cast<unsigned long long>(total_steps));
  return failures;
}

int RunDominance() {
  int failures = 0;
  for (const DominanceCheckResult& d : CheckDominanceClaims()) {
    if (d.failures.empty()) {
      std::printf("OK    dominance %s <= %s\n", d.better.c_str(),
                  d.baseline.c_str());
      continue;
    }
    ++failures;
    std::printf("FAIL  dominance %s <= %s\n", d.better.c_str(),
                d.baseline.c_str());
    for (const std::string& f : d.failures) {
      std::printf("      %s\n", f.c_str());
    }
  }
  return failures;
}

int PrintDominanceRelation() {
  const auto& names = AllProtocolNames();
  std::vector<ConflictMatrix> mats;
  for (std::string_view n : names) mats.push_back(BuildConflictMatrix(n));
  for (size_t a = 0; a < mats.size(); ++a) {
    for (size_t b = 0; b < mats.size(); ++b) {
      if (a == b) continue;
      bool subset = true;
      int extra = 0;
      for (size_t i = 0; i < mats[a].ops.size() && subset; ++i) {
        for (size_t j = 0; j < mats[a].ops.size(); ++j) {
          if (mats[a].blocked[i][j] && !mats[b].blocked[i][j]) {
            subset = false;
            break;
          }
          if (!mats[a].blocked[i][j] && mats[b].blocked[i][j]) ++extra;
        }
      }
      if (subset) {
        std::printf("%s <= %s (baseline blocks %d extra cell(s))\n",
                    mats[a].protocol.c_str(), mats[b].protocol.c_str(),
                    extra);
      }
    }
  }
  return 0;
}

int RunSelfTest(const CheckOptions& opts) {
  int failures = 0;
  const std::vector<SelfTestResult> results = RunCorruptionSelfTests(opts);
  const std::vector<CorruptionSpec>& catalog = CorruptionCatalog();
  for (size_t i = 0; i < results.size(); ++i) {
    const SelfTestResult& r = results[i];
    const bool boundary_ok =
        r.caught_structurally == catalog[i].structurally_detectable;
    const bool ok = r.Caught() && boundary_ok;
    if (!ok) ++failures;
    std::printf("%-4s  %-22s %s%s\n", ok ? "OK" : "FAIL",
                r.corruption.c_str(),
                r.caught_structurally ? "[structural] " : "",
                r.caught_behaviorally ? "[behavioral]" : "");
    for (const std::string& e : r.evidence) {
      std::printf("      %s\n", e.c_str());
    }
    if (!r.Caught()) {
      std::printf("      corruption was NOT caught by any layer\n");
    }
  }
  std::printf("selftest: %zu corruptions, %d failed\n", results.size(),
              failures);
  return failures;
}

int Main(int argc, char** argv) {
  CheckOptions opts;
  bool selftest = false;
  bool print_measured = false;
  bool print_doc = false;
  bool print_dominance = false;
  std::vector<std::string_view> protocols;
  std::vector<IsolationLevel> levels;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--no-prune") {
      opts.prune = false;
    } else if (arg == "--print-measured") {
      print_measured = true;
    } else if (arg == "--print-doc-matrix") {
      print_doc = true;
    } else if (arg == "--print-dominance") {
      print_dominance = true;
    } else if (arg == "--max-steps") {
      const char* v = next();
      if (v != nullptr) opts.max_steps = std::strtoull(v, nullptr, 10);
    } else if (arg == "--protocol") {
      const char* v = next();
      for (std::string_view n : AllProtocolNames()) {
        if (v != nullptr && n == v) protocols.push_back(n);
      }
      if (protocols.empty()) {
        std::fprintf(stderr, "protoverify: unknown protocol '%s'\n",
                     v == nullptr ? "" : v);
        return 2;
      }
    } else if (arg == "--isolation") {
      const char* v = next();
      for (IsolationLevel l : kLevels) {
        if (v != nullptr && IsolationLevelName(l) == v) levels.push_back(l);
      }
      if (levels.empty()) {
        std::fprintf(stderr, "protoverify: unknown isolation level '%s'\n",
                     v == nullptr ? "" : v);
        return 2;
      }
    } else if (arg == "--help") {
      std::printf(
          "usage: protoverify [--protocol NAME] [--isolation LEVEL]\n"
          "                   [--no-prune] [--max-steps N] [--selftest]\n"
          "                   [--print-measured | --print-doc-matrix |\n"
          "                    --print-dominance]\n");
      return 0;
    } else {
      std::fprintf(stderr, "protoverify: unknown argument '%s'\n",
                   std::string(arg).c_str());
      return 2;
    }
  }

  if (protocols.empty()) {
    for (std::string_view n : AllProtocolNames()) protocols.push_back(n);
  }
  if (levels.empty()) {
    levels.assign(std::begin(kLevels), std::end(kLevels));
  }

  if (print_dominance) return PrintDominanceRelation();
  if (selftest) return RunSelfTest(opts) == 0 ? 0 : 1;

  int failures = RunMatrix(protocols, levels, opts, print_measured, print_doc);
  if (print_measured || print_doc) return 0;
  failures += RunDominance();
  if (failures != 0) {
    std::fprintf(stderr, "protoverify: %d check(s) failed\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace xtc::verify

int main(int argc, char** argv) { return xtc::verify::Main(argc, argv); }
