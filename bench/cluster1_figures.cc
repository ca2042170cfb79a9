// CLUSTER1 figures of the paper's evaluation (Figs. 7-10) and the
// edge-lock ablation, printed as views of one sweep. Each distinct
// configuration (cell) runs once: Fig. 10 is Fig. 9's runs split by
// transaction type, Fig. 7's REPEATABLE column is Fig. 9's taDOM3+
// column, and the ablation's with-edges row is Fig. 9's taDOM3+ depth-6
// cell.
//
//   Fig. 7    taDOM3+, isolation none/uncommitted/committed/repeatable,
//             throughput and deadlocks vs. lock depth 0..7
//   Fig. 8    Node2PL/NO2PL/OO2PL (no lock depth), repeatable: committed
//             in total and per transaction type, deadlocks
//   Fig. 9    the eight lock-depth-capable protocols, repeatable, vs.
//             lock depth 0..7, plus group averages over depths 2..7
//   Fig. 10   Fig. 9's runs, committed per transaction type, (a)-(d)
//   ablation  taDOM3+ at depth 6, repeatable, with and without edge locks
//
// Knobs are the XTC_BENCH_* variables of bench_common.h. Exits 1 if a
// run fails.

#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "protocols/tadom_protocols.h"

using namespace xtc;
using namespace xtc::bench;

namespace {

/// One CLUSTER1 configuration; the defaults are RunConfig's.
struct Cell {
  std::string protocol;
  IsolationLevel isolation = IsolationLevel::kRepeatable;
  int depth = RunConfig().lock_depth;
  bool edge_locks = true;

  auto operator<=>(const Cell&) const = default;
};

RunConfig ConfigFor(const Cell& cell) {
  RunConfig config = Cluster1Config();
  config.protocol = cell.protocol;
  config.isolation = cell.isolation;
  config.lock_depth = cell.depth;
  if (!cell.edge_locks) {
    // Only the ablation drops edge locks, and it does so for taDOM3+.
    config.protocol_factory = [](LockTableOptions options) {
      return std::make_unique<TaDomProtocol>(TaDomVariant::kTaDom3Plus,
                                             options, /*edge_locks=*/false);
    };
  }
  return config;
}

constexpr int kMaxDepth = 7;

const std::vector<std::string> kDepthRows = {"0", "1", "2", "3",
                                             "4", "5", "6", "7"};

const IsolationLevel kFig7Levels[] = {
    IsolationLevel::kNone, IsolationLevel::kUncommitted,
    IsolationLevel::kCommitted, IsolationLevel::kRepeatable};
const std::vector<std::string> kFig7Columns = {"NONE", "UNCOMMITTED",
                                               "COMMITTED", "REPEATABLE"};

const std::vector<std::string> kTwoPlGroup = {"Node2PL", "NO2PL", "OO2PL"};

/// Fig. 9's protocols in its group order: *-2PL(a), MGL*, taDOM*.
const std::vector<std::string> kDepthProtocols = {
    "Node2PLa", "IRX",     "IRIX",   "URIX",
    "taDOM2",   "taDOM2+", "taDOM3", "taDOM3+"};

/// CLUSTER1's transaction types, in the order of Fig. 10's panels.
const TxType kCluster1Types[] = {TxType::kQueryBook, TxType::kChapter,
                                 TxType::kLendAndReturn,
                                 TxType::kRenameTopic};
const char* const kFig10Panels[] = {"(a)", "(b)", "(c)", "(d)"};

constexpr int kEdgeAblationDepth = 6;

/// Isolation none takes no locks, so lock depth cannot matter: every
/// depth shares the depth-0 run.
Cell Fig7Cell(size_t level, int depth) {
  const IsolationLevel isolation = kFig7Levels[level];
  return {"taDOM3+", isolation,
          isolation == IsolationLevel::kNone ? 0 : depth};
}
Cell Fig8Cell(size_t protocol) { return {kTwoPlGroup[protocol]}; }
Cell Fig9Cell(size_t protocol, int depth) {
  return {kDepthProtocols[protocol], IsolationLevel::kRepeatable, depth};
}
Cell EdgeCell(bool edge_locks) {
  return {"taDOM3+", IsolationLevel::kRepeatable, kEdgeAblationDepth,
          edge_locks};
}

double CommittedPer5Min(const RunStats& stats, TxType type) {
  return Per5Min(stats, stats.per_type[static_cast<int>(type)].committed);
}
double DeadlocksPer5Min(const RunStats& stats) {
  return Per5Min(stats, stats.total_deadlocks());
}

}  // namespace

int main() {
  // The cell list: every table below is a view of these runs.
  std::map<Cell, RunStats> runs;
  for (size_t l = 0; l < std::size(kFig7Levels); ++l) {
    for (int d = 0; d <= kMaxDepth; ++d) runs[Fig7Cell(l, d)];
  }
  for (size_t p = 0; p < kTwoPlGroup.size(); ++p) runs[Fig8Cell(p)];
  for (size_t p = 0; p < kDepthProtocols.size(); ++p) {
    for (int d = 0; d <= kMaxDepth; ++d) runs[Fig9Cell(p, d)];
  }
  for (bool edges : {true, false}) runs[EdgeCell(edges)];
  for (auto& [cell, stats] : runs) stats = MustRun(ConfigFor(cell));
  auto at = [&](const Cell& cell) -> const RunStats& { return runs.at(cell); };

  PrintHeader("Figures 7-10 and the edge-lock ablation",
              "CLUSTER1; every table is a view of one sweep");
  std::printf("# %zu distinct runs\n", runs.size());

  // Figure 7. In the depth tables, row r is lock depth r.
  PrintGrid("Fig. 7: taDOM3+ throughput (committed tx / 5 min) vs lock depth",
            "depth", kDepthRows, kFig7Columns, [&](size_t r, size_t c) {
              return at(Fig7Cell(c, static_cast<int>(r))).throughput_per_5min();
            });
  PrintGrid("Fig. 7: taDOM3+ deadlocks (/ 5 min) vs lock depth", "depth",
            kDepthRows, kFig7Columns, [&](size_t r, size_t c) {
              return DeadlocksPer5Min(at(Fig7Cell(c, static_cast<int>(r))));
            });

  // Figure 8.
  std::vector<std::string> fig8_columns = {"total"};
  for (TxType t : kCluster1Types) fig8_columns.emplace_back(TxTypeName(t));
  fig8_columns.emplace_back("deadlocks");
  PrintGrid("Fig. 8: the *-2PL group, repeatable (committed tx / 5 min)",
            "protocol", kTwoPlGroup, fig8_columns, [&](size_t r, size_t c) {
              const RunStats& s = at(Fig8Cell(r));
              if (c == 0) return s.throughput_per_5min();
              if (c <= std::size(kCluster1Types)) {
                return CommittedPer5Min(s, kCluster1Types[c - 1]);
              }
              return DeadlocksPer5Min(s);
            });
  std::printf(
      "# expected shape (paper): throughput OO2PL > NO2PL > Node2PL;\n"
      "# OO2PL provokes the most deadlock aborts yet still wins on "
      "throughput.\n");

  // Figure 9.
  PrintGrid("Fig. 9: throughput (committed tx / 5 min) vs lock depth, "
            "repeatable",
            "depth", kDepthRows, kDepthProtocols, [&](size_t r, size_t c) {
              return at(Fig9Cell(c, static_cast<int>(r))).throughput_per_5min();
            });
  PrintGrid("Fig. 9: deadlocks (/ 5 min) vs lock depth, repeatable", "depth",
            kDepthRows, kDepthProtocols, [&](size_t r, size_t c) {
              return DeadlocksPer5Min(at(Fig9Cell(c, static_cast<int>(r))));
            });
  // Group averages over the fine-grained depths (>= 2), as the paper
  // summarizes: taDOM* ~ 2x Node2PLa, MGL* ~ 1.5x Node2PLa. Each group
  // is a range [first, last] of kDepthProtocols.
  const size_t groups[][2] = {{0, 0}, {1, 3}, {4, 7}};
  auto group_avg = [&](size_t g) {
    double sum = 0;
    int n = 0;
    for (size_t p = groups[g][0]; p <= groups[g][1]; ++p) {
      for (int d = 2; d <= kMaxDepth; ++d) {
        sum += at(Fig9Cell(p, d)).throughput_per_5min();
        ++n;
      }
    }
    return sum / n;
  };
  PrintGrid("Fig. 9: group averages over depths 2..7", "group",
            {"*-2PL(a)", "MGL*", "taDOM*"},
            {"committed tx / 5 min", "% of *-2PL(a)"},
            [&](size_t r, size_t c) {
              return c == 0 ? group_avg(r) : 100 * group_avg(r) / group_avg(0);
            });
  std::printf(
      "# expected shape (paper): MGL* ~150 %% and taDOM* ~200 %% of the "
      "optimized *-2PL\n");

  // Figure 10.
  for (size_t f = 0; f < std::size(kCluster1Types); ++f) {
    PrintGrid("Fig. 10 " + std::string(kFig10Panels[f]) + " " +
                  std::string(TxTypeName(kCluster1Types[f])) +
                  ": committed tx / 5 min vs lock depth",
              "depth", kDepthRows, kDepthProtocols, [&](size_t r, size_t c) {
                return CommittedPer5Min(at(Fig9Cell(c, static_cast<int>(r))),
                                        kCluster1Types[f]);
              });
  }
  std::printf(
      "# expected shape (paper): (a) readers dominate at depth 0-1;\n"
      "# (b) taDOM2/taDOM3/URIX sag at depth > 4 (conversion side "
      "effects), the '+' variants do not;\n"
      "# (d) taDOM* highest (~2-3x MGL*), Node2PLa near zero (rename "
      "needs very large granules).\n");

  // Edge-lock ablation: the paper's conclusion (§6) that "adequate edge
  // locks and node locks ... are mandatory" — edge locks make navigation
  // repeatable (tests/edge_lock_test.cc); this table shows their cost.
  PrintGrid("Ablation: taDOM3+ at lock depth 6 with vs without edge locks",
            "variant", {"with edge locks", "without edge locks"},
            {"committed tx / 5 min", "deadlocks / 5 min", "lock requests",
             "waits"},
            [&](size_t r, size_t c) {
              const RunStats& s = at(EdgeCell(r == 0));
              switch (c) {
                case 0:
                  return s.throughput_per_5min();
                case 1:
                  return DeadlocksPer5Min(s);
                case 2:
                  return static_cast<double>(s.lock_stats.requests);
                default:
                  return static_cast<double>(s.lock_stats.waits);
              }
            });
  std::printf(
      "# edge locks cost extra lock requests but little throughput; in\n"
      "# exchange they make navigation repeatable (phantom-free sibling\n"
      "# chains).\n");
  return 0;
}
