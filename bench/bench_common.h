// Shared helpers for the figure-reproduction benchmarks.
//
// Environment knobs:
//   XTC_BENCH_SECONDS  per-run wall time in seconds (default 1.2)
//   XTC_BENCH_FULL=1   paper-sized bib document (2000 books) and 6 s runs
//   XTC_BENCH_SEED     workload seed (default 7)
//   XTC_BENCH_BOOKS, XTC_BENCH_TOPICS  document size overrides
//
// The paper's runs lasted 5 minutes; we scale all timing parameters
// uniformly (DESIGN.md §2) and report committed transactions normalized
// to a 5-minute run so the magnitudes are comparable across machines.

#ifndef XTC_BENCH_BENCH_COMMON_H_
#define XTC_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "tamix/coordinator.h"
#include "tamix/metrics.h"

namespace xtc {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atof(v);
}

inline bool FullSize() {
  const char* v = std::getenv("XTC_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

inline double RunSeconds() {
  return EnvDouble("XTC_BENCH_SECONDS", FullSize() ? 6.0 : 1.2);
}

/// Baseline CLUSTER1 configuration (paper §4.3) with scaled timing.
/// XTC_BENCH_BOOKS / XTC_BENCH_TOPICS override the document size.
inline RunConfig Cluster1Config() {
  RunConfig config;
  config.bib = FullSize() ? BibConfig::Paper() : BibConfig::Bench();
  config.bib.num_books = static_cast<size_t>(EnvDouble(
      "XTC_BENCH_BOOKS", static_cast<double>(config.bib.num_books)));
  config.bib.num_topics = static_cast<size_t>(EnvDouble(
      "XTC_BENCH_TOPICS", static_cast<double>(config.bib.num_topics)));
  config.seed = static_cast<uint64_t>(EnvDouble("XTC_BENCH_SEED", 7));
  // All paper timings scale with run duration: 5 min -> RunSeconds().
  config.time_scale = RunSeconds() / 300.0;
  return config;
}

/// The flags a micro bench with a committed record takes, in any order:
/// --smoke (a short run whose gates exit 1) and --json (the record as
/// ToJson instead of ToText).
struct BenchFlags {
  bool smoke = false;
  bool json = false;
};

/// Parses BenchFlags; any other argument prints usage and exits 2
/// before the bench does any work.
inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json]\n", argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

/// Prints a bench's record through one of the engine's two exporters.
inline void PrintMetrics(const MetricSet& metrics, const BenchFlags& flags) {
  std::fputs((flags.json ? ToJson(metrics) : ToText(metrics)).c_str(),
             stdout);
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("# %s\n", figure);
  std::printf("# %s\n", what);
  std::printf("# run=%.1fs/config (paper: 300s), document: %s bib, %s\n",
              RunSeconds(), FullSize() ? "paper-sized" : "bench-sized",
              "throughput normalized to committed tx per 5 min");
}

/// Scales `count` events of one run to the paper's 5-minute run, by the
/// factor RunStats::throughput_per_5min applies to commits.
inline double Per5Min(const RunStats& stats, uint64_t count) {
  if (stats.run_duration_ms <= 0) return 0.0;
  return static_cast<double>(count) * 300000.0 /
         static_cast<double>(stats.run_duration_ms);
}

/// Prints `title` and a table with one line per `rows` label and one
/// column per `columns` label; cell (r, c) is value(r, c), rounded to a
/// whole number. Every figure and ablation table goes through here.
inline void PrintGrid(const std::string& title, const std::string& corner,
                      const std::vector<std::string>& rows,
                      const std::vector<std::string>& columns,
                      const std::function<double(size_t, size_t)>& value) {
  size_t row_width = corner.size();
  for (const std::string& r : rows) row_width = std::max(row_width, r.size());
  const int label = static_cast<int>(row_width);
  auto width = [&](size_t c) {
    return static_cast<int>(std::max<size_t>(columns[c].size(), 9));
  };
  std::printf("\n## %s\n%-*s", title.c_str(), label, corner.c_str());
  for (size_t c = 0; c < columns.size(); ++c) {
    std::printf(" %*s", width(c), columns[c].c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    std::printf("%-*s", label, rows[r].c_str());
    for (size_t c = 0; c < columns.size(); ++c) {
      std::printf(" %*.0f", width(c), value(r, c));
    }
    std::printf("\n");
  }
}

/// One CLUSTER1 run; prints an error and exits on failure.
inline RunStats MustRun(const RunConfig& config) {
  auto stats = RunCluster1(config);
  if (!stats.ok()) {
    std::fprintf(stderr, "benchmark run failed (%s, %s, depth %d): %s\n",
                 config.protocol.c_str(),
                 std::string(IsolationLevelName(config.isolation)).c_str(),
                 config.lock_depth,
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  return *stats;
}

}  // namespace bench
}  // namespace xtc

#endif  // XTC_BENCH_BENCH_COMMON_H_
