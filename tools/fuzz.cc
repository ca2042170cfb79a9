// fuzz: seeded injury sweeps against the durability contract
// (docs/robustness.md, harness: src/tamix/fuzz.h).
//
// Every seed runs all three injuries — a hard kill with restart
// recovery (crash), a primary/follower pair with a kill on either side
// and a promotion (pair), and a CLUSTER1 run over loopback under
// network chaos (net) — and passes only if each one's durable truth
// holds exactly the worker-observed commits and replays to the
// surviving document.
//
// Usage:
//   fuzz [--seeds N] [--start S] [--smoke] [-v]
//
// --seeds N   seeds to run (default 32)
// --start S   first seed (default 1; seeds are S..S+N-1)
// --smoke     CI preset: halve the per-run duration
// -v          print one line per seed instead of only misses and failures
//
// Exits 0 iff every seed passes every injury. A seed whose injury never
// happened still passes (the run ended cleanly and the full invariant
// suite ran), but is reported as a miss: a sweep of misses tests nothing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "tamix/fuzz.h"

namespace xtc {
namespace {

struct Tally {
  int seeds = 0;
  int misses = 0;
  int primary_crashes = 0;
  int recovery_crashes = 0;
  int follower_kills = 0;
  int failures = 0;
  unsigned long long commits = 0;
  unsigned long long injuries = 0;
};

int Sweep(int seeds, int start, bool smoke, bool verbose) {
  Tally tallies[std::size(kAllInjuries)];
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = static_cast<uint64_t>(start + i);
    for (Injury injury : kAllInjuries) {
      Tally& t = tallies[static_cast<int>(injury)];
      ++t.seeds;
      RunConfig run = FuzzRunConfig(injury, seed);
      if (smoke) run.run_duration = run.run_duration / 2;
      auto outcome = RunFuzzSeed(injury, seed, run);
      if (!outcome.ok()) {
        std::fprintf(stderr, "FAIL  %s\n", outcome.status().message().c_str());
        ++t.failures;
        continue;
      }
      t.misses += !outcome->fired;
      t.primary_crashes += outcome->primary_crashed;
      t.recovery_crashes += outcome->recovery_crashed;
      t.follower_kills += outcome->follower_killed;
      t.commits += outcome->commits;
      t.injuries += outcome->injuries;
      if (verbose || !outcome->fired) {
        std::printf("%s  %-5s seed %3llu  %s\n",
                    outcome->fired ? "ok  " : "miss", InjuryName(injury),
                    static_cast<unsigned long long>(seed),
                    outcome->detail.c_str());
      }
    }
  }
  int failures = 0;
  for (Injury injury : kAllInjuries) {
    const Tally& t = tallies[static_cast<int>(injury)];
    std::printf(
        "fuzz %-5s %d seed(s), %d miss(es), %d primary crash(es) "
        "(%d during recovery), %d follower kill(s), %llu injuries, "
        "%llu commits verified, %d failure(s)\n",
        InjuryName(injury), t.seeds, t.misses, t.primary_crashes,
        t.recovery_crashes, t.follower_kills, t.injuries, t.commits,
        t.failures);
    failures += t.failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xtc

int main(int argc, char** argv) {
  int seeds = 32;
  int start = 1;
  bool smoke = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      start = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz [--seeds N] [--start S] [--smoke] [-v]\n");
      return 2;
    }
  }
  if (seeds <= 0) return 0;
  return xtc::Sweep(seeds, start, smoke, verbose);
}
