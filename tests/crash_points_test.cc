// Anti-drift check for the hard-kill catalogue: AllCrashPoints() must
// be exactly the "crash."-prefixed subset of AllFaultPoints(), and the
// paired fuzz injury's seed rotation must cover each one. That every
// kill point is documented follows from fault_points_test.cc, which
// holds AllFaultPoints() and the docs/robustness.md table in lockstep.

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tamix/fuzz.h"
#include "util/fault_injector.h"

namespace xtc {
namespace {

TEST(CrashPointsTest, CrashPointsAreTheCrashPrefixedFaultPoints) {
  std::set<std::string> expected;
  for (std::string_view p : AllFaultPoints()) {
    if (std::string_view(p).substr(0, 6) == "crash.") expected.emplace(p);
  }
  std::set<std::string> actual;
  for (std::string_view p : AllCrashPoints()) actual.emplace(p);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(actual.size(), 5u)
      << "update the paired-harness rotation, docs/robustness.md and this "
         "count together when adding a kill site";
}

TEST(CrashPointsTest, PairRotationCoversEveryCrashPoint) {
  // Seeds 0..N-1 must between them arm every primary-side kill point
  // exactly once and select the follower-side kill for the rest.
  const std::vector<std::string_view> points = AllCrashPoints();
  std::set<std::string> armed;
  size_t follower_kills = 0;
  for (uint64_t seed = 0; seed < points.size(); ++seed) {
    const RunConfig config = FuzzRunConfig(Injury::kPair, seed);
    if (config.faults.points.empty()) {
      // The follower-kill seed: crash.apply arms inside the follower.
      ++follower_kills;
      continue;
    }
    ASSERT_EQ(config.faults.points.size(), 1u) << "seed " << seed;
    armed.insert(config.faults.points[0].first);
  }
  EXPECT_EQ(follower_kills, 1u);
  std::set<std::string> primary_points;
  for (std::string_view p : points) {
    if (p != fault_points::kCrashApply) primary_points.emplace(p);
  }
  EXPECT_EQ(armed, primary_points);
}

}  // namespace
}  // namespace xtc
