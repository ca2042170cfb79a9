// Anti-drift check for the hard-kill catalogue: AllCrashPoints() must
// be exactly the "crash."-prefixed subset of AllFaultPoints(), every
// kill point must be documented in docs/robustness.md, and the paired
// fuzz injury's seed rotation must cover each one. Adding a kill site to
// the code without wiring it into the docs and the rotation (or vice
// versa) fails here.

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tamix/fuzz.h"
#include "util/fault_injector.h"

namespace xtc {
namespace {

/// Extracts the backticked point name from a markdown table row of the
/// "## Fault points" section, "" if the line is not such a row.
std::string TableRowPoint(const std::string& line) {
  if (line.rfind("| `", 0) != 0) return "";
  const size_t start = 3;
  const size_t end = line.find('`', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

std::set<std::string> DocumentedPoints() {
  const std::string path = std::string(XTC_SOURCE_DIR) + "/docs/robustness.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> points;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Fault points";
      continue;
    }
    if (!in_section) continue;
    const std::string point = TableRowPoint(line);
    if (!point.empty()) points.insert(point);
  }
  return points;
}

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

TEST(CrashPointsTest, EveryCrashPointIsDocumented) {
  const std::set<std::string> in_docs = DocumentedPoints();
  for (std::string_view p : AllCrashPoints()) {
    EXPECT_TRUE(in_docs.count(std::string(p)) != 0)
        << "kill point '" << p
        << "' is missing from the docs/robustness.md fault-point table";
  }
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
