// Anti-drift check: the fault-point catalogue exists in exactly two
// places — AllFaultPoints() in code and the table in
// docs/robustness.md — and they must agree. A point added to the code
// without a documented contract (or documented but never wired up) is
// exactly the kind of rot that makes a chaos harness lie. The hard-kill
// subset is held in lockstep by crash_points_test.cc.

#include <fstream>
#include <set>
#include <string>

#include "gtest/gtest.h"
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

TEST(FaultPointsTest, CodeAndDocsEnumerateTheSamePoints) {
  std::set<std::string> in_code;
  for (std::string_view p : AllFaultPoints()) in_code.emplace(p);
  ASSERT_FALSE(in_code.empty());
  const std::set<std::string> in_docs = DocumentedPoints();
  for (const std::string& p : in_code) {
    EXPECT_TRUE(in_docs.count(p) != 0)
        << "fault point '" << p
        << "' is in AllFaultPoints() but missing from the "
           "docs/robustness.md table";
  }
  for (const std::string& p : in_docs) {
    EXPECT_TRUE(in_code.count(p) != 0)
        << "fault point '" << p
        << "' is documented in docs/robustness.md but missing from "
           "AllFaultPoints()";
  }
}

TEST(FaultPointsTest, AllNamedConstantsAreEnumerated) {
  std::set<std::string> in_code;
  for (std::string_view p : AllFaultPoints()) in_code.emplace(p);
  for (std::string_view p :
       {fault_points::kLockTimeout, fault_points::kLockDeadlock,
        fault_points::kIoRead, fault_points::kIoWrite,
        fault_points::kBufferPin, fault_points::kNodeIud,
        fault_points::kTxUndo, fault_points::kWalFlush,
        fault_points::kCrashWal, fault_points::kCrashPage,
        fault_points::kCrashCommit, fault_points::kCrashShip,
        fault_points::kCrashApply, fault_points::kNetSend,
        fault_points::kNetRecv, fault_points::kNetDelay,
        fault_points::kNetClose}) {
    EXPECT_TRUE(in_code.count(std::string(p)) != 0)
        << "constant '" << p << "' not returned by AllFaultPoints()";
  }
}

TEST(FaultPointsTest, ArmingEveryEnumeratedPointWorks) {
  FaultInjector injector(1);
  FaultPointConfig config;
  config.probability = 1.0;
  for (std::string_view p : AllFaultPoints()) injector.Arm(p, config);
  // Non-crash points must fire through MaybeFail once armed.
  EXPECT_FALSE(injector.MaybeFail(fault_points::kIoRead).ok());
}

}  // namespace
}  // namespace xtc
