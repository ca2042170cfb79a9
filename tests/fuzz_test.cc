// End-to-end runs of the fuzz harness (tamix/fuzz.h): a representative
// slice of each injury's seed rotation, so the default ctest run checks
// the durability contract the way tools/fuzz does over many more seeds.
//
//   crash  seeds 1-3 rotate through crash.wal, crash.page and
//          crash.commit; seeds 8 and 16 also kill the recovery, and a
//          second, clean recovery must converge from its artifacts.
//   pair   seeds 0-4 rotate through crash.wal, crash.page, crash.commit,
//          crash.ship and crash.apply (the follower-side kill).
//   net    seeds 0-7 arm each of the eight chaos modes once.

#include <cstdint>
#include <string>
#include <tuple>

#include "gtest/gtest.h"
#include "tamix/fuzz.h"

namespace xtc {
namespace {

using FuzzCase = std::tuple<Injury, uint64_t>;

class FuzzSeedTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzSeedTest, DurableTruthMatchesObservedCommits) {
  const auto [injury, seed] = GetParam();
  auto outcome = RunFuzzSeed(injury, seed, FuzzRunConfig(injury, seed));
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  if (injury == Injury::kNet) {
    // The network injuries are probabilistic; what must hold is that
    // work got done through them.
    EXPECT_GT(outcome->commits, 0u) << outcome->detail;
  } else {
    // The kills are staggered only a few evaluations deep for these
    // seeds; if one misses, the rotation has drifted and the harness is
    // no longer testing recovery.
    EXPECT_TRUE(outcome->fired) << outcome->detail;
  }
}

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  return std::string(InjuryName(std::get<0>(info.param))) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Crash, FuzzSeedTest,
                         ::testing::Combine(::testing::Values(Injury::kCrash),
                                            ::testing::Values(1, 2, 3, 8, 16)),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(Pair, FuzzSeedTest,
                         ::testing::Combine(::testing::Values(Injury::kPair),
                                            ::testing::Values(0, 1, 2, 3, 4)),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(Net, FuzzSeedTest,
                         ::testing::Combine(::testing::Values(Injury::kNet),
                                            ::testing::Range<uint64_t>(0, 8)),
                         CaseName);

TEST(FuzzTest, CleanRunStillPassesThroughTheHarness) {
  // With the kill disarmed the crash injury degenerates to an ordinary
  // chaos run; RunCluster1's full invariant suite must still pass and
  // the outcome reports a miss.
  RunConfig run = FuzzRunConfig(Injury::kCrash, 5);
  run.crash_enabled = false;
  run.faults.points.clear();
  auto outcome = RunFuzzSeed(Injury::kCrash, 5, run);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_FALSE(outcome->fired);
  EXPECT_FALSE(outcome->primary_crashed);
}

TEST(FuzzTest, ContractNamesLostAndPhantomCommits) {
  const RunConfig run = FuzzRunConfig(Injury::kCrash, 1);
  const std::vector<CommittedTx> observed = {{1, TxType::kQueryBook, 11},
                                             {2, TxType::kChapter, 22}};
  auto durable = [](std::vector<CommittedTx> txs) {
    std::vector<RecoveredCommit> out;
    for (const CommittedTx& c : txs) {
      out.push_back({c.seq, c.seq, EncodeCommitPayload(c.type, c.body_seed)});
    }
    return out;
  };
  EXPECT_TRUE(
      CheckFuzzContract(run, observed, durable(observed), "log", nullptr).ok());

  Status lost = CheckFuzzContract(run, observed, durable({observed[0]}),
                                  "log", nullptr);
  EXPECT_NE(lost.message().find("1 worker-observed commit(s) missing from log "
                                "(first seq 2)"),
            std::string::npos)
      << lost.message();

  // Same seq, different body: one lost and one phantom commit.
  Status swapped = CheckFuzzContract(
      run, observed,
      durable({observed[0], {2, TxType::kChapter, 23}}), "log", nullptr);
  EXPECT_NE(swapped.message().find("that no worker observed (first seq 2)"),
            std::string::npos)
      << swapped.message();

  Status twice = CheckFuzzContract(
      run, observed, durable({observed[0], observed[1], observed[1]}), "log",
      nullptr);
  EXPECT_NE(twice.message().find("holds commit seq 2 twice"),
            std::string::npos)
      << twice.message();
}

}  // namespace
}  // namespace xtc
