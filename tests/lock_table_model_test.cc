// Model-based randomized testing of the lock table: a reference model of
// granted modes is maintained alongside; after every step the invariants
// must hold — pairwise compatibility of granted locks, single lock per
// (tx, resource), conversion monotonicity, exact release semantics, and
// each transaction's lock set matching the holds the model lists for it.

#include <gtest/gtest.h>

#include <map>

#include "lock/lock_table.h"
#include "util/rng.h"

namespace xtc {
namespace {

class LockTableModelTest : public ::testing::Test {
 protected:
  LockTableModelTest() {
    ir_ = modes_.AddMode("IR");
    ix_ = modes_.AddMode("IX");
    s_ = modes_.AddMode("S");
    six_ = 0;
    x_ = modes_.AddMode("X");
    modes_.SetCompatRow(ir_, "+ + + -");
    modes_.SetCompatRow(ix_, "+ + - -");
    modes_.SetCompatRow(s_, "+ - + -");
    modes_.SetCompatRow(x_, "- - - -");
    six_ = modes_.AddCombinedMode("SIX", s_, ix_);
    EXPECT_TRUE(modes_.DeriveMissingConversions().ok());
    LockTableOptions options;
    options.wait_timeout = Millis(1);  // single-threaded: never wait
    options.shards = 4;                // force cross-shard coverage
    table_ = std::make_unique<LockTable>(&modes_, options);
  }

  ModeTable modes_;
  ModeId ir_, ix_, s_, six_, x_;
  std::unique_ptr<LockTable> table_;
};

TEST_F(LockTableModelTest, RandomSingleThreadedOpsMatchModel) {
  // model[resource][tx] = effective mode
  std::map<std::string, std::map<uint64_t, ModeId>> model;
  Rng rng(424242);
  const ModeId all_modes[] = {ir_, ix_, s_, six_, x_};

  auto compatible_with_holders = [&](const std::string& res, uint64_t tx,
                                     ModeId target) {
    for (const auto& [other, held] : model[res]) {
      if (other == tx) continue;
      if (!modes_.Compatible(held, target)) return false;
    }
    return true;
  };

  for (int step = 0; step < 30000; ++step) {
    const uint64_t tx = 1 + rng.Uniform(6);
    const std::string res = "r" + std::to_string(rng.Uniform(8));
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 7) {
      const ModeId mode = all_modes[rng.Uniform(5)];
      const ModeId held = model[res].count(tx) ? model[res][tx] : kNoMode;
      const ModeId target =
          held == kNoMode ? mode : modes_.Convert(held, mode).result;
      const bool expect_grant = compatible_with_holders(res, tx, target);
      auto out = table_->Lock(tx, res, mode, LockDuration::kCommit);
      ASSERT_EQ(out.status.ok(), expect_grant)
          << "step " << step << " tx " << tx << " " << res << " mode "
          << modes_.Name(mode) << " (held " << modes_.Name(held) << ")";
      if (expect_grant) {
        model[res][tx] = target;
        ASSERT_EQ(out.resulting_mode, target);
        ASSERT_EQ(table_->HeldMode(tx, res), target);
        // Conversion monotonicity.
        ASSERT_TRUE(modes_.AtLeastAsStrong(target, mode));
        if (held != kNoMode) {
          ASSERT_TRUE(modes_.AtLeastAsStrong(target, held));
        }
      } else {
        // A denied request must not change the held mode.
        ASSERT_EQ(table_->HeldMode(tx, res), held);
        if (held == kNoMode) model[res].erase(tx);
      }
    } else if (op < 9) {
      table_->ReleaseAll(tx);
      for (auto& [r, holders] : model) holders.erase(tx);
      ASSERT_EQ(table_->LocksHeldBy(tx), 0u);
    } else {
      // Invariant sweep: every pair of granted locks on every resource
      // must be compatible (in both request directions of the matrix).
      for (const auto& [r, holders] : model) {
        for (const auto& [t1, m1] : holders) {
          ASSERT_EQ(table_->HeldMode(t1, r), m1) << r;
          for (const auto& [t2, m2] : holders) {
            if (t1 == t2) continue;
            ASSERT_TRUE(modes_.Compatible(m1, m2))
                << r << ": " << modes_.Name(m1) << " vs " << modes_.Name(m2);
          }
        }
      }
    }
    for (uint64_t t = 1; t <= 6; ++t) {
      size_t holds = 0;
      for (const auto& [r, holders] : model) holds += holders.count(t);
      ASSERT_EQ(table_->LocksHeldBy(t), holds)
          << "step " << step << " tx " << t;
    }
  }
  // Drain and verify emptiness.
  for (uint64_t tx = 1; tx <= 6; ++tx) table_->ReleaseAll(tx);
  EXPECT_EQ(table_->NumLockedResources(), 0u);
}

TEST_F(LockTableModelTest, ShortLocksModeledSeparately) {
  // Randomized short/long mixing on one resource, one transaction:
  // after EndOperation the effective mode must equal the long component.
  Rng rng(7);
  const ModeId all_modes[] = {ir_, ix_, s_, six_, x_};
  for (int round = 0; round < 300; ++round) {
    ModeId long_mode = kNoMode;
    const int ops = 1 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < ops; ++i) {
      const ModeId mode = all_modes[rng.Uniform(5)];
      const bool is_long = rng.Chance(0.5);
      auto out = table_->Lock(1, "res", mode,
                              is_long ? LockDuration::kCommit
                                      : LockDuration::kOperation);
      ASSERT_TRUE(out.status.ok());
      if (is_long) {
        long_mode = long_mode == kNoMode
                        ? mode
                        : modes_.Convert(long_mode, mode).result;
      }
    }
    ASSERT_EQ(table_->LocksHeldBy(1), 1u);
    table_->EndOperation(1);
    ASSERT_EQ(table_->HeldMode(1, "res"), long_mode) << "round " << round;
    ASSERT_EQ(table_->LocksHeldBy(1), long_mode == kNoMode ? 0u : 1u);
    table_->ReleaseAll(1);
    ASSERT_EQ(table_->HeldMode(1, "res"), kNoMode);
    ASSERT_EQ(table_->LocksHeldBy(1), 0u);
  }
}

}  // namespace
}  // namespace xtc
