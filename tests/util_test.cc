// Unit tests for the utility layer: Status/StatusOr, RNG, clock helpers,
// relaxed stats, CRC-32.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/crc32.h"
#include "util/relaxed_stats.h"
#include "util/rng.h"
#include "util/status.h"

namespace xtc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_FALSE(st.IsRetryable());
}

TEST(StatusTest, FactoryMethodsCarryCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::NotFound("x").message(), "x");
  EXPECT_EQ(Status::InvalidArgument("bad").ToString(),
            "INVALID_ARGUMENT: bad");
  EXPECT_EQ(Status::Internal("boom").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotSupported("no").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted("full").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::Deadlock().IsRetryable());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::LockTimeout().IsRetryable());
  EXPECT_TRUE(Status::TxAborted().IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
}

TEST(StatusOrTest, ValueAndStatusPaths) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad(Status::NotFound("gone"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(StatusOrTest, MacrosPropagate) {
  auto inner = []() -> StatusOr<int> { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    XTC_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
  auto ok_inner = []() -> StatusOr<int> { return 7; };
  auto ok_outer = [&]() -> StatusOr<int> {
    XTC_ASSIGN_OR_RETURN(int v, ok_inner());
    return v + 1;
  };
  EXPECT_EQ(*ok_outer(), 8);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  // Different seeds diverge immediately (overwhelmingly likely).
  Rng a2(123);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) {
    if (a2.Next() != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(31337);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(ClockTest, ConversionHelpers) {
  EXPECT_EQ(ToMillis(Millis(1500)), 1500);
  EXPECT_EQ(ToMicros(Micros(250)), 250);
  EXPECT_EQ(ToMillis(Micros(2500)), 2);
  TimePoint a = Now();
  SleepFor(Millis(5));
  EXPECT_GE(ToMillis(Now() - a), 4);
}

struct ThreeCounters {
  uint64_t events = 0;
  uint64_t bytes = 0;
  uint64_t peak = 0;

  template <typename S, typename F>
  static void ForEachField(S& s, F&& f) {
    f("events", "count", s.events);
    f("bytes", "B", s.bytes);
    f("peak", "count", s.peak);
  }
};

TEST(RelaxedStatsTest, ConcurrentAddAndMaxAreExact) {
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  RelaxedStats<ThreeCounters> stats;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ThreeCounters now = stats.Load();
      EXPECT_GE(now.events, last);  // each field is monotonic on its own
      EXPECT_LE(now.events, kThreads * kPerThread);
      last = now.events;
    }
  });
  std::vector<std::thread> writers;
  for (uint64_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&stats, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        stats.Add(&ThreeCounters::events);
        stats.Add(&ThreeCounters::bytes, 3);
        stats.Max(&ThreeCounters::peak, t * kPerThread + i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  stats.Add(ThreeCounters{1, 2, 3});  // field by field; peak is a sum here
  std::vector<std::string> names;
  std::vector<uint64_t> values;
  const ThreeCounters total = stats.Load();
  ThreeCounters::ForEachField(
      total, [&](const char* name, const char*, uint64_t v) {
        names.push_back(name);
        values.push_back(v);
      });
  EXPECT_EQ(names, (std::vector<std::string>{"events", "bytes", "peak"}));
  EXPECT_EQ(values, (std::vector<uint64_t>{kThreads * kPerThread + 1,
                                           3 * kThreads * kPerThread + 2,
                                           kThreads * kPerThread - 1 + 3}));

  stats.Reset();
  const ThreeCounters zero = stats.Load();
  ThreeCounters::ForEachField(
      zero, [](const char* name, const char*, uint64_t v) {
        EXPECT_EQ(v, 0u) << name;
      });
}

// Bit-at-a-time CRC-32 over the same reflected polynomial: the
// definition the sliced kernel must reproduce byte for byte.
uint32_t ReferenceCrc32Update(uint32_t crc, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Next());
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  Rng rng(2005);
  const std::vector<uint8_t> buffer = RandomBytes(&rng, 9000 + 8);
  std::vector<size_t> lengths = {0, 1, 7, 8, 9, 15, 16, 17, 100, 4093, 4096,
                                 9000};
  for (int i = 0; i < 64; ++i) lengths.push_back(rng.Uniform(9001));
  for (size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* p = buffer.data() + offset;
      EXPECT_EQ(Crc32Update(Crc32Init(), p, n),
                ReferenceCrc32Update(Crc32Init(), p, n))
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(Crc32Test, ChainedUpdatesEqualOneCall) {
  Rng rng(1992);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t n = rng.Uniform(9001);
    const std::vector<uint8_t> bytes = RandomBytes(&rng, n);
    std::vector<size_t> cuts = {0, n};
    for (uint64_t k = rng.Uniform(6); k > 0; --k) {
      cuts.push_back(rng.Uniform(n + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    uint32_t chained = Crc32Init();
    for (size_t i = 1; i < cuts.size(); ++i) {
      chained = Crc32Update(chained, bytes.data() + cuts[i - 1],
                            cuts[i] - cuts[i - 1]);
    }
    EXPECT_EQ(Crc32Finish(chained), Crc32(bytes.data(), n))
        << "trial " << trial << " length " << n;
    EXPECT_EQ(chained, ReferenceCrc32Update(Crc32Init(), bytes.data(), n))
        << "trial " << trial << " length " << n;
  }
}

}  // namespace
}  // namespace xtc
