#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/small_vec.h"

namespace ditto {
namespace {

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  constexpr int kTrials = 64;
  for (int bit = 0; bit < kTrials; ++bit) {
    const uint64_t a = Mix64(0x1234567890abcdefULL);
    const uint64_t b = Mix64(0x1234567890abcdefULL ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / kTrials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, HashBytesDistinguishesKeys) {
  std::set<uint64_t> hashes;
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    hashes.insert(HashKey(key));
  }
  EXPECT_EQ(hashes.size(), 10000u);
}

TEST(HashTest, HashIsStableAcrossCalls) {
  EXPECT_EQ(HashKey("hello"), HashKey("hello"));
  EXPECT_NE(HashKey("hello"), HashKey("hellp"));
}

TEST(HashTest, HashHandlesAllLengths) {
  // Exercise the word loop and every tail length.
  std::set<uint64_t> hashes;
  std::string s;
  for (int len = 0; len < 64; ++len) {
    hashes.insert(HashBytes(s.data(), s.size()));
    s.push_back(static_cast<char>('a' + len % 26));
  }
  EXPECT_EQ(hashes.size(), 64u);
}

TEST(HashTest, FingerprintNeverZero) {
  for (uint64_t i = 0; i < 4096; ++i) {
    EXPECT_NE(Fingerprint(i << 56), 0);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(ZipfianTest, Rank0IsHottest) {
  Rng rng(3);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    counts[zipf.Next(rng)]++;
  }
  // Rank 0 must dominate rank 1, which must dominate rank 10.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
}

TEST(ZipfianTest, Theta099MatchesExpectedSkew) {
  Rng rng(3);
  ZipfianGenerator zipf(10000, 0.99);
  int head = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next(rng) < 100) {
      head++;
    }
  }
  // With theta=0.99 and n=10^4, the top-100 keys draw roughly half the
  // traffic (zeta(100)/zeta(10000) ~ 0.55).
  const double frac = static_cast<double>(head) / kDraws;
  EXPECT_GT(frac, 0.45);
  EXPECT_LT(frac, 0.70);
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  Rng rng(3);
  ZipfianGenerator zipf(100, 0.0);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[zipf.Next(rng)]++;
  }
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, kDraws / 100, kDraws / 100 * 0.5) << "rank " << rank;
  }
}

TEST(ZipfianTest, ScrambledCoversKeySpace) {
  Rng rng(3);
  ScrambledZipfianGenerator zipf(1000, 0.99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t k = zipf.Next(rng);
    EXPECT_LT(k, 1000u);
    seen.insert(k);
  }
  // Scrambling spreads hot ranks across the space; most keys get touched.
  EXPECT_GT(seen.size(), 500u);
}

TEST(LogicalClockTest, StrictlyIncreasing) {
  LogicalClock clock;
  uint64_t prev = clock.Tick();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t next = clock.Tick();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(VirtualClockTest, AccumulatesAdvances) {
  VirtualClock clock;
  clock.AdvanceUs(1.5);
  clock.AdvanceNs(500);
  EXPECT_EQ(clock.busy_ns(), 2000u);
  EXPECT_DOUBLE_EQ(clock.busy_us(), 2.0);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.RecordNs(static_cast<uint64_t>(i) * 1000);
  }
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_LE(hist.PercentileNs(50), hist.PercentileNs(99));
  EXPECT_LE(hist.PercentileNs(99), hist.PercentileNs(100));
  // p50 of 1..1000us should be near 500us (log-bucket resolution ~4%).
  EXPECT_NEAR(hist.PercentileUs(50), 500.0, 50.0);
  EXPECT_NEAR(hist.PercentileUs(99), 990.0, 100.0);
}

TEST(HistogramTest, P99IsNinetyNinthRankNotMax) {
  // Regression: floor(p/100 * n) with a strict `seen > target` comparison
  // landed one rank too high, so p99 over 100 samples returned the maximum's
  // bucket. 99 samples at 10us and one at 10ms: the 99th-rank sample is 10us.
  Histogram hist;
  for (int i = 0; i < 99; ++i) {
    hist.RecordNs(10'000);
  }
  hist.RecordNs(10'000'000);
  EXPECT_LT(hist.PercentileNs(99), 20'000.0) << "p99 must land in the 10us bucket";
  EXPECT_GT(hist.PercentileNs(100), 9'000'000.0) << "p100 is the max bucket";
  EXPECT_GT(hist.PercentileNs(99.5), 9'000'000.0) << "rank ceil(99.5) = 100 = the max";
}

TEST(HistogramTest, NearestRankPinnedOnTwoBucketFixture) {
  // 50 samples at 1us, 50 at 1ms: rank 50 (p50) is the last low sample, rank
  // 51 (p51) the first high one; p1 is the smallest sample's bucket.
  Histogram hist;
  for (int i = 0; i < 50; ++i) {
    hist.RecordNs(1'000);
    hist.RecordNs(1'000'000);
  }
  EXPECT_LT(hist.PercentileNs(1), 2'000.0);
  EXPECT_LT(hist.PercentileNs(50), 2'000.0) << "rank 50 is still in the low bucket";
  EXPECT_GT(hist.PercentileNs(51), 900'000.0) << "rank 51 crosses into the high bucket";
}

TEST(HistogramTest, ExactRankBoundaryNotSkewedByFloatRounding) {
  // 0.55 * 100 is 55.000000000000007 in doubles; a bare ceil() would ask for
  // rank 56. With 55 low samples and 45 high ones, p55 must stay low.
  Histogram hist;
  for (int i = 0; i < 55; ++i) {
    hist.RecordNs(10'000);
  }
  for (int i = 0; i < 45; ++i) {
    hist.RecordNs(10'000'000);
  }
  EXPECT_LT(hist.PercentileNs(55), 20'000.0) << "rank 55 is the last low sample";
  EXPECT_GT(hist.PercentileNs(56), 9'000'000.0);
}

TEST(HistogramTest, PercentileBoundsClamped) {
  Histogram hist;
  hist.RecordNs(5'000);
  // A single sample: every percentile (including p0) is that sample's bucket.
  EXPECT_GT(hist.PercentileNs(0), 4'000.0);
  EXPECT_LT(hist.PercentileNs(0), 6'000.0);
  EXPECT_DOUBLE_EQ(hist.PercentileNs(0), hist.PercentileNs(100));
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.RecordUs(10);
  b.RecordUs(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.MeanNs(), 15000.0, 1.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.PercentileNs(99), 0.0);
  EXPECT_DOUBLE_EQ(hist.MeanNs(), 0.0);
}

TEST(SmallBufTest, InlineForSmallCountsHeapBeyond) {
  SmallBuf<int, 4> buf;
  int* a = buf.Acquire(3);
  a[0] = 1;
  a[1] = 2;
  a[2] = 3;
  // A second inline acquire reuses the same storage, reset to defaults.
  int* b = buf.Acquire(4);
  EXPECT_EQ(a, b) << "small counts must come from inline storage";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b[i], 0) << "elements must be freshly default-valued";
  }
  // Beyond the inline capacity the buffer falls back to (reused) heap.
  int* big = buf.Acquire(100);
  EXPECT_NE(big, b);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(big[i], 0);
    big[i] = i;
  }
  int* big2 = buf.Acquire(100);
  EXPECT_EQ(big2[99], 0) << "heap reuse must also reset elements";
}

TEST(SmallBufTest, WorksWithNonTrivialElementTypes) {
  SmallBuf<std::string, 2> buf;
  std::string* s = buf.Acquire(2);
  s[0] = "hello";
  s[1] = std::string(128, 'x');
  s = buf.Acquire(2);
  EXPECT_TRUE(s[0].empty());
  EXPECT_TRUE(s[1].empty());
  s = buf.Acquire(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(s[i].empty());
  }
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "2.5", "--gamma", "--name=x"};
  Flags flags(6, const_cast<char**>(argv), {"alpha", "beta", "gamma", "name"});
  EXPECT_EQ(flags.GetInt<int>("alpha", 0, 0, 10), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), 2.5);
  EXPECT_EQ(flags.GetString("gamma", ""), "true");
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_EQ(flags.GetInt<int>("missing", 7, 0, 10), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsDeathTest, UnknownNameExitsTwo) {
  // A misspelt flag must not silently run the defaults.
  const char* argv[] = {"prog", "--workloadd=B"};
  EXPECT_EXIT(Flags(2, const_cast<char**>(argv), {"workload"}), ::testing::ExitedWithCode(2),
              "unknown flag --workloadd");
}

TEST(FlagsDeathTest, MalformedNumberExitsTwo) {
  const char* keys[] = {"prog", "--keys=abc"};
  const Flags int_flags(2, const_cast<char**>(keys), {"keys"});
  EXPECT_EXIT(int_flags.GetInt<uint64_t>("keys", 1, 1, 100), ::testing::ExitedWithCode(2),
              "not an integer");
  const char* theta[] = {"prog", "--theta=0.9x"};
  const Flags double_flags(2, const_cast<char**>(theta), {"theta"});
  EXPECT_EXIT(double_flags.GetDouble("theta", 1.0), ::testing::ExitedWithCode(2),
              "not a number");
}

// Reads `text` as --n into an int range [lo, hi] in a child process.
void ReadIntFlag(const char* text, int lo, int hi) {
  const std::string arg = std::string("--n=") + text;
  const char* argv[] = {"prog", arg.c_str()};
  const Flags flags(2, const_cast<char**>(argv), {"n"});
  flags.GetInt<int>("n", lo, lo, hi);
}

TEST(FlagsDeathTest, ValueOutsideRangeExitsTwo) {
  EXPECT_EXIT(ReadIntFlag("0", 1, 64), ::testing::ExitedWithCode(2),
              "flag --n: '0' is outside \\[1, 64\\]");
  EXPECT_EXIT(ReadIntFlag("65", 1, 64), ::testing::ExitedWithCode(2),
              "flag --n: '65' is outside \\[1, 64\\]");
}

TEST(FlagsDeathTest, ValueBeyondTheTypeIsNotTruncated) {
  // 2^32 + 1 would truncate to 1 through an int, which [1, 64] accepts.
  EXPECT_EXIT(ReadIntFlag("4294967297", 1, 64), ::testing::ExitedWithCode(2), "outside");
  // Beyond int64_t: strtoll overflows, still a range error.
  EXPECT_EXIT(ReadIntFlag("99999999999999999999", 1, 64), ::testing::ExitedWithCode(2),
              "outside");
}

TEST(FlagsDeathTest, NegativeCountExitsTwo) {
  const char* argv[] = {"prog", "--clients=-3"};
  const Flags flags(2, const_cast<char**>(argv), {"clients"});
  EXPECT_EXIT(flags.GetInt<uint64_t>("clients", 16, 1, 1024), ::testing::ExitedWithCode(2),
              "outside");
}

TEST(FlagsTest, BoundsAreInclusive) {
  const char* argv[] = {"prog", "--lo=1", "--hi=64", "--port=65535"};
  const Flags flags(4, const_cast<char**>(argv), {"hi", "lo", "port"});
  EXPECT_EQ(flags.GetInt<int>("lo", 8, 1, 64), 1);
  EXPECT_EQ(flags.GetInt<int>("hi", 8, 1, 64), 64);
  EXPECT_EQ(flags.GetInt<uint16_t>("port", 6399, 1, UINT16_MAX), 65535);
}

}  // namespace
}  // namespace ditto
