// Histogram bucket-boundary and percentile pins.
//
// The regression this guards: BucketFor used to place a sample by
// floor(log10(ns) * 64) alone, and log10(1000) evaluates to 2.999... in
// binary floating point, so a sample at an exact decade power landed one
// bucket LOW and PercentileNs reported a value <= the sample instead of the
// upper edge of the bucket containing it. BucketFor now clamps the log10
// estimate against the precomputed edge table that PercentileNs reports
// from, so placement and reporting can never disagree.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>

#include "common/histogram.h"

namespace ditto {
namespace {

// Multiplicative width of one bucket: 10^(1/64).
double BucketStep() { return std::pow(10.0, 1.0 / Histogram::kBucketsPerDecade); }

// Bucket b covers [edge(b-1), edge(b)) and percentiles report edge(b), so a
// single sample at value v must report strictly above v and at most one
// bucket-step above it.
void ExpectReportsOwnBucketUpper(uint64_t ns) {
  Histogram h;
  h.RecordNs(ns);
  const double p = h.PercentileNs(50);
  EXPECT_GT(p, static_cast<double>(ns)) << "ns=" << ns;
  EXPECT_LE(p, static_cast<double>(ns) * BucketStep() * (1.0 + 1e-9)) << "ns=" << ns;
}

TEST(HistogramTest, DecadePowersLandInTheBucketAboveTheirEdge) {
  // Exact decade powers sit ON a bucket edge; half-open buckets put them in
  // the bucket whose lower edge they are. Before the clamp, 1000ns reported
  // p50 = 1000.0 exactly (one bucket low).
  for (uint64_t ns :
       {10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull}) {
    ExpectReportsOwnBucketUpper(ns);
  }
}

TEST(HistogramTest, NonBoundarySamplesAlsoReportTheirBucketUpper) {
  for (uint64_t ns : {1ull, 3ull, 999ull, 1001ull, 4242ull, 12345678ull}) {
    ExpectReportsOwnBucketUpper(ns);
  }
}

TEST(HistogramTest, SamplesBeyondTheRangeSaturateIntoTheTopBucket) {
  // The histogram covers [1ns, 10^(kNumBuckets/64) ns); anything at or above
  // the top edge lands in the last bucket and reports that edge.
  const double top =
      std::pow(10.0, static_cast<double>(Histogram::kNumBuckets) /
                         Histogram::kBucketsPerDecade);
  Histogram h;
  h.RecordNs(static_cast<uint64_t>(top) * 10);
  EXPECT_DOUBLE_EQ(h.PercentileNs(50), top);
}

TEST(HistogramTest, NearestRankPercentilePins) {
  // 100 distinct samples: 1us, 2us, ..., 100us. Nearest-rank pN is the
  // ceil(N)-th smallest sample; the histogram reports the upper edge of the
  // bucket containing it.
  Histogram h;
  for (int us = 1; us <= 100; ++us) {
    h.RecordNs(static_cast<uint64_t>(us) * 1000);
  }
  EXPECT_EQ(h.count(), 100u);
  const struct {
    double p;
    double sample_ns;  // the nearest-rank sample for this percentile
  } pins[] = {
      {1.0, 1000.0}, {50.0, 50000.0}, {99.0, 99000.0}, {100.0, 100000.0}};
  for (const auto& pin : pins) {
    const double got = h.PercentileNs(pin.p);
    EXPECT_GT(got, pin.sample_ns) << "p" << pin.p;
    EXPECT_LE(got, pin.sample_ns * BucketStep() * (1.0 + 1e-9)) << "p" << pin.p;
  }
}

TEST(HistogramTest, MeanIsExactAndMergeAddsCounts) {
  Histogram a;
  a.RecordNs(1000);
  a.RecordNs(3000);
  EXPECT_DOUBLE_EQ(a.MeanNs(), 2000.0);

  Histogram b;
  b.RecordNs(5000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.MeanNs(), 3000.0);
  // After merging, p100 reports the bucket upper of the largest sample.
  EXPECT_GT(a.PercentileNs(100), 5000.0);
  EXPECT_LE(a.PercentileNs(100), 5000.0 * BucketStep() * (1.0 + 1e-9));
}

// BucketFor as it was when it estimated with libm's log10 (before the
// bit-length estimate), kept to pin that the cheaper estimate settles on the
// same bucket for every input.
int ReferenceBucketFor(uint64_t ns) {
  static const std::array<double, Histogram::kNumBuckets> edges = [] {
    std::array<double, Histogram::kNumBuckets> e{};
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      e[b] = std::pow(10.0, static_cast<double>(b + 1) / Histogram::kBucketsPerDecade);
    }
    return e;
  }();
  if (ns == 0) {
    return 0;
  }
  const double log = std::log10(static_cast<double>(ns));
  int bucket = static_cast<int>(log * Histogram::kBucketsPerDecade);
  bucket = std::clamp(bucket, 0, Histogram::kNumBuckets - 1);
  const double v = static_cast<double>(ns);
  while (bucket + 1 < Histogram::kNumBuckets && v >= edges[bucket]) {
    ++bucket;
  }
  while (bucket > 0 && v < edges[bucket - 1]) {
    --bucket;
  }
  return bucket;
}

TEST(HistogramTest, BucketForMatchesTheLog10ReferenceAtEveryEdge) {
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const auto edge = static_cast<uint64_t>(std::ceil(Histogram::BucketUpperNs(b)));
    for (uint64_t ns : {edge - 1, edge, edge + 1}) {
      ASSERT_EQ(Histogram::BucketFor(ns), ReferenceBucketFor(ns)) << "ns=" << ns;
    }
  }
  for (uint64_t ns : {uint64_t{0}, uint64_t{1}, uint64_t{2}, ~uint64_t{0}, uint64_t{1} << 53,
                      (uint64_t{1} << 53) + 1}) {
    ASSERT_EQ(Histogram::BucketFor(ns), ReferenceBucketFor(ns)) << "ns=" << ns;
  }
}

TEST(HistogramTest, BucketForMatchesTheLog10ReferenceOnASeededSweep) {
  // Values spread over every bit length: a random word shifted right by a
  // random amount.
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t word = rng();
    const uint64_t ns = word >> (rng() % 64);
    ASSERT_EQ(Histogram::BucketFor(ns), ReferenceBucketFor(ns)) << "ns=" << ns;
  }
}

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.MeanNs(), 0.0);
  EXPECT_DOUBLE_EQ(h.PercentileNs(50), 0.0);
}

}  // namespace
}  // namespace ditto
