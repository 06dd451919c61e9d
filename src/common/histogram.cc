#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ditto {

namespace {

constexpr double kLog10Of2 = 0.30102999566398119521;

// Authoritative bucket upper edges, computed once: edges[b] = 10^((b+1)/64).
// Placement and percentile reporting both read this table, so a sample can
// never land in a bucket inconsistent with the edge the percentile reports.
const std::array<double, Histogram::kNumBuckets>& BucketEdges() {
  static const std::array<double, Histogram::kNumBuckets> edges = [] {
    std::array<double, Histogram::kNumBuckets> e{};
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      e[b] = std::pow(10.0, static_cast<double>(b + 1) / Histogram::kBucketsPerDecade);
    }
    return e;
  }();
  return edges;
}

}  // namespace

int Histogram::BucketFor(uint64_t ns) {
  if (ns == 0) {
    return 0;
  }
  // Estimate log2(ns) from the double's bits, read as an integer: the
  // exponent (the bit length) plus the mantissa taken as a linear fraction.
  // That underestimates log2 by at most 0.086, so the estimate lands at most
  // two buckets low, and it costs no libm call on the once-per-op path.
  const double v = static_cast<double>(ns);
  const double log2_estimate = static_cast<double>(std::bit_cast<uint64_t>(v)) * 0x1p-52 - 1023.0;
  int bucket = static_cast<int>(log2_estimate * (kLog10Of2 * kBucketsPerDecade));
  if (bucket < 0) {
    bucket = 0;
  }
  if (bucket >= kNumBuckets) {
    bucket = kNumBuckets - 1;
  }
  // Settle the estimate against the authoritative edges, so bucket b always
  // covers [BucketUpperNs(b-1), BucketUpperNs(b)) whatever the estimate was.
  const auto& edges = BucketEdges();
  while (bucket + 1 < kNumBuckets && v >= edges[bucket]) {
    ++bucket;
  }
  while (bucket > 0 && v < edges[bucket - 1]) {
    --bucket;
  }
  return bucket;
}

double Histogram::BucketUpperNs(int bucket) { return BucketEdges()[bucket]; }

void Histogram::RecordNs(uint64_t ns) {
  buckets_[BucketFor(ns)]++;
  count_++;
  sum_ns_ += ns;
  if (ns > max_ns_) {
    max_ns_ = ns;
  }
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  if (other.max_ns_ > max_ns_) {
    max_ns_ = other.max_ns_;
  }
}

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ns_ = 0;
  max_ns_ = 0;
}

double Histogram::MeanNs() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / static_cast<double>(count_);
}

double Histogram::PercentileNs(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  // Nearest-rank percentile: the bucket holding the ceil(p/100 * n)-th
  // smallest sample. floor() with a strict `seen > target` comparison landed
  // one rank too high (p99 over 100 samples reported the maximum's bucket).
  // The epsilon keeps ceil from overshooting when p/100 * n is an integer
  // whose double product rounds up (0.55 * 100 == 55.000000000000007).
  auto target =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_) - 1e-9));
  target = std::min(std::max<uint64_t>(target, 1), count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return BucketUpperNs(i);
    }
  }
  return static_cast<double>(max_ns_);
}

}  // namespace ditto
