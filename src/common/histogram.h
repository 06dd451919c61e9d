// Log-bucketed latency histogram with percentile queries. Thread-compatible;
// per-client instances are merged after a run.
#ifndef DITTO_COMMON_HISTOGRAM_H_
#define DITTO_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace ditto {

class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 64;
  static constexpr int kNumBuckets = 8 * kBucketsPerDecade;  // covers 1ns .. ~100s

  void RecordNs(uint64_t ns);
  void RecordUs(double us) { RecordNs(static_cast<uint64_t>(us * 1000.0)); }
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  double MeanNs() const;
  // p in [0, 100]. Returns the bucket-upper-bound latency in nanoseconds.
  double PercentileNs(double p) const;
  double PercentileUs(double p) const { return PercentileNs(p) / 1000.0; }

  // The bucket a sample of ns lands in: b such that BucketUpperNs(b-1) <= ns
  // < BucketUpperNs(b), clamped to [0, kNumBuckets).
  static int BucketFor(uint64_t ns);
  static double BucketUpperNs(int bucket);

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t max_ns_ = 0;
};

}  // namespace ditto

#endif  // DITTO_COMMON_HISTOGRAM_H_
