// Figure 4: LRU vs LFU hit rates on the same workload (webmail-like) across
// cache sizes. The best algorithm flips with the memory allocation, which is
// why memory elasticity on DM demands adaptive caching.
#include <cstdio>

#include "bench_common.h"
#include "workloads/synthetic_traces.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 300000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 20000, 1, bench::kMaxCount);

  const workload::Trace trace = workload::MakeNamedTrace("webmail", requests, footprint, 1);
  const uint64_t actual_footprint = workload::Footprint(trace);
  const sim::RunOptions options;

  std::printf("# Figure 4: hit rate vs cache size (webmail-like trace, footprint %llu)\n",
              static_cast<unsigned long long>(actual_footprint));
  std::printf("%-12s %10s %10s %8s\n", "cache_frac", "lru_hit", "lfu_hit", "best");
  for (const double frac : {0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.60}) {
    const auto capacity = static_cast<size_t>(frac * static_cast<double>(actual_footprint));
    const double lru =
        sim::ReplayExact(trace, policy::PrecisePolicyKind::kLru, capacity, options).hit_rate;
    const double lfu =
        sim::ReplayExact(trace, policy::PrecisePolicyKind::kLfu, capacity, options).hit_rate;
    std::printf("%-12.2f %10.4f %10.4f %8s\n", frac, lru, lfu, lru >= lfu ? "LRU" : "LFU");
  }
  std::printf("\n# expected shape: the winner flips across cache sizes (paper: LRU small,\n"
              "# LFU large on webmail).\n");
  return 0;
}
