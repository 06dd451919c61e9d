// Figure 3: hit rates of LRU and LFU when two applications — one
// LRU-friendly, one LFU-friendly — share a cache and the number of client
// threads assigned to each application varies. The overall access pattern is
// the mixture, so the best algorithm flips with the compute allocation.
#include <cstdio>

#include "bench_common.h"
#include "workloads/synthetic_traces.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 20000, 1, bench::kMaxCount);
  const size_t capacity = footprint / 10;
  const int total_clients = 16;
  const sim::RunOptions options;

  std::printf("# Figure 3: hit rate vs client allocation across two applications\n");
  std::printf("# app A: LRU-friendly (shifting hot set); app B: LFU-friendly (zipf+noise)\n");
  std::printf("%-14s %10s %10s %8s\n", "lfu_clients", "lru_hit", "lfu_hit", "best");

  for (int lfu_clients = 0; lfu_clients <= total_clients; lfu_clients += 4) {
    const double frac_b = static_cast<double>(lfu_clients) / total_clients;
    const workload::Trace mixed = workload::MakeTwoAppMix(requests, footprint, 1.0 - frac_b);
    const double lru =
        sim::ReplayExact(mixed, policy::PrecisePolicyKind::kLru, capacity, options).hit_rate;
    const double lfu =
        sim::ReplayExact(mixed, policy::PrecisePolicyKind::kLfu, capacity, options).hit_rate;
    std::printf("%-14d %10.4f %10.4f %8s\n", lfu_clients, lru, lfu,
                lru >= lfu ? "LRU" : "LFU");
  }
  std::printf("\n# expected shape: LRU wins when most clients run the LRU-friendly app;\n"
              "# LFU overtakes as compute shifts to the LFU-friendly app.\n");
  return 0;
}
