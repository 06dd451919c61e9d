// Figure 22: hit rate while the cache's memory capacity grows at run time
// (webmail-like workload). The best fixed algorithm changes with cache size;
// Ditto adapts at every size.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 150000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 16000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 16, 1, bench::kMaxClients);

  const workload::Trace trace = workload::MakeNamedTrace("webmail", requests, footprint, 22);
  const uint64_t fp = workload::Footprint(trace);

  bench::PrintHeader("Figure 22", "hit rate under dynamically growing cache sizes "
                                  "(webmail-like)");
  std::printf("%-12s %10s %10s %10s %8s\n", "cache_frac", "ditto", "d-lru", "d-lfu", "best");
  sim::RunOptions options;
  options.warmup_fraction = 0.3;
  for (const double frac : {0.05, 0.10, 0.20, 0.30, 0.40, 0.60}) {
    const auto capacity = static_cast<uint64_t>(frac * static_cast<double>(fp));
    auto hit_rate = [&](const char* system) {
      return bench::RunSystem(bench::ParseSystem(system), trace, bench::MakePoolConfig(capacity),
                              clients, options)
          .hit_rate;
    };
    const double ditto = hit_rate("ditto");
    const double lru = hit_rate("ditto-lru");
    const double lfu = hit_rate("ditto-lfu");
    std::printf("%-12.2f %10.4f %10.4f %10.4f %8s\n", frac, ditto, lru, lfu,
                lru >= lfu ? "LRU" : "LFU");
  }
  std::printf("\n# expected shape: the better fixed expert changes with cache size; ditto\n"
              "# tracks whichever is better at each size.\n");
  return 0;
}
