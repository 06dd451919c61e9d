// Figure 21: hit rates (normalized to Ditto-LRU) while the number of
// concurrent clients grows at run time on the webmail-like workload. The
// interleaving of more clients changes the access pattern; Ditto re-adapts.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 120000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 16000, 1, bench::kMaxCount);

  const workload::Trace trace = workload::MakeNamedTrace("webmail", requests, footprint, 21);
  const uint64_t capacity = workload::Footprint(trace) / 10;

  bench::PrintHeader("Figure 21", "hit rate while dynamically growing the client count "
                                  "(webmail-like)");
  std::printf("%-10s %10s %10s %10s %12s\n", "clients", "ditto", "d-lru", "d-lfu",
              "ditto_rel");
  sim::RunOptions options;
  options.warmup_fraction = 0.3;
  for (const int clients : {4, 8, 16, 32, 64}) {
    auto hit_rate = [&](const char* system) {
      return bench::RunSystem(bench::ParseSystem(system), trace, bench::MakePoolConfig(capacity),
                              clients, options)
          .hit_rate;
    };
    const double ditto = hit_rate("ditto");
    const double lru = hit_rate("ditto-lru");
    const double lfu = hit_rate("ditto-lfu");
    std::printf("%-10d %10.4f %10.4f %10.4f %12.3f\n", clients, ditto, lru, lfu,
                ditto / std::max(lru, 1e-9));
  }
  std::printf("\n# expected shape: ditto stays at or above both fixed experts as the\n"
              "# client count (and thus the interleaved access pattern) changes.\n");
  return 0;
}
