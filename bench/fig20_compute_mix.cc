// Figure 20: relative hit rates (normalized to Ditto-LRU) as the proportion
// of clients assigned to an LRU-friendly application vs an LFU-friendly one
// varies. Ditto adapts to whichever mixture the compute allocation creates.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 150000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 16000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 16, 1, bench::kMaxClients);

  bench::PrintHeader("Figure 20", "hit rate vs LRU-app client proportion (normalized to "
                                  "ditto-lru)");
  std::printf("%-12s %10s %10s %10s %12s %12s\n", "lru_portion", "ditto", "d-lru", "d-lfu",
              "ditto_rel", "lfu_rel");

  sim::RunOptions options;
  options.warmup_fraction = 0.3;
  for (const double lru_portion : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const workload::Trace mixed = workload::MakeTwoAppMix(requests, footprint, lru_portion);
    const uint64_t capacity = workload::Footprint(mixed) / 10;
    auto hit_rate = [&](const char* system) {
      return bench::RunSystem(bench::ParseSystem(system), mixed, bench::MakePoolConfig(capacity),
                              clients, options)
          .hit_rate;
    };
    const double ditto = hit_rate("ditto");
    const double lru = hit_rate("ditto-lru");
    const double lfu = hit_rate("ditto-lfu");
    std::printf("%-12.1f %10.4f %10.4f %10.4f %12.3f %12.3f\n", lru_portion, ditto, lru, lfu,
                ditto / std::max(lru, 1e-9), lfu / std::max(lru, 1e-9));
  }
  std::printf("\n# expected shape: ditto >= ditto-lru at low LRU portions (tracks LFU) and\n"
              "# converges to ditto-lru as the LRU portion grows.\n");
  return 0;
}
