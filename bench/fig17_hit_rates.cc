// Figure 17: hit rates of Ditto, Ditto-LRU, Ditto-LFU, CM-LRU and CM-LFU on
// five real-world-like workloads across cache sizes (fraction of footprint).
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 150000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 20000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 16, 1, bench::kMaxClients);

  bench::PrintHeader("Figure 17", "hit rates on real-world-like workloads vs cache size");
  std::printf("%-20s %-8s %10s %10s %10s %10s %10s\n", "workload", "frac", "ditto",
              "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu");

  const std::vector<std::string> workloads = {"webmail", "twitter-transient",
                                              "twitter-storage", "twitter-compute", "ibm"};
  sim::RunOptions options;
  options.warmup_fraction = 0.3;
  for (const std::string& name : workloads) {
    const workload::Trace trace = workload::MakeNamedTrace(name, requests, footprint, 5);
    const uint64_t fp = workload::Footprint(trace);
    for (const double frac : {0.05, 0.10, 0.20, 0.40}) {
      const auto capacity = static_cast<uint64_t>(frac * static_cast<double>(fp));
      std::printf("%-20s %-8.2f", name.c_str(), frac);
      for (const char* system : {"ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu"}) {
        const sim::RunResult r = bench::RunSystem(
            bench::ParseSystem(system), trace, bench::MakePoolConfig(capacity), clients, options);
        std::printf(" %10.4f", r.hit_rate);
      }
      std::printf("\n");
    }
  }
  std::printf("\n# expected shape: Ditto approaches max(Ditto-LRU, Ditto-LFU) everywhere.\n");
  return 0;
}
