// Figure 16: penalized throughput (each miss pays a 500us fetch from the
// backing distributed store) of Ditto, Ditto-LRU, Ditto-LFU, CM-LRU and
// CM-LFU across five real-world-like workloads.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"cache_frac", "clients", "footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 150000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 20000, 1, bench::kMaxCount);
  // The paper uses 64 clients and sets cache sizes where hit rates are high;
  // that is where CliqueMap's MN-CPU ceiling binds and Ditto pulls ahead.
  const int clients = flags.GetInt<int>("clients", 64, 1, bench::kMaxClients);
  const double cache_frac = flags.GetDouble("cache_frac", 0.3);

  bench::PrintHeader("Figure 16",
                     "penalized throughput on real-world-like workloads (500us miss penalty)");
  std::printf("%-20s %10s %10s %10s %10s %10s  (Mops)\n", "workload", "ditto", "ditto-lru",
              "ditto-lfu", "cm-lru", "cm-lfu");

  const std::vector<std::string> workloads = {"webmail", "twitter-transient",
                                              "twitter-storage", "twitter-compute", "ibm"};
  sim::RunOptions options;
  options.miss_penalty_us = 500.0;
  options.warmup_fraction = 0.3;
  auto print_row = [&](const workload::Trace& trace, uint64_t capacity) {
    for (const char* system : {"ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu"}) {
      const sim::RunResult r = bench::RunSystem(bench::ParseSystem(system), trace,
                                                bench::MakePoolConfig(capacity), clients, options);
      std::printf(" %10.4f", r.throughput_mops);
    }
    std::printf("\n");
  };
  for (const std::string& name : workloads) {
    const workload::Trace trace = workload::MakeNamedTrace(name, requests, footprint, 5);
    std::printf("%-20s", name.c_str());
    print_row(trace, static_cast<uint64_t>(cache_frac *
                                           static_cast<double>(workload::Footprint(trace))));
  }
  // High-hit-rate regime: the paper's Twitter workloads run at ~95%+ hit
  // rates, where the request rate exceeds what the weak MN CPU can serve for
  // CliqueMap (Set RPCs + access-info merging) while Ditto stays NIC-bound.
  std::printf("\n# high-hit regime (cache ~= footprint): CliqueMap's MN-CPU ceiling binds\n");
  std::printf("%-20s", "twitter-storage-hot");
  const workload::Trace hot = workload::MakeNamedTrace("twitter-storage", requests,
                                                       footprint / 4, 6);
  print_row(hot, workload::Footprint(hot));

  std::printf("\n# expected shape: Ditto tracks the better of Ditto-LRU/Ditto-LFU. At\n"
              "# moderate hit rates all systems are miss-penalty-bound (within ~5%%); in\n"
              "# the high-hit regime CliqueMap hits its MN-CPU ceiling and Ditto wins.\n");
  return 0;
}
