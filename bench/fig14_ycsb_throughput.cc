// Figure 14: throughput and p99 latency of Ditto, CliqueMap (CM-LRU) and
// Shard-LRU on YCSB A-D with no cache misses, as the number of clients grows
// from 1 to 256.
//
// Expected shape (paper): Ditto is bottlenecked only by the MN RNIC message
// rate and reaches ~10.5-13.2 Mops; CliqueMap saturates the weak MN CPU
// (Sets on A; access-info merging on B/C/D); Shard-LRU collapses under lock
// contention. Ditto wins by up to 9x.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"keys", "requests"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 50000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 120000, 1, bench::kMaxCount);

  bench::PrintHeader("Figure 14", "YCSB A-D throughput/p99 vs clients (no misses)");
  sim::RunOptions options;
  options.set_on_miss = false;

  for (const char workload : {'A', 'B', 'C', 'D'}) {
    // Workload D: 5% inserts of fresh keys, reads skewed to recent.
    workload::YcsbConfig ycsb;
    ycsb.workload = workload;
    ycsb.num_keys = keys;
    const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, 1);

    std::printf("\n# YCSB-%c\n", workload);
    std::printf("%-8s %12s %12s %12s %12s %12s %12s\n", "clients", "ditto_mops", "ditto_p99",
                "cm_mops", "cm_p99", "shard_mops", "shard_p99");
    for (const int clients : {1, 4, 16, 64, 128, 256}) {
      std::printf("%-8d", clients);
      for (const char* system : {"ditto", "cm-lru", "shard-lru"}) {
        const sim::RunResult r =
            bench::RunSystem(bench::ParseSystem(system), trace, bench::MakePoolConfig(keys * 2),
                             clients, options, /*preload=*/true);
        std::printf(" %12.3f %12.1f", r.throughput_mops, r.p99_us);
      }
      std::printf("\n");
    }
  }
  std::printf("\n# expected shape: Ditto plateaus at the NIC message-rate bound; CliqueMap\n"
              "# saturates the 1-core MN CPU; Shard-LRU collapses under lock contention.\n");
  return 0;
}
