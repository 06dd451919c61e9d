// Figure 2: the cost of maintaining caching data structures on DM.
//   (a) single-client throughput and latency of KVC (one lock-protected LRU
//       list), KVC-S (32 sharded lists, 5us backoff) and KVS (no structure);
//   (b) multi-client throughput: KVC/KVC-S collapse as lock-failure CAS
//       retries overwhelm the memory node's RNIC, KVS scales.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"keys", "requests"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 20000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 60000, 1, bench::kMaxCount);

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = keys;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, 1);

  bench::PrintHeader("Figure 2", "cost of caching data structures on DM (YCSB-C, no misses)");

  // Printed label -> system name.
  const std::pair<const char*, const char*> systems[] = {
      {"KVS", "kvs"}, {"KVC", "kvc"}, {"KVC-S", "kvc-s"}};
  sim::RunOptions options;
  options.set_on_miss = false;
  auto run = [&](const char* system, int clients) {
    return bench::RunSystem(bench::ParseSystem(system), trace, bench::MakePoolConfig(keys * 2),
                            clients, options, /*preload=*/true);
  };

  std::printf("\n# (a) single-client performance\n");
  std::printf("%-8s %10s %9s %9s\n", "system", "tput_mops", "p50_us", "p99_us");
  for (const auto& [label, system] : systems) {
    const sim::RunResult r = run(system, 1);
    std::printf("%-8s %10.3f %9.1f %9.1f\n", label, r.throughput_mops, r.p50_us, r.p99_us);
  }

  std::printf("\n# (b) multi-client throughput (Mops)\n");
  std::printf("%-8s", "clients");
  for (const auto& [label, system] : systems) {
    std::printf(" %10s", label);
  }
  std::printf("\n");
  for (const int clients : {1, 2, 4, 8, 16, 32, 64, 96}) {
    std::printf("%-8d", clients);
    for (const auto& [label, system] : systems) {
      std::printf(" %10.3f", run(system, clients).throughput_mops);
    }
    std::printf("\n");
  }
  std::printf("\n# expected shape: KVS scales with clients; KVC flat-lines early and\n"
              "# degrades as retry CASes saturate the RNIC; KVC-S degrades more mildly.\n");
  return 0;
}
