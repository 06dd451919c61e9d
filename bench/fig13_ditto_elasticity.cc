// Figure 13: Ditto's throughput when dynamically adjusting compute and
// memory resources under YCSB-C. Unlike Redis (Figure 1), adding or removing
// client CPU cores takes effect immediately (no data migration), and memory
// capacity changes take effect immediately because cached data is shared by
// all compute nodes.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"keys", "requests"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 50000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = keys;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, 1);

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  bench::DittoDeployment d = bench::MakeDitto(bench::MakePoolConfig(keys * 2), config, 32);
  bench::Preload(d.raw, trace, 232);

  bench::PrintHeader("Figure 13", "Ditto throughput under dynamic resource adjustment (YCSB-C)");
  std::printf("%-28s %8s %10s %10s %9s %9s\n", "phase", "clients", "capacity", "tput_mops",
              "p50_us", "p99_us");

  sim::RunOptions options;
  options.set_on_miss = false;

  auto run_phase = [&](const char* phase, int clients, uint64_t capacity) {
    d.Resize(clients);
    d.pool->SetCapacityObjects(capacity);
    const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);
    std::printf("%-28s %8d %10llu %10.3f %9.1f %9.1f\n", phase, clients,
                static_cast<unsigned long long>(capacity), r.throughput_mops, r.p50_us,
                r.p99_us);
  };

  // Compute elasticity: 32 -> 64 -> 32 clients. Takes effect instantly; no
  // migration phase exists at all (contrast with Figure 1's 5+ minutes).
  const uint64_t cap = keys * 2;
  run_phase("baseline (32 cores)", 32, cap);
  run_phase("scale-out (+32 cores)", 64, cap);
  run_phase("scale-in (back to 32)", 32, cap);

  // Memory elasticity: grow and shrink the cache; throughput is unaffected
  // because no data moves.
  run_phase("memory grow (2x capacity)", 32, cap * 2);
  run_phase("memory shrink (0.5x)", 32, cap / 2);
  run_phase("memory restore", 32, cap);

  std::printf("\n# expected shape: throughput follows the client count immediately and is\n"
              "# insensitive to capacity changes; no migration window exists.\n");
  return 0;
}
