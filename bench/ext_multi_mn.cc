// Extension experiment (paper §5.1 notes Ditto "is compatible with memory
// pools with multiple MNs"): throughput of a multi-node (ClusterPool) Ditto
// deployment as the memory pool grows from 1 to 8 memory nodes under
// read-only YCSB-C with 128 clients. The single-MN system is bounded by one
// RNIC's message rate; spreading keys across nodes multiplies the pool's
// aggregate message rate.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "keys", "requests"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 50000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 150000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 128, 1, bench::kMaxClients);

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = keys;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, 1);

  bench::PrintHeader("Extension: multi-MN scaling",
                     "YCSB-C throughput vs number of memory nodes (128 clients)");
  std::printf("%-8s %12s %10s %14s\n", "nodes", "tput_mops", "p99_us", "msgs/op(total)");

  for (const int nodes : {1, 2, 4, 8}) {
    core::ClusterConfig config;
    config.nodes = nodes;
    config.pool.memory_bytes = 64 << 20;
    config.pool.num_buckets = 16384;
    config.pool.capacity_objects = keys * 2;
    config.ditto.experts = {"lru", "lfu"};
    bench::ClusterDeployment d = bench::MakeCluster(config, clients);

    const std::string value(232, 'v');
    for (uint64_t k = 0; k < keys; ++k) {
      d.clients[k % clients]->Set(workload::KeyString(k), value);
    }
    sim::RunOptions options;
    options.set_on_miss = false;
    const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);
    std::printf("%-8d %12.3f %10.1f %14.2f\n", nodes, r.throughput_mops, r.p99_us,
                static_cast<double>(r.nic_messages) / static_cast<double>(r.ops));
  }
  std::printf("\n# expected shape: near-linear scaling while the NIC is the bottleneck,\n"
              "# tapering once per-client request rates bound throughput instead.\n");
  return 0;
}
