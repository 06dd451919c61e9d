// Concurrent sharded engine on YCSB: sweeps host thread counts and doorbell
// batch sizes over a key-partitioned multi-node Ditto deployment, printing
// throughput, hit rate, and modeled wire traffic. Hit rates are identical
// for every --threads value (shard state is thread-private); batched runs
// put strictly fewer messages on the wire whenever hot keys repeat inside
// the batch window.
//
// Flags:
//   --workload=A|B|C|D  YCSB core workload            (default A)
//   --keys=N            key-space size                (default 50000)
//   --requests=N        trace length                  (default 200000)
//   --shards=N          memory nodes / shards         (default 8)
//   --threads=LIST      comma-free sweep handled below; single int
//   --batch_ops=N       doorbell chain length, 0=off  (default 0)
//   --seed=N            partition + trace seed        (default 42)
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"batch_ops", "keys", "requests", "seed", "shards", "threads", "workload"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 50000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);
  const int shards = flags.GetInt<int>("shards", 8, 1, bench::kMaxNodes);
  const uint64_t seed = flags.GetInt<uint64_t>("seed", 42, 0, UINT64_MAX);
  const size_t batch_ops = flags.GetInt<size_t>("batch_ops", 0, 0, bench::kMaxBatch);
  const std::string workload = flags.GetString("workload", "A");

  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (flags.Has("threads")) {
    thread_counts = {flags.GetInt<int>("threads", 1, 1, bench::kMaxThreads)};
  }
  std::vector<size_t> batch_sweep = {0, 8, 32};
  if (flags.Has("batch_ops")) {
    batch_sweep = {batch_ops};
  }

  bench::PrintHeader("sharded-engine", "concurrent sharded replay: threads x batching sweep");

  workload::YcsbConfig ycsb;
  ycsb.num_keys = keys;
  const workload::Trace trace =
      bench::MakeYcsbTraceOrExit("sharded_engine", workload, &ycsb, requests, seed);

  std::printf("# workload=YCSB-%c keys=%llu requests=%llu shards=%d\n", ycsb.workload,
              static_cast<unsigned long long>(keys), static_cast<unsigned long long>(requests),
              shards);
  std::printf("%-8s %10s %12s %10s %14s %14s\n", "threads", "batch", "tput_mops", "hit_pct",
              "nic_messages", "doorbells");

  for (const int threads : thread_counts) {
    for (const size_t batch : batch_sweep) {
      // Fresh deployment per cell so runs are independent and reproducible.
      core::DittoConfig config;
      config.experts = {"lru", "lfu"};
      // Aggregate capacity = half the keyspace (the single-node benches'
      // convention); MakePoolConfig capacity is per node.
      const uint64_t capacity_per_node =
          std::max<uint64_t>(1, keys / 2 / static_cast<uint64_t>(shards));
      bench::ShardedEngineDeployment d =
          bench::MakeShardedEngine(bench::MakePoolConfig(capacity_per_node), config, shards);
      sim::RunOptions options;
      options.threads = threads;
      options.partition_seed = seed;
      options.batch_ops = batch;
      options.warmup_fraction = 0.2;
      const sim::RunResult r = sim::RunTraceSharded(d.raw, trace, d.nodes, options);
      std::printf("%-8d %10zu %12.3f %10.2f %14llu %14llu\n", threads, batch,
                  r.throughput_mops, r.hit_rate * 100.0,
                  static_cast<unsigned long long>(r.nic_messages),
                  static_cast<unsigned long long>(r.nic_doorbells));
      char label[64];
      std::snprintf(label, sizeof(label), "threads=%d,batch=%zu", threads, batch);
      bench::EmitBenchJson("sharded_engine", label, r);
    }
  }
  std::printf("\n# expected shape: hit_pct constant down the threads column; batched rows\n"
              "# show fewer nic_messages and far fewer doorbells than batch=0.\n");
  return 0;
}
