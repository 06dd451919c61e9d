// Figure 15: throughput of Ditto, CliqueMap and the Redis model as the
// number of memory-node CPU cores grows (256 clients, YCSB-A and YCSB-C).
//
// Expected shape: Ditto is flat (it never uses MN compute); CliqueMap scales
// with cores and needs 20+ to approach Ditto on YCSB-C; Redis is bounded by
// its hottest shard regardless of core count on the skewed workload.
#include <cstdio>

#include "baselines/redis_model.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "keys", "requests"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 50000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 120000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 128, 1, bench::kMaxClients);

  bench::PrintHeader("Figure 15", "throughput vs MN CPU cores (256 clients in the paper)");
  sim::RunOptions options;
  options.set_on_miss = false;

  for (const char workload : {'A', 'C'}) {
    workload::YcsbConfig ycsb;
    ycsb.workload = workload;
    ycsb.num_keys = keys;
    const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, 1);

    std::printf("\n# YCSB-%c\n", workload);
    std::printf("%-8s %12s %12s %12s\n", "cores", "ditto_mops", "cm_mops", "redis_mops");
    for (const int cores : {1, 2, 4, 8, 16, 32}) {
      std::printf("%-8d", cores);
      for (const char* system : {"ditto", "cm-lru"}) {
        const sim::RunResult r = bench::RunSystem(bench::ParseSystem(system), trace,
                                                  bench::MakePoolConfig(keys * 2, cores),
                                                  clients, options, /*preload=*/true);
        std::printf(" %12.3f", r.throughput_mops);
      }
      baselines::RedisModelConfig redis_config;
      redis_config.initial_shards = cores;
      redis_config.num_keys = keys;
      baselines::RedisModel redis(redis_config);
      std::printf(" %12.3f\n", redis.SteadyThroughputMops(cores));
    }
  }
  std::printf("\n# expected shape: Ditto flat; CliqueMap scales with cores; Redis bounded\n"
              "# by its hottest shard under the zipfian skew.\n");
  return 0;
}
