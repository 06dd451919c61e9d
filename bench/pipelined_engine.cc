// Op-pipeline engine bench: sweeps the per-client pipeline depth
// (RunOptions::pipeline_depth) and reports simulated throughput, latency,
// and hit rate at each depth.
//
// Depth 1 is blocking replay — every signalled verb charges a full RTT
// before the next issues, capping a client at ~1/RTT ops. Depth K keeps K
// independent ops in flight per client, each on its own detached timeline
// (rdma::Verbs::BeginOp): ops still execute (and mutate cache state) in
// issue order, so the hit rate is bit-identical at every depth, while the
// verb latencies overlap and throughput scales until the NIC message rate
// (or the op mix's inherent dependency chain) binds. The sweep prints the speedup
// over depth 1 and asserts hit-rate invariance.
//
// Flags:
//   --keys=N       key-space size                       (default 16384)
//   --requests=N   trace length                         (default 400000)
//   --clients=N    concurrent clients on one pool       (default 4)
//   --depth=N      fix the sweep to one depth           (default 1,2,4,8,16,32)
//   --workload=X   YCSB core workload                   (default C)
//   --theta=F      zipfian skew                         (default 0.99)
//   --penalty=F    miss penalty in us                   (default 0)
//   --seed=N       trace seed                           (default 42)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"clients", "depth", "keys", "penalty", "requests", "seed", "theta", "workload"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 16384, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 400000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 4, 1, bench::kMaxClients);
  const uint64_t seed = flags.GetInt<uint64_t>("seed", 42, 0, UINT64_MAX);
  const std::string workload_name = flags.GetString("workload", "C");
  const double theta = flags.GetDouble("theta", 0.99);
  const double penalty_us = flags.GetDouble("penalty", 0.0);
  const uint64_t capacity = std::max<uint64_t>(1, keys / 4);

  std::vector<size_t> depths = {1, 2, 4, 8, 16, 32};
  if (flags.Has("depth")) {
    depths = {flags.GetInt<size_t>("depth", 1, 1, bench::kMaxBatch)};
  }

  bench::PrintHeader("pipelined_engine",
                     "op pipeline: K in-flight ops per client");
  std::printf("# workload=%s theta=%.2f keys=%llu requests=%llu clients=%d capacity=%llu\n",
              workload_name.c_str(), theta, static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(requests), clients,
              static_cast<unsigned long long>(capacity));

  workload::YcsbConfig ycsb;
  ycsb.num_keys = keys;
  ycsb.zipf_theta = theta;
  const workload::Trace trace =
      bench::MakeYcsbTraceOrExit("pipelined_engine", workload_name, &ycsb, requests, seed);

  std::printf("%-8s %10s %9s %8s %9s %9s %12s\n", "depth", "tput_mops", "speedup", "hit_pct",
              "p50_us", "p99_us", "nic_msgs");
  double base_tput = 0.0;
  double base_hit = -1.0;
  bool hit_invariant = true;
  for (const size_t depth : depths) {
    // Fresh deployment per depth: identical cold-start state, so any hit-rate
    // difference across rows could only come from the pipeline itself.
    core::DittoConfig config;
    config.experts = {"lru", "lfu"};
    bench::DittoDeployment d =
        bench::MakeDitto(bench::MakePoolConfig(capacity), config, clients);

    sim::RunOptions options;
    options.warmup_fraction = 0.2;
    options.miss_penalty_us = penalty_us;
    options.pipeline_depth = depth;
    const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

    if (base_hit < 0.0) {
      base_tput = r.throughput_mops;
      base_hit = r.hit_rate;
    } else if (std::abs(r.hit_rate - base_hit) > 1e-12) {
      hit_invariant = false;
    }
    const double speedup = base_tput > 0.0 ? r.throughput_mops / base_tput : 0.0;
    std::printf("%-8zu %10.3f %8.2fx %8.3f %9.2f %9.2f %12llu\n", depth, r.throughput_mops,
                speedup, r.hit_rate * 100.0, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.nic_messages));
    char label[64];
    std::snprintf(label, sizeof(label), "depth=%zu clients=%d", depth, clients);
    bench::EmitBenchJson("pipeline", label, r);
  }
  if (!hit_invariant) {
    std::printf("ERROR: hit rate varied across pipeline depths\n");
    return 1;
  }
  std::printf("# hit rate identical across all depths (pipelining overlaps time, not state)\n");
  return 0;
}
