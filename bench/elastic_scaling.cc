// Elastic scaling: hit-rate trajectory under a shrink -> hold -> expand
// resize schedule (the paper's defining scenario, Figures 13/22 family).
//
// Three systems absorb the same capacity schedule over the same trace:
//   ditto      Ditto clients observe the kRpcResize'd capacity and evict
//              down with the sampled multi-expert path; expansion takes
//              effect on the next admission.
//   lru-warm   precise LRU whose structure survives the resize (the best a
//              warm cache can do; upper bound).
//   lru-cold   precise LRU that COLD-RESTARTS at every scale event — the
//              monolithic-cluster behaviour, where a scale event rebuilds
//              the node set and the cache starts empty.
// The Redis migration model then prices the identical capacity change on a
// monolithic sharded cluster: minutes of key migration before the new
// capacity takes effect, with a throughput dip and p99 bump meanwhile.
//
// Flags: --keys=N --requests=N --capacity=N --shrink_num=N/--shrink_den=N
//        --clients=N
#include <cstdio>

#include "baselines/redis_model.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"capacity", "clients", "keys", "requests", "shrink_den", "shrink_num"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 20000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);
  const uint64_t capacity = flags.GetInt<uint64_t>("capacity", 5000, 1, bench::kMaxCount);
  const uint64_t shrunk = capacity * flags.GetInt<uint64_t>("shrink_num", 1, 1, 1024) /
                          flags.GetInt<uint64_t>("shrink_den", 3, 1, 1024);
  const int clients = flags.GetInt<int>("clients", 8, 1, bench::kMaxClients);

  bench::PrintHeader("elastic-scaling",
                     "hit-rate trajectory under a shrink -> hold -> expand capacity schedule");

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = keys;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, /*seed=*/13);

  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  options.resize_schedule = {{0.25, shrunk}, {0.625, capacity}};

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  bench::DittoDeployment d = bench::MakeDitto(bench::MakePoolConfig(capacity), config, clients);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

  const std::vector<sim::PhaseResult> warm =
      sim::ReplayExact(trace, policy::PrecisePolicyKind::kLru, capacity, options).phases;
  const std::vector<sim::PhaseResult> cold =
      sim::ReplayExact(trace, policy::PrecisePolicyKind::kLru, capacity, options,
                       /*num_clients=*/1, /*cold_restart=*/true)
          .phases;

  std::printf("# keys=%llu requests=%llu clients=%d schedule: %llu -> %llu -> %llu objects\n",
              static_cast<unsigned long long>(keys), static_cast<unsigned long long>(requests),
              clients, static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(shrunk),
              static_cast<unsigned long long>(capacity));
  std::printf("%-10s %10s %10s %10s %10s\n", "phase", "capacity", "ditto", "lru_warm",
              "lru_cold");
  const char* names[] = {"steady", "shrink", "expand"};
  for (size_t p = 0; p < r.phases.size(); ++p) {
    const uint64_t cap = p == 0 ? capacity : r.phases[p].capacity_objects;
    std::printf("%-10s %10llu %10.4f %10.4f %10.4f\n", p < 3 ? names[p] : "?",
                static_cast<unsigned long long>(cap), r.phases[p].hit_rate, warm[p].hit_rate,
                cold[p].hit_rate);
  }

  const double ditto_drop = r.phases[0].hit_rate - r.phases[1].hit_rate;
  const double cold_drop = cold[0].hit_rate - cold[1].hit_rate;
  std::printf("\n# shrink cost (hit-rate drop): ditto %.4f vs cold-restart LRU %.4f\n",
              ditto_drop, cold_drop);

  // What the same shrink+expand costs a monolithic sharded cluster: key
  // migration at a bounded rate before any capacity change takes effect.
  baselines::RedisModelConfig redis_config;
  baselines::RedisModel redis(redis_config);
  const uint64_t per_shard = redis_config.num_keys / redis_config.initial_shards;
  redis.ResizeToCapacityObjects(redis_config.num_keys * shrunk / capacity, per_shard);
  const double migration_min = redis.migration_remaining_s() / 60.0;
  const baselines::RedisSample during = redis.Tick(1.0);
  std::printf("# redis-migration: the shrink reshards for %.1f min before reclaiming memory;\n"
              "# meanwhile tput dips to %.2f Mops and p99 rises to %.0f us. Ditto's resize\n"
              "# is one 8-byte controller RPC plus client-side eviction.\n",
              migration_min, during.throughput_mops, during.p99_us);

  bench::EmitBenchJson("elastic_scaling", "ditto", r);
  std::printf("\n# expected shape: ditto's shrink column drops less than lru_cold at equal\n"
              "# capacity, and the expand phase recovers toward the steady phase.\n");
  return 0;
}
