// Cluster lifecycle: hit-rate recovery after a 1-of-4 node crash, warm re-join
// after a scheduled restart, and the cost of planned join/leave key migration.
//
// Three experiments over the same YCSB-C trace:
//   crash     one of four nodes crashes at 50% of the measured replay. The
//             retrying cluster client keeps serving (survivors absorb the
//             crashed node's capacity share); the windowed hit-rate trajectory
//             is compared against a cold-restart LRU oracle — the monolithic
//             cluster whose cache rebuilds empty on ANY membership change.
//   rejoin    the node crashes at 40% and a scheduled restart re-joins it
//             (wiped cold) at 70%; survivors migrate its keys back, so the
//             rejoin recovers hit rate instead of re-cratering it.
//   migrate   a planned leave drains a healthy node through the checksummed
//             chunk-wise migration path, then a join pulls the keys back. The
//             measured virtual-time cost is priced against what moving the
//             same keys costs CliqueMap (per-key RPC SET on the destination
//             MN CPUs) and the Redis migration model (RESTORE-rate bound at
//             migration_keys_per_s_per_shard).
//
// recovery_ops is the bench's headline robustness metric: ops after the fault
// until the windowed hit rate returns to 99% of the pre-fault mean
// (0 = recovered within the fault window itself; the full post-fault op count
// when the run never recovers).
//
// Flags: --keys=N --requests=N --capacity=N --nodes=N (2-64) --clients=N
//        --window=N
#include <cstdio>

#include "baselines/cliquemap.h"
#include "baselines/redis_model.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"capacity", "clients", "keys", "nodes", "requests", "window"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 20000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);
  const uint64_t capacity = flags.GetInt<uint64_t>("capacity", 5000, 1, bench::kMaxCount);
  // At least two nodes: one of them crashes.
  const int nodes = flags.GetInt<int>("nodes", 4, 2, bench::kMaxNodes);
  const int clients = flags.GetInt<int>("clients", 4, 1, bench::kMaxClients);
  const size_t window = flags.GetInt<size_t>("window", 2000, 1, bench::kMaxCount);
  const uint32_t victim = static_cast<uint32_t>(nodes - 1);

  bench::PrintHeader("cluster-lifecycle",
                     "hit-rate recovery after a 1-of-4 crash, warm re-join, and "
                     "join/leave migration cost");

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';  // pure Get: replay windows align 1:1 with the oracle's
  ycsb.num_keys = keys;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, /*seed=*/13);

  core::ClusterConfig cluster_config;
  cluster_config.nodes = nodes;
  cluster_config.pool = bench::MakePoolConfig(capacity / static_cast<uint64_t>(nodes));
  cluster_config.ditto.experts = {"lru", "lfu"};

  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  // The resize step at fraction 0 pins the aggregate capacity so survivors
  // absorb a departed node's share when the lifecycle re-splits it.
  options.resize_schedule = {{0.0, capacity}};
  options.recovery_window_ops = window;

  const size_t measure_begin =
      static_cast<size_t>(options.warmup_fraction * static_cast<double>(trace.size()));
  const auto window_of = [&](double fraction) {
    return (sim::ResizeStepIndex(fraction, measure_begin, trace.size()) - measure_begin) /
           window;
  };

  // --- crash: 1 of `nodes` at 50% ------------------------------------------
  options.lifecycle_schedule = {{0.5, sim::LifecycleKind::kCrash, victim}};
  bench::ClusterDeployment crash_d = bench::MakeCluster(cluster_config, clients);
  const sim::RunResult crash_r = sim::RunTrace(crash_d.raw, trace, crash_d.nodes, options);

  const std::vector<sim::RecoverySample> cold =
      sim::ReplayExact(trace, policy::PrecisePolicyKind::kLru, capacity, options).recovery;

  const size_t crash_w = window_of(0.5);
  const double pre_ditto = sim::MeanHitRate(crash_r.recovery, 0, crash_w);
  const double pre_cold = sim::MeanHitRate(cold, 0, crash_w);
  const uint64_t rec_ditto = sim::RecoveryOps(crash_r.recovery, crash_w, 0.99 * pre_ditto);
  const uint64_t rec_cold = sim::RecoveryOps(cold, crash_w, 0.99 * pre_cold);
  const double post_ditto =
      sim::MeanHitRate(crash_r.recovery, crash_w, crash_r.recovery.size());
  const double post_cold = sim::MeanHitRate(cold, crash_w, cold.size());

  std::printf("# keys=%llu requests=%llu nodes=%d clients=%d capacity=%llu window=%zu\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(requests), nodes, clients,
              static_cast<unsigned long long>(capacity), window);
  std::printf("# crash: node %u at 50%% of the measured replay (window %zu)\n",
              victim, crash_w);
  std::printf("%-8s %10s %10s\n", "window", "ditto", "lru_cold");
  for (size_t w = 0; w < crash_r.recovery.size(); ++w) {
    std::printf("%-8zu %10.4f %10.4f\n", w, crash_r.recovery[w].HitRate(),
                w < cold.size() ? cold[w].HitRate() : 0.0);
  }
  std::printf("\n# crash recovery: ditto %llu ops vs cold-restart LRU %llu ops "
              "(to 99%% of pre-crash %.4f / %.4f)\n",
              static_cast<unsigned long long>(rec_ditto),
              static_cast<unsigned long long>(rec_cold), pre_ditto, pre_cold);
  std::printf("# post-crash mean hit rate: ditto %.4f vs cold-restart %.4f\n",
              post_ditto, post_cold);

  // --- rejoin: crash at 40%, scheduled restart at 70% ----------------------
  options.lifecycle_schedule = {{0.4, sim::LifecycleKind::kCrash, victim},
                                {0.7, sim::LifecycleKind::kRestart, victim}};
  bench::ClusterDeployment rejoin_d = bench::MakeCluster(cluster_config, clients);
  const sim::RunResult rejoin_r =
      sim::RunTrace(rejoin_d.raw, trace, rejoin_d.nodes, options);

  const size_t rejoin_w = window_of(0.7);
  const double pre_rejoin = sim::MeanHitRate(rejoin_r.recovery, 0, window_of(0.4));
  const uint64_t rec_rejoin =
      sim::RecoveryOps(rejoin_r.recovery, rejoin_w, 0.99 * pre_rejoin);
  const double tail_rejoin =
      sim::MeanHitRate(rejoin_r.recovery, rejoin_w, rejoin_r.recovery.size());
  std::printf("\n# rejoin: crash@40%% restart@70%%; after the re-join the hit rate is "
              "back to 99%% of\n# pre-crash (%.4f) within %llu ops; post-rejoin mean "
              "%.4f; %llu keys migrated back\n",
              pre_rejoin, static_cast<unsigned long long>(rec_rejoin), tail_rejoin,
              static_cast<unsigned long long>(rejoin_d.pool->migrated_objects()));

  // --- migrate: planned leave + join, priced vs baselines ------------------
  bench::ClusterDeployment mig_d = bench::MakeCluster(cluster_config, 1);
  bench::Preload(mig_d.raw, trace, options.value_bytes);
  core::ClusterClient& mig = mig_d.clients[0]->cluster();
  VirtualClock& mig_clock = mig_d.ctxs[0]->clock();

  const uint64_t leave_begin_ns = mig_clock.busy_ns();
  mig.ApplyLeave(victim);
  const double leave_s =
      static_cast<double>(mig_clock.busy_ns() - leave_begin_ns) / 1e9;
  const uint64_t moved_leave = mig_d.pool->migrated_objects();

  const uint64_t join_begin_ns = mig_clock.busy_ns();
  mig.ApplyJoin(victim);
  const double join_s = static_cast<double>(mig_clock.busy_ns() - join_begin_ns) / 1e9;
  const uint64_t moved_join = mig_d.pool->migrated_objects() - moved_leave;

  // CliqueMap re-homes a key with one RPC SET on the destination MN CPU
  // (request parse + structure maintenance), migration parallel over the
  // destination nodes; Redis moves keys at the RESTORE-bound per-shard rate.
  const rdma::CostModel cost;
  const double cm_leave_s = static_cast<double>(moved_leave) *
                            (cost.rpc_service_us + baselines::kCmSetServiceUs) / 1e6 /
                            static_cast<double>(nodes - 1);
  baselines::RedisModelConfig redis_config;
  redis_config.initial_shards = nodes;
  redis_config.num_keys = mig_d.pool->cached_objects() + moved_leave;
  baselines::RedisModel redis(redis_config);
  redis.Resize(nodes - 1);
  const double redis_leave_s = redis.migration_remaining_s();

  std::printf("\n# migrate: leave drains %llu keys in %.3f s virtual (%.3f Mkeys/s); "
              "join pulls %llu back in %.3f s\n",
              static_cast<unsigned long long>(moved_leave), leave_s,
              leave_s > 0.0 ? static_cast<double>(moved_leave) / (leave_s * 1e6) : 0.0,
              static_cast<unsigned long long>(moved_join), join_s);
  std::printf("# same leave priced on baselines: cliquemap %.3f s (per-key RPC SET on "
              "%d MN cores),\n# redis %.1f s (RESTORE-bound at %.0f keys/s/shard)\n",
              cm_leave_s, nodes - 1, redis_leave_s,
              redis_config.migration_keys_per_s_per_shard);

  bench::EmitBenchJson("cluster", "ditto-crash", crash_r, rec_ditto);
  {
    sim::RunResult oracle_row;
    oracle_row.ops = crash_r.ops;
    oracle_row.hit_rate = post_cold;
    bench::EmitBenchJson("cluster", "oracle-cold", oracle_row, rec_cold);
  }
  bench::EmitBenchJson("cluster", "ditto-rejoin", rejoin_r, rec_rejoin);
  {
    sim::RunResult mig_row;
    mig_row.ops = moved_leave + moved_join;
    mig_row.throughput_mops =
        leave_s + join_s > 0.0
            ? static_cast<double>(moved_leave + moved_join) / ((leave_s + join_s) * 1e6)
            : 0.0;
    bench::EmitBenchJson("cluster", "migrate-leave-join", mig_row, 0);
  }

  std::printf("\n# expected shape: ditto's post-crash windows dip then climb back while "
              "lru_cold\n# restarts from zero, so ditto's recovery_ops and post-crash "
              "mean strictly beat the\n# oracle; the rejoin run recovers to the "
              "pre-crash level after the restart window.\n");
  return 0;
}
