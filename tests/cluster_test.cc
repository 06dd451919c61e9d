// Cluster lifecycle and fault-injection pins.
//
// The load-bearing guarantees:
//   * With an empty FaultPlan and stable membership, the cluster client is
//     BIT-IDENTICAL to ShardedDittoClient — same hits, verb counts, NIC
//     messages, and virtual-time accounting — so the fault layer is free
//     until something actually fails.
//   * A fixed fault seed makes whole runs reproducible: identical seeds give
//     identical recovery trajectories, counter for counter.
//   * Crashing 1 of 4 nodes mid-replay never stops service, and the windowed
//     hit-rate recovery strictly beats the cold-restart LRU oracle (the
//     monolithic cluster that rebuilds empty on any membership change).
//   * A scheduled restart re-joins the wiped node and recovers the hit rate
//     (survivors migrate its keys back).
//   * Live migration racing 8 genuinely concurrent clients is safe: ops are
//     never lost, only (at worst) degraded to misses. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/sharded_client.h"
#include "sim/adapters.h"
#include "sim/elastic_oracle.h"
#include "sim/runner.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

constexpr int kNodes = 4;
constexpr uint64_t kPartitionSeed = 1;

dm::PoolConfig PerNodePool(uint64_t capacity_objects) {
  dm::PoolConfig config;
  config.memory_bytes = 32 << 20;
  config.num_buckets = 2048;
  config.capacity_objects = capacity_objects;
  return config;  // cost model enabled: time accounting is part of the pins
}

struct ClusterDeployment {
  explicit ClusterDeployment(const core::ClusterConfig& config, int num_clients) {
    pool = std::make_unique<core::ClusterPool>(config);
    for (int i = 0; i < num_clients; ++i) {
      ctxs.push_back(std::make_unique<rdma::ClientContext>(static_cast<uint32_t>(i)));
      clients.push_back(std::make_unique<sim::ClusterCacheClient>(pool.get(),
                                                                  ctxs.back().get(),
                                                                  config.ditto));
      raw.push_back(clients.back().get());
    }
    for (int i = 0; i < pool->num_nodes(); ++i) {
      nodes.push_back(&pool->node(i).node());
    }
  }

  std::unique_ptr<core::ClusterPool> pool;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::ClusterCacheClient>> clients;
  std::vector<sim::CacheClient*> raw;
  std::vector<rdma::RemoteNode*> nodes;
};

core::ClusterConfig TestClusterConfig(uint64_t per_node_capacity) {
  core::ClusterConfig config;
  config.nodes = kNodes;
  config.partition_seed = kPartitionSeed;
  config.pool = PerNodePool(per_node_capacity);
  return config;
}

workload::Trace MixedTrace(uint64_t requests) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 4096;
  workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, /*seed=*/21);
  workload::OpMix mix;
  mix.delete_fraction = 0.03;
  mix.expire_fraction = 0.03;
  mix.multiget_fraction = 0.15;
  workload::ApplyOpMix(&trace, mix);
  return trace;
}

workload::Trace GetTrace(uint64_t requests) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 8192;
  return workload::MakeYcsbTrace(ycsb, requests, /*seed=*/13);
}

void ExpectIdenticalResults(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.sets, b.sets);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.nic_messages, b.nic_messages);
  EXPECT_EQ(a.nic_doorbells, b.nic_doorbells);
  EXPECT_EQ(a.rpc_ops, b.rpc_ops);
  EXPECT_EQ(a.cas_failures, b.cas_failures);
  EXPECT_EQ(a.insert_retries, b.insert_retries);
  EXPECT_DOUBLE_EQ(a.hit_rate, b.hit_rate);
  EXPECT_DOUBLE_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_DOUBLE_EQ(a.throughput_mops, b.throughput_mops);
  EXPECT_DOUBLE_EQ(a.p50_us, b.p50_us);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
}

double MeanHitRate(const std::vector<sim::RecoverySample>& windows, size_t begin,
                   size_t end) {
  uint64_t gets = 0;
  uint64_t hits = 0;
  for (size_t i = begin; i < end && i < windows.size(); ++i) {
    gets += windows[i].gets;
    hits += windows[i].hits;
  }
  return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
}

uint64_t RecoveryOps(const std::vector<sim::RecoverySample>& windows, size_t fault_window,
                     double target) {
  uint64_t ops = 0;
  for (size_t i = fault_window; i < windows.size(); ++i) {
    if (windows[i].HitRate() >= target) {
      return ops;
    }
    ops += windows[i].gets;
  }
  return ops;
}

// With an empty FaultPlan and stable membership, a ClusterPool deployment
// must be indistinguishable — op for op, verb for verb, nanosecond for
// nanosecond — from the pre-existing ShardedPool deployment it generalizes.
TEST(ClusterFaultFreeTest, BitIdenticalToShardedClient) {
  const workload::Trace trace = MixedTrace(40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 100.0;

  core::ShardedPool sharded_pool(PerNodePool(512), kNodes, kPartitionSeed);
  std::vector<std::unique_ptr<core::DittoServer>> sharded_servers;
  std::vector<std::unique_ptr<rdma::ClientContext>> sharded_ctxs;
  std::vector<std::unique_ptr<sim::ShardedDittoCacheClient>> sharded_clients;
  std::vector<sim::CacheClient*> sharded_raw;
  std::vector<rdma::RemoteNode*> sharded_nodes;
  core::DittoConfig ditto_config;
  for (int i = 0; i < kNodes; ++i) {
    sharded_servers.push_back(
        std::make_unique<core::DittoServer>(&sharded_pool.node(i), ditto_config));
  }
  for (int i = 0; i < 2; ++i) {
    sharded_ctxs.push_back(std::make_unique<rdma::ClientContext>(static_cast<uint32_t>(i)));
    sharded_clients.push_back(std::make_unique<sim::ShardedDittoCacheClient>(
        &sharded_pool, sharded_ctxs.back().get(), ditto_config));
    sharded_raw.push_back(sharded_clients.back().get());
  }
  for (int i = 0; i < kNodes; ++i) {
    sharded_nodes.push_back(&sharded_pool.node(i).node());
  }
  const sim::RunResult sharded = sim::RunTrace(sharded_raw, trace, sharded_nodes, options);

  ClusterDeployment cluster(TestClusterConfig(512), 2);
  const sim::RunResult clustered = sim::RunTrace(cluster.raw, trace, cluster.nodes, options);

  ExpectIdenticalResults(sharded, clustered);
  EXPECT_GT(clustered.hits, 0u);
  EXPECT_EQ(cluster.pool->migrated_objects(), 0u);
}

// A fixed fault seed pins the whole run: rerunning the identical deployment,
// schedule, and probabilistic fault plan reproduces the recovery trajectory
// (and every aggregate counter) exactly.
TEST(ClusterFaultSeedTest, IdenticalSeedsIdenticalRecoveryTrajectories) {
  const workload::Trace trace = GetTrace(40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 100.0;
  options.recovery_window_ops = 1000;
  options.resize_schedule = {{0.0, uint64_t{2048}}};
  options.lifecycle_schedule = {{0.5, sim::LifecycleKind::kCrash, kNodes - 1}};

  core::ClusterConfig config = TestClusterConfig(512);
  config.fault.seed = 7;
  config.fault.verb_timeout_prob = 0.001;
  config.fault.rpc_drop_prob = 0.0005;

  ClusterDeployment first(config, 2);
  const sim::RunResult a = sim::RunTrace(first.raw, trace, first.nodes, options);
  ClusterDeployment second(config, 2);
  const sim::RunResult b = sim::RunTrace(second.raw, trace, second.nodes, options);

  ExpectIdenticalResults(a, b);
  ASSERT_EQ(a.recovery.size(), b.recovery.size());
  ASSERT_GT(a.recovery.size(), 0u);
  for (size_t i = 0; i < a.recovery.size(); ++i) {
    EXPECT_EQ(a.recovery[i].gets, b.recovery[i].gets) << "window " << i;
    EXPECT_EQ(a.recovery[i].hits, b.recovery[i].hits) << "window " << i;
  }
}

// Crash 1 of 4 nodes at 50% of the measured replay: the client keeps serving
// every request, and the windowed post-crash trajectory strictly beats the
// cold-restart LRU oracle on both recovery speed and mean hit rate.
TEST(ClusterCrashTest, RecoveryBeatsColdRestartOracle) {
  const workload::Trace trace = GetTrace(60000);
  const uint64_t capacity = 2048;
  const size_t window = 1000;
  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 100.0;
  options.recovery_window_ops = window;
  options.resize_schedule = {{0.0, capacity}};
  options.lifecycle_schedule = {{0.5, sim::LifecycleKind::kCrash, kNodes - 1}};

  ClusterDeployment d(TestClusterConfig(capacity / kNodes), 2);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

  const size_t measure_begin = trace.size() / 5;
  // Every measured request was served (no hang, no drop) even though a
  // quarter of the cluster vanished mid-replay.
  EXPECT_EQ(r.ops, trace.size() - measure_begin);
  EXPECT_EQ(r.gets, r.hits + r.misses);

  const std::vector<sim::RecoverySample> cold = sim::ReplayRecoveryOracle(
      trace, measure_begin, options.lifecycle_schedule, capacity, window);
  ASSERT_EQ(r.recovery.size(), cold.size());

  const size_t crash_window =
      (sim::ResizeStepIndex(0.5, measure_begin, trace.size()) - measure_begin) / window;
  const double pre_ditto = MeanHitRate(r.recovery, 0, crash_window);
  const double pre_cold = MeanHitRate(cold, 0, crash_window);
  const double post_ditto = MeanHitRate(r.recovery, crash_window, r.recovery.size());
  const double post_cold = MeanHitRate(cold, crash_window, cold.size());
  EXPECT_GT(pre_ditto, 0.5);
  // Losing 1/4 of the keys strictly beats losing all of them.
  EXPECT_GT(post_ditto, post_cold);
  const uint64_t rec_ditto = RecoveryOps(r.recovery, crash_window, 0.99 * pre_ditto);
  const uint64_t rec_cold = RecoveryOps(cold, crash_window, 0.99 * pre_cold);
  EXPECT_LT(rec_ditto, rec_cold);
}

// A scheduled restart re-joins the wiped node: survivors migrate its keys
// back and the tail of the run recovers to the pre-crash hit rate.
TEST(ClusterCrashTest, RejoinRecoversHitRate) {
  const workload::Trace trace = GetTrace(60000);
  const uint64_t capacity = 2048;
  const size_t window = 1000;
  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 100.0;
  options.recovery_window_ops = window;
  options.resize_schedule = {{0.0, capacity}};
  options.lifecycle_schedule = {{0.4, sim::LifecycleKind::kCrash, kNodes - 1},
                                {0.7, sim::LifecycleKind::kRestart, kNodes - 1}};

  ClusterDeployment d(TestClusterConfig(capacity / kNodes), 2);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

  const size_t measure_begin = trace.size() / 5;
  EXPECT_EQ(r.ops, trace.size() - measure_begin);

  const size_t crash_window =
      (sim::ResizeStepIndex(0.4, measure_begin, trace.size()) - measure_begin) / window;
  const size_t rejoin_window =
      (sim::ResizeStepIndex(0.7, measure_begin, trace.size()) - measure_begin) / window;
  const double pre_crash = MeanHitRate(r.recovery, 0, crash_window);
  const double tail = MeanHitRate(r.recovery, rejoin_window + 1, r.recovery.size());
  EXPECT_GT(pre_crash, 0.5);
  EXPECT_GE(tail, 0.98 * pre_crash);
  // The restart migrated keys back into the re-joined node.
  EXPECT_GT(d.pool->migrated_objects(), 0u);
  EXPECT_TRUE(d.pool->IsLive(kNodes - 1));
}

// With every node crashed, each op kind reports kUnavailable — never a plain
// miss/not-found/drop — whichever entry point issues it: the blocking batch
// path and the completion-queue pipelined path share one dispatch.
TEST(ClusterCrashTest, AllNodesCrashedReportsUnavailableOnEveryPath) {
  core::ClusterConfig config = TestClusterConfig(512);
  config.nodes = 2;
  ClusterDeployment d(config, 1);
  sim::CacheClient* client = d.raw[0];
  ASSERT_TRUE(client->Set("k", "v"));
  d.pool->Crash(0);
  d.pool->Crash(1);

  const sim::CacheOp ops[] = {sim::CacheOp::Get("k"), sim::CacheOp::Set("k", "v"),
                              sim::CacheOp::Delete("k"), sim::CacheOp::Expire("k", 5)};
  for (const sim::CacheOp& op : ops) {
    sim::CacheResult batched;
    client->ExecuteBatch({&op, 1}, &batched);
    EXPECT_EQ(batched.status, sim::OpStatus::kUnavailable)
        << "ExecuteBatch, op kind " << static_cast<int>(op.kind);
    sim::CacheResult pipelined;
    const uint64_t start_ns = client->ctx().clock().busy_ns();
    const uint64_t complete_ns = client->ExecutePipelined(op, &pipelined, start_ns);
    EXPECT_GE(complete_ns, start_ns);
    EXPECT_EQ(pipelined.status, sim::OpStatus::kUnavailable)
        << "ExecutePipelined, op kind " << static_cast<int>(op.kind);
    client->ctx().clock().AdvanceToNs(complete_ns);
  }
}

// Live migration racing 8 genuinely concurrent clients (TSan-checked in CI):
// a planned leave drains a node while the other clients keep hammering the
// shared pools, the node joins back, and late in the run another node
// crashes. No op may be lost or double-counted — at worst a racing op
// degrades to a miss or an unavailability, never a wrong value.
TEST(ClusterContendedTest, MigrationRacesEightClientsSafely) {
  const workload::Trace trace = GetTrace(40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.1;
  options.miss_penalty_us = 100.0;
  options.lifecycle_schedule = {{0.3, sim::LifecycleKind::kLeave, 1},
                                {0.55, sim::LifecycleKind::kJoin, 1},
                                {0.8, sim::LifecycleKind::kCrash, 2}};

  core::ClusterConfig config = TestClusterConfig(512);
  config.ditto.validate_inserts = true;
  ClusterDeployment d(config, 8);
  const sim::RunResult r = sim::RunTraceContended(d.raw, trace, d.nodes, options);

  const size_t measure_begin = trace.size() / 10;
  EXPECT_EQ(r.ops, trace.size() - measure_begin);
  EXPECT_EQ(r.gets, r.hits + r.misses);
  EXPECT_GT(r.hits, 0u);
  // The leave drained node 1's keys while traffic raced the sweep.
  EXPECT_GT(d.pool->migrated_objects(), 0u);
  EXPECT_TRUE(d.pool->IsLive(1));
  EXPECT_FALSE(d.pool->IsLive(2));
}

}  // namespace
}  // namespace ditto
