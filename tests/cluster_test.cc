// Multi-memory-node deployment, hash ring, lifecycle, and fault-injection
// pins.
//
// The load-bearing guarantees:
//   * Keys spread over every node of the ring (up to kMaxRingNodes), and a
//     membership swap moves only the affected node's keys.
//   * The cluster client routes single-key ops and each key of a multi-get to
//     the owning node, enforces per-node capacity, aggregates per-node
//     statistics, and scales throughput with the pool's aggregate NIC
//     message rate.
//   * With an empty FaultPlan and stable membership, a cluster run is
//     BIT-IDENTICAL to a recorded fault-free run — same hits, verb counts,
//     NIC messages, and virtual-time accounting — so the fault layer is free
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
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "core/cluster.h"
#include "core/ring.h"
#include "sim/adapters.h"
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

// --- Hash ring ---------------------------------------------------------------

std::vector<int> Owners(const core::HashRing& ring, int keys) {
  std::vector<int> owners;
  owners.reserve(static_cast<size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    owners.push_back(ring.NodeFor(HashKey("key-" + std::to_string(i))));
  }
  return owners;
}

TEST(HashRingTest, RoutingIsDeterministicAndCovered) {
  const core::HashRing ring(4, kPartitionSeed);
  const std::vector<int> owners = Owners(ring, 10000);
  EXPECT_EQ(owners, Owners(ring, 10000));
  int seen[4] = {0, 0, 0, 0};
  for (const int node : owners) {
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 4);
    seen[node]++;
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(seen[n], 1800) << "hash routing must spread keys roughly evenly";
  }
}

TEST(HashRingTest, SwapRemoveMovesOnlyThatNodesKeys) {
  core::HashRing ring(4, kPartitionSeed);
  const std::vector<int> before = Owners(ring, 10000);
  ring.SwapRemove(2);
  const std::vector<int> after = Owners(ring, 10000);
  int moved = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] == 2) {
      EXPECT_NE(after[i], 2) << "key " << i;
      EXPECT_GE(after[i], 0) << "key " << i;
      ++moved;
    } else {
      EXPECT_EQ(after[i], before[i]) << "key " << i;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, SwapAddRestoresOriginalPlacement) {
  core::HashRing ring(4, kPartitionSeed);
  const std::vector<int> original = Owners(ring, 10000);
  ring.SwapRemove(1);
  ring.SwapAdd(1);
  EXPECT_EQ(Owners(ring, 10000), original);
}

TEST(HashRingTest, EpochIncreasesOnEverySwap) {
  core::HashRing ring(4, kPartitionSeed);
  EXPECT_EQ(ring.epoch(), 0u);
  EXPECT_EQ(ring.SwapRemove(3), 1u);
  EXPECT_EQ(ring.epoch(), 1u);
  EXPECT_EQ(ring.SwapRemove(0), 2u);
  EXPECT_EQ(ring.SwapAdd(3), 3u);
  EXPECT_EQ(ring.epoch(), 3u);
}

// The largest ring: every one of kMaxRingNodes nodes owns keys, both in the
// bare ring and through a ClusterClient, and the highest node id can leave
// and rejoin.
TEST(HashRingTest, MaxNodesAllReachable) {
  constexpr int kMax = static_cast<int>(core::kMaxRingNodes);
  core::HashRing ring(core::kMaxRingNodes, kPartitionSeed);
  std::vector<int> keys_per_node(kMax, 0);
  for (const int node : Owners(ring, 100000)) {
    ASSERT_GE(node, 0);
    ASSERT_LT(node, kMax);
    keys_per_node[static_cast<size_t>(node)]++;
  }
  for (int n = 0; n < kMax; ++n) {
    EXPECT_GT(keys_per_node[static_cast<size_t>(n)], 0) << "node " << n;
  }
  ring.SwapRemove(kMax - 1);
  EXPECT_FALSE(ring.current()->IsLive(kMax - 1));
  ring.SwapAdd(kMax - 1);
  EXPECT_TRUE(ring.current()->IsLive(kMax - 1));

  core::ClusterConfig config;
  config.nodes = kMax;
  config.pool.memory_bytes = 1 << 20;
  config.pool.num_buckets = 64;
  config.pool.capacity_objects = 200;
  config.pool.cost = rdma::CostModel::Disabled();
  core::ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(client.Set("key-" + std::to_string(i), "v")) << i;
  }
  for (int n = 0; n < kMax; ++n) {
    EXPECT_GT(pool.node(n).cached_objects(), 0u) << "node " << n;
  }
}

TEST(HashRingTest, RejectsOutOfRangeNodeCounts) {
  EXPECT_THROW(core::HashRing(0, kPartitionSeed), std::invalid_argument);
  EXPECT_THROW(core::HashRing(core::kMaxRingNodes + 1, kPartitionSeed), std::invalid_argument);
  core::HashRing ring(core::kMaxRingNodes, kPartitionSeed);
  EXPECT_THROW(ring.SwapAdd(core::kMaxRingNodes), std::out_of_range);
  EXPECT_EQ(ring.epoch(), 0u);
  core::ClusterConfig config = TestClusterConfig(64);
  for (const int nodes : {0, static_cast<int>(core::kMaxRingNodes) + 1}) {
    config.nodes = nodes;
    EXPECT_THROW(core::ClusterPool{config}, std::invalid_argument) << "nodes=" << nodes;
  }
}

// --- Cluster client routing and aggregation ----------------------------------

dm::PoolConfig UncostedNode(uint64_t capacity) {
  dm::PoolConfig config;
  config.memory_bytes = 16 << 20;
  config.num_buckets = 1024;
  config.capacity_objects = capacity;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

core::ClusterConfig LruLfuCluster(int nodes, uint64_t per_node_capacity) {
  core::ClusterConfig config;
  config.nodes = nodes;
  config.pool = UncostedNode(per_node_capacity);
  config.ditto.experts = {"lru", "lfu"};
  return config;
}

TEST(ClusterClientTest, SetGetAcrossNodes) {
  const core::ClusterConfig config = LruLfuCluster(3, 1000);
  core::ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 500; ++i) {
    client.Set("key-" + std::to_string(i), "value-" + std::to_string(i));
  }
  std::string value;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client.Get("key-" + std::to_string(i), &value)) << i;
    EXPECT_EQ(value, "value-" + std::to_string(i));
  }
  // Objects actually landed on multiple nodes.
  int populated = 0;
  for (int n = 0; n < 3; ++n) {
    if (pool.node(n).cached_objects() > 50) {
      populated++;
    }
  }
  EXPECT_EQ(populated, 3);
  EXPECT_EQ(pool.cached_objects(), 500u);
}

TEST(ClusterClientTest, DeleteRoutesToOwningNode) {
  const core::ClusterConfig config = LruLfuCluster(2, 1000);
  core::ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);

  client.Set("a", "1");
  client.Set("b", "2");
  EXPECT_TRUE(client.Delete("a"));
  EXPECT_FALSE(client.Get("a", nullptr));
  EXPECT_TRUE(client.Get("b", nullptr));
}

TEST(ClusterClientTest, PerNodeCapacityEnforced) {
  const core::ClusterConfig config = LruLfuCluster(4, 100);  // 400 objects aggregate
  core::ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 2000; ++i) {
    client.Set("key-" + std::to_string(i), "v");
  }
  EXPECT_LE(pool.cached_objects(), 440u);
  EXPECT_GT(client.stats().evictions, 1000u);
}

TEST(ClusterClientTest, StatsAggregateAcrossNodes) {
  const core::ClusterConfig config = LruLfuCluster(2, 1000);
  core::ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 100; ++i) {
    client.Set("k" + std::to_string(i), "v");
  }
  for (int i = 0; i < 200; ++i) {
    client.Get("k" + std::to_string(i), nullptr);  // half hit, half miss
  }
  const core::DittoStats stats = client.stats();
  EXPECT_EQ(stats.sets, 100u);
  EXPECT_EQ(stats.gets, 200u);
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.misses, 100u);
}

TEST(ClusterClientTest, AggregateNicScalesThroughput) {
  // The paper's single-MN Ditto is bounded by one RNIC's message rate;
  // spreading the pool over more memory nodes must scale throughput.
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 10000;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, 60000, 1);

  const auto run_with_nodes = [&](int nodes) {
    core::ClusterConfig config;
    config.nodes = nodes;
    config.pool.memory_bytes = 32 << 20;
    config.pool.num_buckets = 8192;
    config.pool.capacity_objects = 40000;
    config.ditto.experts = {"lru", "lfu"};
    // Enough clients that aggregate demand (~ clients / 4.3us per Get)
    // clearly exceeds one NIC's ~13 Mops ceiling.
    constexpr int kClients = 128;
    bench::ClusterDeployment d = bench::MakeCluster(config, kClients);
    // Preload so the measured phase has no misses.
    const std::string value(232, 'v');
    for (uint64_t k = 0; k < ycsb.num_keys; ++k) {
      d.clients[k % kClients]->Set(workload::KeyString(k), value);
    }
    sim::RunOptions options;
    options.set_on_miss = false;
    return sim::RunTrace(d.raw, trace, d.nodes, options).throughput_mops;
  };

  const double one = run_with_nodes(1);
  const double four = run_with_nodes(4);
  EXPECT_GT(four, one * 1.5) << "adding memory nodes must relieve the NIC bottleneck";
}

// --- Fault-free pin and lifecycle -------------------------------------------

// With an empty FaultPlan and stable membership, a ClusterPool deployment
// must be indistinguishable — op for op, verb for verb, nanosecond for
// nanosecond — from the fault-free two-client run below. The constants were
// recorded from the static hash-partitioned multi-node client the cluster
// layer replaced (same trace, nodes, seed 1 partition, and cost model).
TEST(ClusterFaultFreeTest, BitIdenticalToRecordedFaultFreeRun) {
  const workload::Trace trace = MixedTrace(40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 100.0;

  sim::RunResult recorded;
  recorded.ops = 32000;
  recorded.gets = 15066;
  recorded.hits = 14195;
  recorded.misses = 871;
  recorded.sets = 16812;
  recorded.deletes = 469;
  recorded.evictions = 571;
  recorded.expired = 115;
  recorded.nic_messages = 148094;
  recorded.nic_doorbells = 147666;
  recorded.rpc_ops = 14;
  recorded.cas_failures = 0;
  recorded.insert_retries = 0;
  recorded.hit_rate = 0.94218770742068236;
  recorded.elapsed_s = 0.16258318299999999;
  recorded.throughput_mops = 0.19682232448358453;
  recorded.p50_us = 6.9783058485986631;
  recorded.p99_us = 124.09377607517196;

  bench::ClusterDeployment cluster = bench::MakeCluster(TestClusterConfig(512), 2);
  const sim::RunResult clustered = sim::RunTrace(cluster.raw, trace, cluster.nodes, options);

  ExpectIdenticalResults(recorded, clustered);
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

  bench::ClusterDeployment first = bench::MakeCluster(config, 2);
  const sim::RunResult a = sim::RunTrace(first.raw, trace, first.nodes, options);
  bench::ClusterDeployment second = bench::MakeCluster(config, 2);
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

  bench::ClusterDeployment d = bench::MakeCluster(TestClusterConfig(capacity / kNodes), 2);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

  const size_t measure_begin = trace.size() / 5;
  // Every measured request was served (no hang, no drop) even though a
  // quarter of the cluster vanished mid-replay.
  EXPECT_EQ(r.ops, trace.size() - measure_begin);
  EXPECT_EQ(r.gets, r.hits + r.misses);

  const std::vector<sim::RecoverySample> cold =
      sim::ReplayExact(trace, policy::PrecisePolicyKind::kLru, capacity, options).recovery;
  ASSERT_EQ(r.recovery.size(), cold.size());

  const size_t crash_window =
      (sim::ResizeStepIndex(0.5, measure_begin, trace.size()) - measure_begin) / window;
  const double pre_ditto = sim::MeanHitRate(r.recovery, 0, crash_window);
  const double pre_cold = sim::MeanHitRate(cold, 0, crash_window);
  const double post_ditto = sim::MeanHitRate(r.recovery, crash_window, r.recovery.size());
  const double post_cold = sim::MeanHitRate(cold, crash_window, cold.size());
  EXPECT_GT(pre_ditto, 0.5);
  // Losing 1/4 of the keys strictly beats losing all of them.
  EXPECT_GT(post_ditto, post_cold);
  const uint64_t rec_ditto = sim::RecoveryOps(r.recovery, crash_window, 0.99 * pre_ditto);
  const uint64_t rec_cold = sim::RecoveryOps(cold, crash_window, 0.99 * pre_cold);
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

  bench::ClusterDeployment d = bench::MakeCluster(TestClusterConfig(capacity / kNodes), 2);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

  const size_t measure_begin = trace.size() / 5;
  EXPECT_EQ(r.ops, trace.size() - measure_begin);

  const size_t crash_window =
      (sim::ResizeStepIndex(0.4, measure_begin, trace.size()) - measure_begin) / window;
  const size_t rejoin_window =
      (sim::ResizeStepIndex(0.7, measure_begin, trace.size()) - measure_begin) / window;
  const double pre_crash = sim::MeanHitRate(r.recovery, 0, crash_window);
  const double tail = sim::MeanHitRate(r.recovery, rejoin_window + 1, r.recovery.size());
  EXPECT_GT(pre_crash, 0.5);
  EXPECT_GE(tail, 0.98 * pre_crash);
  // The restart migrated keys back into the re-joined node.
  EXPECT_GT(d.pool->migrated_objects(), 0u);
  EXPECT_TRUE(d.pool->IsLive(kNodes - 1));
}

// With every node crashed, each op kind reports kUnavailable — never a plain
// miss/not-found/drop — whichever entry point issues it: the blocking batch
// path and the pipelined (per-op timeline) path share one dispatch.
TEST(ClusterCrashTest, AllNodesCrashedReportsUnavailableOnEveryPath) {
  core::ClusterConfig config = TestClusterConfig(512);
  config.nodes = 2;
  bench::ClusterDeployment d = bench::MakeCluster(config, 1);
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

  // A multi-key run: every key is a Get with its own retry budget, so every
  // key reports the outage.
  const sim::CacheOp mget[] = {sim::CacheOp::MultiGet("k"), sim::CacheOp::MultiGet("k2"),
                               sim::CacheOp::MultiGet("k3")};
  sim::CacheResult mget_results[3];
  client->ExecuteBatch(mget, mget_results);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(mget_results[i].status, sim::OpStatus::kUnavailable) << "MGET key " << i;
  }
}

// A node inside a FaultPlan crash window that is still in the ring fails
// only its own keys of a multi-get: they exhaust Get's retries and report
// kUnavailable, while the other node's keys hit.
TEST(ClusterCrashTest, MultiGetReportsUnavailableOnlyForTheCrashedNodesKeys) {
  constexpr uint64_t kCrashAtNs = 1'000'000'000;  // 1 s of virtual time
  core::ClusterConfig config = TestClusterConfig(512);
  config.nodes = 2;
  bench::ClusterDeployment d = bench::MakeCluster(config, 1);
  rdma::FaultPlan plan;
  plan.crash_windows.push_back({kCrashAtNs, ~uint64_t{0}});
  d.pool->ConfigureNodeFault(0, plan);
  sim::CacheClient* client = d.raw[0];

  std::vector<std::string> keys;
  std::vector<sim::CacheOp> mget;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("mg-" + std::to_string(i));
  }
  size_t on_node0 = 0;
  for (const std::string& key : keys) {
    ASSERT_TRUE(client->Set(key, "v"));
    mget.push_back(sim::CacheOp::MultiGet(key));
    on_node0 += d.pool->ring().NodeFor(HashKey(key)) == 0 ? 1 : 0;
  }
  ASSERT_GT(on_node0, 0u);
  ASSERT_LT(on_node0, keys.size());

  ASSERT_LT(client->ctx().clock().busy_ns(), kCrashAtNs) << "preload ends before the crash";
  client->ctx().clock().AdvanceToNs(kCrashAtNs);
  std::vector<sim::CacheResult> results(mget.size());
  client->ExecuteBatch(mget, results.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool node0 = d.pool->ring().NodeFor(HashKey(keys[i])) == 0;
    EXPECT_EQ(results[i].status, node0 ? sim::OpStatus::kUnavailable : sim::OpStatus::kHit)
        << keys[i] << " on node " << (node0 ? 0 : 1);
  }
  EXPECT_TRUE(d.pool->IsLive(0)) << "a crash window does not change the ring";
}

// The retry budget of one op against a node that is inside a FaultPlan crash
// window but still in the ring: 4 attempts (3 retries), each failed verb
// charging the 100 us completion timeout, with 50 + 100 + 200 us of backoff
// between the attempts. Get, Delete and Expire stop at their first failed
// verb; each Set attempt fails 5 verbs.
TEST(ClusterCrashTest, RetryBudgetChargesTimeoutsAndBackoffs) {
  constexpr uint64_t kCrashAtNs = 1'000'000'000;  // 1 s of virtual time
  core::ClusterConfig config = TestClusterConfig(512);
  config.nodes = 2;
  core::ClusterPool pool(config);
  rdma::FaultPlan plan;
  plan.crash_windows.push_back({kCrashAtNs, ~uint64_t{0}});
  pool.ConfigureNodeFault(0, plan);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);

  std::string key = "rb-0";
  for (int i = 1; pool.ring().NodeFor(HashKey(key)) != 0; ++i) {
    key = "rb-" + std::to_string(i);
  }
  ASSERT_TRUE(client.Set(key, "v"));
  ASSERT_LT(ctx.now_ns(), kCrashAtNs) << "preload ends before the crash";
  ctx.clock().AdvanceToNs(kCrashAtNs);

  // Virtual time one op costs; every op must exhaust its retries.
  const auto cost_us = [&](const char* name, auto&& op) {
    const uint64_t before_ns = ctx.now_ns();
    EXPECT_FALSE(op()) << name;
    EXPECT_TRUE(client.last_op_unavailable()) << name;
    return static_cast<double>(ctx.now_ns() - before_ns) / 1000.0;
  };
  std::string value;
  EXPECT_EQ(cost_us("get", [&] { return client.Get(key, &value); }), 750.0);
  EXPECT_EQ(cost_us("delete", [&] { return client.Delete(key); }), 750.0);
  EXPECT_EQ(cost_us("expire", [&] { return client.Expire(key, 5); }), 750.0);
  EXPECT_EQ(cost_us("set", [&] { return client.Set(key, "v2"); }), 2350.0);
  EXPECT_TRUE(pool.IsLive(0)) << "a crash window does not change the ring";
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
  bench::ClusterDeployment d = bench::MakeCluster(config, 8);
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
