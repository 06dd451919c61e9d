// Tests of the concurrent sharded simulation engine: thread-count-independent
// determinism of RunTraceSharded, its result pinned to recorded constants,
// and a ThreadSanitizer-friendly stress of ClusterClient on a shared pool.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/cluster.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

// A sharded Ditto deployment: one memory node, server, context, and client
// per shard, so every shard's cache state is thread-private.
bench::ShardedEngineDeployment MakeDeployment(int num_shards) {
  dm::PoolConfig pool_config;
  pool_config.memory_bytes = 16 << 20;
  pool_config.num_buckets = 1024;
  pool_config.capacity_objects = 300;  // small: evictions exercise the policies
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  return bench::MakeShardedEngine(pool_config, config, num_shards);
}

sim::RunResult RunSharded(const workload::Trace& trace, int threads, size_t batch_ops) {
  bench::ShardedEngineDeployment d = MakeDeployment(/*num_shards=*/8);
  sim::RunOptions options;
  options.threads = threads;
  options.partition_seed = 42;
  options.batch_ops = batch_ops;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 50.0;
  return sim::RunTraceSharded(d.raw, trace, d.nodes, options);
}

workload::Trace MakeTrace() {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 2000;
  return workload::MakeYcsbTrace(ycsb, /*count=*/30000, /*seed=*/7);
}

TEST(ConcurrentRunnerTest, IdenticalResultsAcrossThreadCounts) {
  const workload::Trace trace = MakeTrace();
  const sim::RunResult r1 = RunSharded(trace, /*threads=*/1, /*batch_ops=*/0);
  EXPECT_GT(r1.gets, 0u);
  EXPECT_GT(r1.hits, 0u);
  EXPECT_GT(r1.misses, 0u);
  // 16 > the 8 shards: the engine runs one worker per shard at most.
  for (const int threads : {2, 8, 16}) {
    const sim::RunResult r = RunSharded(trace, threads, /*batch_ops=*/0);
    EXPECT_EQ(r.hits, r1.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, r1.misses) << "threads=" << threads;
    EXPECT_EQ(r.gets, r1.gets) << "threads=" << threads;
    EXPECT_EQ(r.sets, r1.sets) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.hit_rate, r1.hit_rate) << "threads=" << threads;
    // Shards own their memory nodes, so even the virtual-time accounting is
    // thread-private and the full result reproduces bit-for-bit.
    EXPECT_EQ(r.nic_messages, r1.nic_messages) << "threads=" << threads;
    EXPECT_EQ(r.nic_doorbells, r1.nic_doorbells) << "threads=" << threads;
    EXPECT_EQ(r.rpc_ops, r1.rpc_ops) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.throughput_mops, r1.throughput_mops) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.p99_us, r1.p99_us) << "threads=" << threads;
  }
}

TEST(ConcurrentRunnerTest, BatchedModeIsAlsoDeterministicAcrossThreadCounts) {
  const workload::Trace trace = MakeTrace();
  const sim::RunResult r1 = RunSharded(trace, /*threads=*/1, /*batch_ops=*/32);
  for (const int threads : {2, 8}) {
    const sim::RunResult r = RunSharded(trace, threads, /*batch_ops=*/32);
    EXPECT_EQ(r.hits, r1.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, r1.misses) << "threads=" << threads;
    EXPECT_EQ(r.nic_messages, r1.nic_messages) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.hit_rate, r1.hit_rate) << "threads=" << threads;
  }
}

TEST(ConcurrentRunnerTest, BatchingDoesNotChangeCacheBehaviour) {
  // Doorbell batching only coalesces cost accounting; hits/misses and the
  // number of posted WQEs are identical with and without it.
  const workload::Trace trace = MakeTrace();
  const sim::RunResult plain = RunSharded(trace, /*threads=*/2, /*batch_ops=*/0);
  const sim::RunResult batched = RunSharded(trace, /*threads=*/2, /*batch_ops=*/32);
  EXPECT_EQ(batched.hits, plain.hits);
  EXPECT_EQ(batched.misses, plain.misses);
  EXPECT_EQ(batched.sets, plain.sets);
  EXPECT_LE(batched.nic_messages, plain.nic_messages);
  EXPECT_LT(batched.nic_doorbells, plain.nic_doorbells);
}

// Pins the absolute result of one sharded run that exercises every
// per-shard path (split capacity across a two-step resize schedule, fused
// multi-get runs, deletes, doorbell batching, warmup, miss penalty) to
// recorded constants: thread-count invariance alone cannot catch a change
// that shifts every thread count's result the same way.
TEST(ConcurrentRunnerTest, MatchesRecordedResult) {
  const workload::Trace trace = MakeTrace();
  bench::ShardedEngineDeployment d = MakeDeployment(/*num_shards=*/8);
  sim::RunOptions options;
  options.threads = 2;
  options.partition_seed = 42;
  options.batch_ops = 32;
  options.warmup_fraction = 0.2;
  options.miss_penalty_us = 50.0;
  options.resize_schedule = {{0.4, 800}, {0.7, 2400}};
  options.op_mix.multiget_fraction = 0.2;
  options.op_mix.delete_fraction = 0.05;
  const sim::RunResult r = sim::RunTraceSharded(d.raw, trace, d.nodes, options);

  EXPECT_EQ(r.ops, 24000u);
  EXPECT_EQ(r.gets, 11423u);
  EXPECT_EQ(r.hits, 10635u);
  EXPECT_EQ(r.misses, 788u);
  EXPECT_EQ(r.sets, 12771u);
  EXPECT_EQ(r.deletes, 561u);
  EXPECT_EQ(r.evictions, 830u);
  EXPECT_EQ(r.nic_messages, 134264u);
  EXPECT_EQ(r.nic_doorbells, 118665u);
  EXPECT_EQ(r.rpc_ops, 24u);
  EXPECT_DOUBLE_EQ(r.hit_rate, 0.93101637048060926);
  EXPECT_DOUBLE_EQ(r.elapsed_s, 0.035729234999999998);
  EXPECT_DOUBLE_EQ(r.p50_us, 6.7317038241449829);
  EXPECT_DOUBLE_EQ(r.p99_us, 153.99265260594919);
  EXPECT_DOUBLE_EQ(r.throughput_mops, 0.6717188319313302);

  ASSERT_EQ(r.phases.size(), 3u);
  const uint64_t capacities[] = {0, 800, 2400};
  const uint64_t ops[] = {9600, 7200, 7200};
  const double hit_rates[] = {0.95249615130855514, 0.89882352941176469, 0.93440736478711162};
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(r.phases[p].capacity_objects, capacities[p]) << "phase " << p;
    EXPECT_EQ(r.phases[p].ops, ops[p]) << "phase " << p;
    EXPECT_DOUBLE_EQ(r.phases[p].hit_rate, hit_rates[p]) << "phase " << p;
  }
}

TEST(ConcurrentRunnerTest, EmptyShardListThrows) {
  const workload::Trace trace = MakeTrace();
  sim::RunOptions options;
  options.threads = 2;
  EXPECT_THROW(sim::RunTraceSharded({}, trace, {}, options), std::invalid_argument);
}

TEST(ConcurrentRunnerTest, ShardForKeyIsSeededAndBalanced) {
  std::vector<int> counts(8, 0);
  bool seed_changes_route = false;
  for (uint64_t key = 0; key < 8000; ++key) {
    const uint32_t s = sim::ShardForKey(key, 8, 42);
    ASSERT_LT(s, 8u);
    counts[s]++;
    seed_changes_route = seed_changes_route || s != sim::ShardForKey(key, 8, 43);
  }
  EXPECT_TRUE(seed_changes_route);
  for (const int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// Stress ClusterClient from real threads against one shared pool: each
// thread has its own client + context (the supported concurrency model) but
// all route into the same four memory nodes, hammering the CAS/atomic paths.
// Run under -fsanitize=thread this is the data-race canary for the
// dm/rdma/core layers.
TEST(ClusterClientStressTest, ConcurrentClientsOnSharedPool) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 512;

  core::ClusterConfig config;
  config.nodes = 4;
  config.partition_seed = 9;
  config.pool.memory_bytes = 16 << 20;
  config.pool.num_buckets = 1024;
  config.pool.capacity_objects = 200;
  config.pool.cost = rdma::CostModel::Disabled();
  config.ditto.experts = {"lru", "lfu"};

  core::ClusterPool pool(config);

  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<core::ClusterClient>> clients;
  for (int t = 0; t < kThreads; ++t) {
    ctxs.push_back(std::make_unique<rdma::ClientContext>(t, /*seed=*/t + 1));
    clients.push_back(
        std::make_unique<core::ClusterClient>(&pool, ctxs.back().get(), config.ditto));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &clients] {
      core::ClusterClient& client = *clients[t];
      Rng rng(1000 + t);
      std::string value(64, 'v');
      std::string got;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "stress-" + std::to_string(rng.NextBelow(kKeySpace));
        const uint64_t dice = rng.NextBelow(10);
        if (dice < 6) {
          client.Get(key, &got);
        } else if (dice < 9) {
          client.Set(key, value);
        } else {
          client.Delete(key);
        }
      }
      client.FlushBuffers();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  uint64_t total_ops = 0;
  for (const auto& client : clients) {
    const core::DittoStats s = client->stats();
    EXPECT_EQ(s.gets, s.hits + s.misses);
    total_ops += s.gets + s.sets;
  }
  EXPECT_GT(total_ops, static_cast<uint64_t>(kThreads) * kOpsPerThread * 8 / 10);
  // Eviction must keep every node at or near its capacity bound.
  EXPECT_LE(pool.cached_objects(), 4u * config.pool.capacity_objects + kThreads);
}

}  // namespace
}  // namespace ditto
