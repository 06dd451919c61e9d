// Tests of the concurrent sharded simulation engine: the SPSC request
// queue, thread-count-independent determinism of RunTraceSharded, and a
// ThreadSanitizer-friendly stress of ClusterClient on a shared pool.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/cluster.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "sim/spsc_queue.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

TEST(SpscQueueTest, DeliversAllItemsInOrderAcrossThreads) {
  constexpr uint32_t kItems = 200000;
  sim::SpscQueue<uint32_t> queue(256);
  std::thread producer([&queue] {
    for (uint32_t i = 0; i < kItems; ++i) {
      while (!queue.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  uint32_t expected = 0;
  while (expected < kItems) {
    uint32_t got;
    if (queue.TryPop(&got)) {
      ASSERT_EQ(got, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(queue.Empty());
}

TEST(SpscQueueTest, PushFailsWhenFullPopFailsWhenEmpty) {
  sim::SpscQueue<int> queue(4);
  int out;
  EXPECT_FALSE(queue.TryPop(&out));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.TryPush(i));
  }
  EXPECT_FALSE(queue.TryPush(99));
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(queue.TryPush(4));
}

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
  for (const int threads : {2, 8}) {
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
