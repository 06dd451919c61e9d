// Wall-clock measurement smoke tests: every replay engine (interleaved,
// pipelined, concurrent sharded, contended) must fill the host wall-clock
// fields of RunResult — wall_s, wall_mops, threads — with positive, mutually
// consistent values. The engine benches print wall_mops next to the
// modelled virtual-time numbers, so an engine that forgets to stamp it
// silently reports 0 Mops.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"

namespace ditto {
namespace {

workload::Trace SmallTrace() {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 500;
  return workload::MakeYcsbTrace(ycsb, /*count=*/20000, /*seed=*/11);
}

dm::PoolConfig SmallPool() {
  dm::PoolConfig config;
  config.memory_bytes = 16 << 20;
  config.num_buckets = 1024;
  config.capacity_objects = 1000;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

core::DittoConfig LruLfu() {
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  return config;
}

// The invariants every engine must satisfy, given the host thread count it
// is expected to report.
void ExpectWallFilled(const sim::RunResult& r, int expected_threads) {
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.wall_s, 0.0);
  EXPECT_GT(r.wall_mops, 0.0);
  EXPECT_EQ(r.threads, expected_threads);
  // wall_mops is derived from the same ops counter the result reports.
  EXPECT_NEAR(r.wall_mops, static_cast<double>(r.ops) / (r.wall_s * 1e6),
              r.wall_mops * 1e-9 + 1e-12);
}

TEST(WallClockTest, RunTraceFillsWallFields) {
  bench::DittoDeployment d = bench::MakeDitto(SmallPool(), LruLfu(), 1);
  sim::RunOptions options;
  options.warmup_fraction = 0.1;
  const sim::RunResult r = sim::RunTrace(d.raw, SmallTrace(), d.nodes, options);
  ExpectWallFilled(r, /*expected_threads=*/1);
}

TEST(WallClockTest, PipelinedRunTraceFillsWallFields) {
  bench::DittoDeployment d = bench::MakeDitto(SmallPool(), LruLfu(), 1);
  sim::RunOptions options;
  options.pipeline_depth = 4;
  const sim::RunResult r = sim::RunTrace(d.raw, SmallTrace(), d.nodes, options);
  ExpectWallFilled(r, /*expected_threads=*/1);
}

TEST(WallClockTest, RunTraceShardedReportsWorkerThreadCount) {
  constexpr int kShards = 4;
  bench::ShardedEngineDeployment d = bench::MakeShardedEngine(SmallPool(), LruLfu(), kShards);

  sim::RunOptions options;
  options.threads = 2;
  options.partition_seed = 42;
  const sim::RunResult r = sim::RunTraceSharded(d.raw, SmallTrace(), d.nodes, options);
  // Workers driving the shards: min(options.threads, num_shards).
  ExpectWallFilled(r, /*expected_threads=*/2);
}

TEST(WallClockTest, RunTraceShardedClampsThreadsToShardCount) {
  constexpr int kShards = 2;
  bench::ShardedEngineDeployment d = bench::MakeShardedEngine(SmallPool(), LruLfu(), kShards);

  sim::RunOptions options;
  options.threads = 8;  // more workers than shards: only kShards can run
  options.partition_seed = 42;
  const sim::RunResult r = sim::RunTraceSharded(d.raw, SmallTrace(), d.nodes, options);
  ExpectWallFilled(r, /*expected_threads=*/kShards);
}

TEST(WallClockTest, RunTraceContendedReportsOneThreadPerClient) {
  constexpr int kClients = 2;
  core::DittoConfig config = LruLfu();
  config.validate_inserts = true;
  bench::DittoDeployment d = bench::MakeDitto(SmallPool(), config, kClients);
  sim::RunOptions options;
  std::vector<sim::RunResult> per_client;
  const sim::RunResult r =
      sim::RunTraceContended(d.raw, SmallTrace(), d.nodes, options, &per_client);
  ExpectWallFilled(r, /*expected_threads=*/kClients);
  // Per-client results share the run's wall window and thread count.
  ASSERT_EQ(per_client.size(), static_cast<size_t>(kClients));
}

}  // namespace
}  // namespace ditto
