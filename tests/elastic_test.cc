// Elastic runtime capacity scaling, end to end: the kRpcResize controller
// RPC, client evict-down on shrink (Ditto, Shard-LRU, CliqueMap), the Redis
// model's capacity-to-shard mapping, and the deterministic resize_schedule /
// per-phase hit-rate trajectory of both replay engines.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cliquemap.h"
#include "baselines/redis_model.h"
#include "baselines/shard_lru.h"
#include "bench_common.h"
#include "core/cluster.h"
#include "core/ditto_client.h"
#include "dm/pool.h"
#include "rdma/verbs.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

dm::PoolConfig PoolConfigFor(uint64_t capacity_objects) {
  dm::PoolConfig config;
  config.memory_bytes = 32 << 20;
  config.num_buckets = 4096;
  config.capacity_objects = capacity_objects;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

std::string EncodeU64(uint64_t value) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &value, 8);
  return out;
}

// ---- kRpcResize controller RPC --------------------------------------------

TEST(PoolResizeRpcTest, RewritesCapacityAndReturnsPrevious) {
  dm::MemoryPool pool(PoolConfigFor(1000));
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);

  const std::string response = verbs.Rpc(dm::kRpcResize, EncodeU64(250));
  ASSERT_EQ(response.size(), 8u);
  uint64_t previous = 0;
  std::memcpy(&previous, response.data(), 8);
  EXPECT_EQ(previous, 1000u);
  EXPECT_EQ(pool.capacity_objects(), 250u);
}

TEST(PoolResizeRpcTest, RejectsMalformedRequests) {
  dm::MemoryPool pool(PoolConfigFor(1000));
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);

  EXPECT_TRUE(verbs.Rpc(dm::kRpcResize, "xyz").empty()) << "short payload";
  EXPECT_TRUE(verbs.Rpc(dm::kRpcResize, std::string(11, '\0')).empty()) << "trailing bytes";
  EXPECT_TRUE(verbs.Rpc(dm::kRpcResize, EncodeU64(0)).empty()) << "zero capacity";
  EXPECT_EQ(pool.capacity_objects(), 1000u) << "rejected requests leave capacity alone";
}

// ---- Client-side evict-down ------------------------------------------------

TEST(ElasticClientTest, DittoShrinkEvictsDownThenExpandGrowsAgain) {
  dm::MemoryPool pool(PoolConfigFor(600));
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  core::DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  core::DittoClient client(&pool, &ctx, config);

  for (int i = 0; i < 500; ++i) {
    client.Set("key-" + std::to_string(i), "value");
  }
  const uint64_t before = pool.cached_objects();
  ASSERT_GT(before, 400u);

  ASSERT_TRUE(client.ResizeCapacity(100));
  EXPECT_EQ(pool.capacity_objects(), 100u);
  EXPECT_LE(pool.cached_objects(), 100u) << "shrink must evict down before returning";
  EXPECT_GT(client.stats().evictions, 0u);

  // Expansion takes effect on the next admissions: no evictions required.
  ASSERT_TRUE(client.ResizeCapacity(400));
  for (int i = 1000; i < 1300; ++i) {
    client.Set("key-" + std::to_string(i), "value");
  }
  EXPECT_GT(pool.cached_objects(), 100u) << "the cache must grow into the new budget";
  EXPECT_LE(pool.cached_objects(), 400u);
}

TEST(ElasticClientTest, ClusterClientSplitsAggregateAcrossNodes) {
  core::ClusterConfig config;
  config.nodes = 4;
  config.pool = PoolConfigFor(200);
  config.ditto.experts = {"lru"};
  core::ClusterPool pool(config);
  rdma::ClientContext ctx(0);
  core::ClusterClient client(&pool, &ctx, config.ditto);

  for (int i = 0; i < 600; ++i) {
    client.Set("key-" + std::to_string(i), "value");
  }
  ASSERT_GT(pool.cached_objects(), 400u);

  ASSERT_TRUE(client.ResizeCapacity(100));
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(pool.node(n).capacity_objects(), 25u) << "even split of the aggregate";
    EXPECT_LE(pool.node(n).cached_objects(), 25u);
  }
  EXPECT_LE(pool.cached_objects(), 100u);

  // A remainder goes to the lowest-numbered nodes, and an aggregate below
  // the node count rounds up to one object per node (dm::CapacityShare).
  ASSERT_TRUE(client.ResizeCapacity(6));
  EXPECT_EQ(pool.node(0).capacity_objects(), 2u);
  EXPECT_EQ(pool.node(1).capacity_objects(), 2u);
  EXPECT_EQ(pool.node(2).capacity_objects(), 1u);
  EXPECT_EQ(pool.node(3).capacity_objects(), 1u);
  ASSERT_TRUE(client.ResizeCapacity(2));
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(pool.node(n).capacity_objects(), 1u);
  }
}

TEST(ElasticClientTest, ShardLruShrinkEvictsAcrossShards) {
  dm::MemoryPool pool(PoolConfigFor(400));
  baselines::ShardLruConfig config;
  config.num_shards = 8;
  baselines::ShardLruDirectory dir(&pool, config);
  rdma::ClientContext ctx(0);
  baselines::ShardLruClient client(&pool, &dir, &ctx);

  for (int i = 0; i < 300; ++i) {
    client.Set("key-" + std::to_string(i), "value");
  }
  ASSERT_GT(dir.total_objects(), 250u);

  ASSERT_TRUE(client.ResizeCapacity(50));
  EXPECT_EQ(dir.capacity(), 50u);
  EXPECT_LE(dir.total_objects(), 50u);
  EXPECT_GE(client.counters().evictions, 200u);

  // Expand and refill.
  ASSERT_TRUE(client.ResizeCapacity(200));
  for (int i = 1000; i < 1150; ++i) {
    client.Set("key-" + std::to_string(i), "value");
  }
  EXPECT_GT(dir.total_objects(), 50u);
  EXPECT_LE(dir.total_objects(), 200u);
}

TEST(ElasticClientTest, CliqueMapResizeRpcEvictsOnTheServer) {
  dm::MemoryPool pool(PoolConfigFor(300));
  baselines::CliqueMapConfig config;
  baselines::CliqueMapServer server(&pool, config);
  rdma::ClientContext ctx(0);
  baselines::CliqueMapClient client(&pool, &server, &ctx);

  for (int i = 0; i < 200; ++i) {
    client.Set("key-" + std::to_string(i), "value");
  }
  ASSERT_GT(server.size(), 150u);

  ASSERT_TRUE(client.ResizeCapacity(40));
  EXPECT_EQ(server.capacity(), 40u);
  EXPECT_LE(server.size(), 40u);
  EXPECT_GE(client.counters().evictions, 100u) << "server-side evictions are reported back";

  // Malformed resize requests are rejected without touching the capacity.
  rdma::Verbs verbs(&pool.node(), &ctx);
  const std::string response = verbs.Rpc(baselines::kRpcCmResize, "odd");
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response[0], '\0');
  EXPECT_EQ(server.capacity(), 40u);
}

TEST(ElasticClientTest, RedisModelMapsCapacityToShardCountWithMigration) {
  baselines::RedisModelConfig config;
  config.initial_shards = 32;
  baselines::RedisModel model(config);
  // Per-shard capacity of 10M keys / 32 shards; doubling the capacity target
  // doubles the node count and triggers a minutes-long migration.
  const uint64_t per_shard = config.num_keys / 32;
  model.ResizeToCapacityObjects(config.num_keys * 2, per_shard);
  EXPECT_GT(model.migration_remaining_s(), 60.0);
  EXPECT_EQ(model.active_shards(), 32) << "old shard map serves until cutover";
}

// ---- Replay-engine resize schedules ---------------------------------------

workload::Trace ZipfReadTrace(uint64_t keys, uint64_t requests, uint64_t seed) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';  // read-only zipfian
  ycsb.num_keys = keys;
  return workload::MakeYcsbTrace(ycsb, requests, seed);
}

TEST(ElasticScheduleTest, ShrinkLosesLessThanColdRestartAndExpandRecovers) {
  constexpr uint64_t kKeys = 4000;
  constexpr uint64_t kRequests = 45000;
  constexpr uint64_t kCapacity = 1200;
  constexpr uint64_t kShrunk = 400;
  const workload::Trace trace = ZipfReadTrace(kKeys, kRequests, /*seed=*/3);

  sim::RunOptions options;
  options.warmup_fraction = 1.0 / 3.0;
  options.resize_schedule = {{1.0 / 3.0, kShrunk}, {2.0 / 3.0, kCapacity}};

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  bench::DittoDeployment d = bench::MakeDitto(PoolConfigFor(kCapacity), config, 1);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);

  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[1].capacity_objects, kShrunk);
  EXPECT_EQ(r.phases[2].capacity_objects, kCapacity);
  for (const sim::PhaseResult& phase : r.phases) {
    EXPECT_GT(phase.gets, 0u);
  }
  // The trajectory totals reconcile with the run totals.
  uint64_t phase_hits = 0;
  uint64_t phase_gets = 0;
  for (const sim::PhaseResult& phase : r.phases) {
    phase_hits += phase.hits;
    phase_gets += phase.gets;
  }
  EXPECT_EQ(phase_hits, r.hits);
  EXPECT_EQ(phase_gets, r.gets);

  // ReplayExact resolves the same options as RunTrace, so the precise LRU
  // cold-restarts at the identical request indices as Ditto's resizes.
  const std::vector<sim::PhaseResult> lru_cold =
      sim::ReplayExact(trace, policy::PrecisePolicyKind::kLru, kCapacity, options,
                       /*num_clients=*/1, /*cold_restart=*/true)
          .phases;

  // Paper claim: the shrink costs Ditto strictly less hit rate than a
  // precise LRU that cold-restarts at the same (equal) capacity.
  const double ditto_drop = r.phases[0].hit_rate - r.phases[1].hit_rate;
  const double cold_drop = lru_cold[0].hit_rate - lru_cold[1].hit_rate;
  EXPECT_LT(ditto_drop, cold_drop)
      << "ditto p0=" << r.phases[0].hit_rate << " p1=" << r.phases[1].hit_rate
      << " lru-cold p0=" << lru_cold[0].hit_rate << " p1=" << lru_cold[1].hit_rate;

  // The expand step recovers hit rate.
  EXPECT_GT(r.phases[2].hit_rate, r.phases[1].hit_rate);
}

TEST(ElasticScheduleTest, ShardedTrajectoryIsThreadCountInvariant) {
  constexpr int kShards = 4;
  constexpr uint64_t kKeys = 3000;
  constexpr uint64_t kRequests = 30000;
  const workload::Trace trace = ZipfReadTrace(kKeys, kRequests, /*seed=*/9);

  const auto run_with_threads = [&](int threads) {
    core::DittoConfig config;
    config.experts = {"lru", "lfu"};
    bench::ShardedEngineDeployment d =
        bench::MakeShardedEngine(PoolConfigFor(300), config, kShards);
    sim::RunOptions options;
    options.threads = threads;
    options.partition_seed = 7;
    options.warmup_fraction = 0.2;
    options.resize_schedule = {{0.3, 400}, {0.7, 1200}};
    return sim::RunTraceSharded(d.raw, trace, d.nodes, options);
  };

  const sim::RunResult r1 = run_with_threads(1);
  const sim::RunResult r2 = run_with_threads(2);
  const sim::RunResult r8 = run_with_threads(8);

  ASSERT_EQ(r1.phases.size(), 3u);
  for (const sim::RunResult* other : {&r2, &r8}) {
    ASSERT_EQ(other->phases.size(), r1.phases.size());
    for (size_t p = 0; p < r1.phases.size(); ++p) {
      EXPECT_EQ(other->phases[p].capacity_objects, r1.phases[p].capacity_objects) << p;
      EXPECT_EQ(other->phases[p].ops, r1.phases[p].ops) << p;
      EXPECT_EQ(other->phases[p].gets, r1.phases[p].gets) << p;
      EXPECT_EQ(other->phases[p].hits, r1.phases[p].hits) << p;
      EXPECT_EQ(other->phases[p].misses, r1.phases[p].misses) << p;
      EXPECT_DOUBLE_EQ(other->phases[p].hit_rate, r1.phases[p].hit_rate) << p;
    }
    EXPECT_EQ(other->hits, r1.hits);
    EXPECT_EQ(other->misses, r1.misses);
    EXPECT_DOUBLE_EQ(other->hit_rate, r1.hit_rate);
  }
  // The shrink phase actually ran at the smaller capacity.
  EXPECT_GT(r1.phases[0].hit_rate, r1.phases[1].hit_rate);
  EXPECT_GT(r1.phases[2].hit_rate, r1.phases[1].hit_rate);
}

TEST(ElasticScheduleTest, EmptyScheduleYieldsSingleWholeRunPhase) {
  const workload::Trace trace = ZipfReadTrace(500, 4000, /*seed=*/1);
  core::DittoConfig config;
  config.experts = {"lru"};
  bench::DittoDeployment d = bench::MakeDitto(PoolConfigFor(250), config, 1);
  const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, sim::RunOptions{});
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_EQ(r.phases[0].capacity_objects, 0u);
  EXPECT_EQ(r.phases[0].gets, r.gets);
  EXPECT_EQ(r.phases[0].hits, r.hits);
  EXPECT_DOUBLE_EQ(r.phases[0].hit_rate, r.hit_rate);
}

}  // namespace
}  // namespace ditto
