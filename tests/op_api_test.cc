// Tests of the typed operation API (sim::CacheOp / sim::CacheResult /
// ExecuteBatch): kDelete, kExpire with lazy expiry on lookup, and kMultiGet
// across the Ditto clients and the DM baselines; the doorbell win of chained
// multi-gets; mixed-op determinism of the concurrent sharded engine; and the
// seeded key -> shard partition contract of sim::ShardForKey.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/cliquemap.h"
#include "baselines/shard_lru.h"
#include "bench_common.h"
#include "core/cluster.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

dm::PoolConfig SmallPool(uint64_t capacity = 5000) {
  dm::PoolConfig config;
  config.memory_bytes = 16 << 20;
  config.num_buckets = 1024;
  config.capacity_objects = capacity;
  return config;
}

core::DittoConfig DittoCfg() {
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  return config;
}

// Drives the basic typed-op contract against any CacheClient: Set / Get /
// Delete / Expire-with-lazy-expiry / MultiGet. `advance_ticks` pushes the
// implementation's TTL clock forward by at least n ticks (implementations
// differ in their tick domain).
void ExerciseOpContract(sim::CacheClient* client,
                        const std::function<void(uint64_t)>& advance_ticks) {
  // Set + Get round trip through the typed batch path.
  client->Set("op-key-1", "value-1");
  client->Set("op-key-2", "value-2");
  client->Set("op-key-3", "value-3");
  std::string got;
  EXPECT_TRUE(client->Get("op-key-1", &got));
  EXPECT_EQ(got, "value-1");

  // kDelete: removes exactly the requested key.
  EXPECT_TRUE(client->Delete("op-key-2"));
  EXPECT_FALSE(client->Delete("op-key-2")) << "second delete finds nothing";
  EXPECT_FALSE(client->Get("op-key-2", nullptr));
  EXPECT_TRUE(client->Get("op-key-3", nullptr)) << "neighbours survive the delete";

  // kExpire + lazy expiry: the key stays readable until its TTL passes, then
  // the next lookup reclaims it.
  EXPECT_TRUE(client->Expire("op-key-1", /*ttl_ticks=*/5));
  EXPECT_FALSE(client->Expire("no-such-key", 5));
  EXPECT_TRUE(client->Get("op-key-1", nullptr)) << "not yet expired";
  advance_ticks(4000);
  EXPECT_FALSE(client->Get("op-key-1", nullptr)) << "lazy expiry on lookup";
  EXPECT_GE(client->counters().expired, 1u);
  EXPECT_FALSE(client->Get("op-key-1", nullptr)) << "stays gone";

  // Set with a TTL arms expiry without a separate Expire.
  client->Set("ttl-key", "v", /*ttl_ticks=*/5);
  EXPECT_TRUE(client->Get("ttl-key", nullptr));
  advance_ticks(4000);
  EXPECT_FALSE(client->Get("ttl-key", nullptr));

  // kMultiGet: batched lookup over a mix of present and absent keys.
  client->Set("mg-1", "mv-1");
  client->Set("mg-2", "mv-2");
  const std::vector<std::string_view> keys = {"mg-1", "absent-a", "mg-2", "absent-b"};
  std::vector<sim::CacheResult> results;
  EXPECT_EQ(client->MultiGet(keys, &results), 2u);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].hit());
  EXPECT_EQ(results[0].value, "mv-1");
  EXPECT_FALSE(results[1].hit());
  EXPECT_TRUE(results[2].hit());
  EXPECT_EQ(results[2].value, "mv-2");
  EXPECT_FALSE(results[3].hit());

  // Typed statuses of a heterogeneous batch executed in order.
  const std::vector<sim::CacheOp> batch = {
      sim::CacheOp::Set("batch-key", "bv"),
      sim::CacheOp::Get("batch-key"),
      sim::CacheOp::Delete("batch-key"),
      sim::CacheOp::Get("batch-key"),
  };
  std::vector<sim::CacheResult> batch_results(batch.size());
  client->ExecuteBatch(batch, batch_results.data());
  EXPECT_EQ(batch_results[0].status, sim::OpStatus::kStored);
  EXPECT_EQ(batch_results[1].status, sim::OpStatus::kHit);
  EXPECT_EQ(batch_results[1].value, "bv");
  EXPECT_EQ(batch_results[2].status, sim::OpStatus::kDeleted);
  EXPECT_EQ(batch_results[3].status, sim::OpStatus::kMiss);

  const sim::ClientCounters counters = client->counters();
  EXPECT_GE(counters.deletes, 2u);
  EXPECT_GE(counters.expired, 2u);
}

TEST(OpApiTest, DittoClientSupportsTypedOps) {
  bench::DittoDeployment d = bench::MakeDitto(SmallPool(), DittoCfg(), 1);
  // Ditto's TTL domain is the pool's logical clock, which ticks on every
  // Set / metadata touch; a burst of filler Sets advances it.
  ExerciseOpContract(d.raw[0], [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      d.pool->clock().Tick();
    }
  });
}

TEST(OpApiTest, ClusterClientSupportsTypedOps) {
  core::ClusterConfig config;
  config.nodes = 3;
  config.partition_seed = 7;
  config.pool = SmallPool();
  config.ditto = DittoCfg();
  bench::ClusterDeployment d = bench::MakeCluster(config, 1);
  ExerciseOpContract(d.raw[0], [&](uint64_t n) {
    for (int node = 0; node < d.pool->num_nodes(); ++node) {
      for (uint64_t i = 0; i < n; ++i) {
        d.pool->node(node).clock().Tick();
      }
    }
  });
}

TEST(OpApiTest, ShardLruBaselineSupportsTypedOps) {
  dm::MemoryPool pool(SmallPool());
  baselines::ShardLruConfig config;
  baselines::ShardLruDirectory dir(&pool, config);
  rdma::ClientContext ctx(0);
  baselines::ShardLruClient client(&pool, &dir, &ctx);
  ExerciseOpContract(&client, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      pool.clock().Tick();
    }
  });
}

TEST(OpApiTest, CliqueMapBaselineSupportsTypedOps) {
  dm::MemoryPool pool(SmallPool());
  baselines::CliqueMapConfig config;
  baselines::CliqueMapServer server(&pool, config);
  rdma::ClientContext ctx(0);
  baselines::CliqueMapClient client(&pool, &server, &ctx);
  ExerciseOpContract(&client, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      pool.clock().Tick();
    }
  });
}

// Regression: baseline op paths must advance the pool's logical clock
// themselves — a TTL armed through a baseline client has to fire in a run
// where no Ditto client (the only other Tick caller) shares the pool.
TEST(OpApiTest, BaselineTtlFiresWithoutExternalClockTicks) {
  dm::MemoryPool lru_pool(SmallPool());
  baselines::ShardLruConfig lru_config;
  baselines::ShardLruDirectory dir(&lru_pool, lru_config);
  rdma::ClientContext lru_ctx(0);
  baselines::ShardLruClient lru_client(&lru_pool, &dir, &lru_ctx);

  dm::MemoryPool cm_pool(SmallPool());
  baselines::CliqueMapConfig cm_config;
  baselines::CliqueMapServer cm_server(&cm_pool, cm_config);
  rdma::ClientContext cm_ctx(1);
  baselines::CliqueMapClient cm_client(&cm_pool, &cm_server, &cm_ctx);

  for (sim::CacheClient* client : {static_cast<sim::CacheClient*>(&lru_client),
                                   static_cast<sim::CacheClient*>(&cm_client)}) {
    client->Set("ttl-only", "v", /*ttl_ticks=*/10);
    bool gone = false;
    for (int i = 0; i < 100 && !gone; ++i) {
      gone = !client->Get("ttl-only", nullptr);
    }
    EXPECT_TRUE(gone) << "lookups alone must advance the TTL domain";
    EXPECT_GE(client->counters().expired, 1u);
  }
}

TEST(OpApiTest, DroppedStoresReportKDropped) {
  dm::PoolConfig pool_config = SmallPool();
  pool_config.num_buckets = 1;  // every key collides into one 8-slot bucket
  dm::MemoryPool pool(pool_config);
  baselines::ShardLruConfig lru_config;
  lru_config.maintain_list = false;  // KVS mode: no eviction, the bucket can fill
  baselines::ShardLruDirectory dir(&pool, lru_config);
  rdma::ClientContext ctx(0);
  baselines::ShardLruClient client(&pool, &dir, &ctx);

  int stored = 0;
  sim::OpStatus last = sim::OpStatus::kStored;
  for (int i = 0; i < 16; ++i) {
    const std::string key = "drop-" + std::to_string(i);  // outlives the op's view
    const sim::CacheOp op = sim::CacheOp::Set(key, "v");
    sim::CacheResult r;
    client.ExecuteBatch({&op, 1}, &r);
    stored += r.status == sim::OpStatus::kStored ? 1 : 0;
    last = r.status;
  }
  EXPECT_EQ(stored, 8) << "one per slot";
  EXPECT_EQ(last, sim::OpStatus::kDropped) << "a full bucket with no eviction drops stores";
}

// Doorbells rung on every memory node of a deployment's pool.
uint64_t Doorbells(dm::MemoryPool& pool) { return pool.node().nic().doorbells(); }
uint64_t Doorbells(core::ClusterPool& pool) {
  uint64_t total = 0;
  for (int i = 0; i < pool.num_nodes(); ++i) {
    total += Doorbells(pool.node(i));
  }
  return total;
}

// The acceptance invariant of the batched path: a kMultiGet over n keys puts
// strictly fewer doorbells on the NICs than the same n keys fetched with
// single Gets, because the whole run's async metadata verbs chain behind one
// doorbell per memory node. Checked on one node and on a 2-node cluster.
TEST(OpApiTest, MultiGetIssuesFewerDoorbellsThanSingleGets) {
  constexpr int kKeys = 16;
  std::vector<std::string> key_storage;
  for (int i = 0; i < kKeys; ++i) {
    key_storage.push_back("mgk-" + std::to_string(i));
  }
  const auto expect_fewer_doorbells = [&](auto make) {
    auto preloaded = [&] {
      auto d = make();
      for (const std::string& key : key_storage) {
        d.raw[0]->Set(key, "value");
      }
      return d;
    };
    auto singly = preloaded();
    auto batched = preloaded();

    const uint64_t singly_before = Doorbells(*singly.pool);
    size_t single_hits = 0;
    for (const std::string& key : key_storage) {
      single_hits += singly.raw[0]->Get(key, nullptr) ? 1 : 0;
    }
    const uint64_t singly_doorbells = Doorbells(*singly.pool) - singly_before;

    std::vector<std::string_view> keys(key_storage.begin(), key_storage.end());
    std::vector<sim::CacheResult> results;
    const uint64_t batched_before = Doorbells(*batched.pool);
    const size_t batched_hits = batched.raw[0]->MultiGet(keys, &results);
    const uint64_t batched_doorbells = Doorbells(*batched.pool) - batched_before;

    EXPECT_EQ(single_hits, static_cast<size_t>(kKeys));
    EXPECT_EQ(batched_hits, static_cast<size_t>(kKeys)) << "batching must not change behaviour";
    EXPECT_LT(batched_doorbells, singly_doorbells)
        << "chained multi-get metadata verbs must share doorbells";
  };
  {
    SCOPED_TRACE("one memory node");
    expect_fewer_doorbells([] { return bench::MakeDitto(SmallPool(), DittoCfg(), 1); });
  }
  {
    SCOPED_TRACE("2-node cluster");
    expect_fewer_doorbells([] {
      core::ClusterConfig config;
      config.nodes = 2;
      config.pool = SmallPool();
      config.ditto = DittoCfg();
      return bench::MakeCluster(config, 1);
    });
  }
}

// ---------------------------------------------------------------------------
// Mixed-op concurrent sharded replay: determinism across thread counts.
// ---------------------------------------------------------------------------

TEST(OpApiTest, MixedOpShardedReplayIsDeterministicAcrossThreadCounts) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 2000;
  workload::Trace trace = workload::MakeYcsbTrace(ycsb, 30000, /*seed=*/7);
  workload::OpMix mix;
  mix.delete_fraction = 0.05;
  mix.expire_fraction = 0.05;
  mix.multiget_fraction = 0.25;
  workload::ApplyOpMix(&trace, mix);

  const auto run_with = [&trace](int threads) {
    bench::ShardedEngineDeployment d =
        bench::MakeShardedEngine(SmallPool(/*capacity=*/300), DittoCfg(), /*num_shards=*/8);
    sim::RunOptions options;
    options.threads = threads;
    options.partition_seed = 42;
    options.warmup_fraction = 0.2;
    options.miss_penalty_us = 50.0;
    options.multiget_batch = 8;
    options.expire_ttl_ticks = 256;
    return sim::RunTraceSharded(d.raw, trace, d.nodes, options);
  };

  const sim::RunResult r1 = run_with(1);
  EXPECT_GT(r1.gets, 0u);
  EXPECT_GT(r1.deletes, 0u) << "the mix must replay deletes";
  EXPECT_GT(r1.expired, 0u) << "expire + later lookup must reclaim objects";
  for (const int threads : {2, 8}) {
    const sim::RunResult r = run_with(threads);
    EXPECT_EQ(r.gets, r1.gets) << "threads=" << threads;
    EXPECT_EQ(r.hits, r1.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, r1.misses) << "threads=" << threads;
    EXPECT_EQ(r.sets, r1.sets) << "threads=" << threads;
    EXPECT_EQ(r.deletes, r1.deletes) << "threads=" << threads;
    EXPECT_EQ(r.evictions, r1.evictions) << "threads=" << threads;
    EXPECT_EQ(r.expired, r1.expired) << "threads=" << threads;
    EXPECT_EQ(r.nic_messages, r1.nic_messages) << "threads=" << threads;
    EXPECT_EQ(r.nic_doorbells, r1.nic_doorbells) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.hit_rate, r1.hit_rate) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.throughput_mops, r1.throughput_mops) << "threads=" << threads;
  }
}

TEST(OpApiTest, OpMixIsAPureFunctionOfIndex) {
  workload::OpMix mix;
  mix.delete_fraction = 0.1;
  mix.expire_fraction = 0.1;
  mix.multiget_fraction = 0.3;
  int deletes = 0;
  int expires = 0;
  int multigets = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    const workload::Op op = workload::MixedOpAt(workload::Op::kGet, i, mix);
    EXPECT_EQ(op, workload::MixedOpAt(workload::Op::kGet, i, mix)) << "pure function";
    deletes += op == workload::Op::kDelete ? 1 : 0;
    expires += op == workload::Op::kExpire ? 1 : 0;
    multigets += op == workload::Op::kMultiGet ? 1 : 0;
    // Writes are never rewritten.
    EXPECT_EQ(workload::MixedOpAt(workload::Op::kUpdate, i, mix), workload::Op::kUpdate);
  }
  EXPECT_NEAR(deletes, 1000, 150);
  EXPECT_NEAR(expires, 1000, 150);
  EXPECT_NEAR(multigets, 3000, 300);
}

// ---------------------------------------------------------------------------
// sim::ShardForKey: the seeded partition contract documented in runner.h.
// ---------------------------------------------------------------------------

TEST(ShardForKeyTest, PartitionIsBalancedAcrossShardCounts) {
  constexpr uint64_t kKeys = 100000;
  for (const size_t shards : {2u, 5u, 8u, 64u}) {
    std::vector<uint64_t> counts(shards, 0);
    for (uint64_t key = 0; key < kKeys; ++key) {
      const uint32_t s = sim::ShardForKey(key, shards, /*seed=*/1);
      ASSERT_LT(s, shards);
      counts[s]++;
    }
    const double expected = static_cast<double>(kKeys) / static_cast<double>(shards);
    for (const uint64_t c : counts) {
      EXPECT_GT(static_cast<double>(c), 0.8 * expected) << "shards=" << shards;
      EXPECT_LT(static_cast<double>(c), 1.2 * expected) << "shards=" << shards;
    }
  }
}

TEST(ShardForKeyTest, StableUnderAFixedSeedAndReshuffledByNewSeeds) {
  // Stability: the partition is a pure function of (key, shards, seed) — the
  // determinism contract RunTraceSharded's thread-count invariance rests on.
  std::vector<uint32_t> first;
  for (uint64_t key = 0; key < 4096; ++key) {
    first.push_back(sim::ShardForKey(key, 16, /*seed=*/99));
  }
  for (uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(sim::ShardForKey(key, 16, 99), first[key]) << "key=" << key;
  }
  // Different seeds produce materially different partitions (reshuffling).
  uint64_t moved = 0;
  for (uint64_t key = 0; key < 4096; ++key) {
    moved += sim::ShardForKey(key, 16, /*seed=*/100) != first[key] ? 1 : 0;
  }
  EXPECT_GT(moved, 4096u * 8 / 10) << "a new seed must reshuffle most keys";
}

}  // namespace
}  // namespace ditto
