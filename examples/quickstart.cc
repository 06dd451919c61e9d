// Quickstart: stand up a memory pool, attach a Ditto client, and run basic
// Get/Set/Delete/TTL/MultiGet traffic with the adaptive LRU+LFU
// configuration, plus the typed CacheOp batch protocol the experiment runner
// uses.
//
//   ./examples/quickstart
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/ditto_client.h"
#include "dm/pool.h"
#include "sim/adapters.h"

int main() {
  using namespace ditto;

  // 1. The memory pool: one memory node with 64 MiB of DRAM, a 1-core
  //    controller, and room for 20k cached objects.
  dm::PoolConfig pool_config;
  pool_config.memory_bytes = 64 << 20;
  pool_config.num_buckets = 16384;
  pool_config.capacity_objects = 20000;
  dm::MemoryPool pool(pool_config);

  // 2. The Ditto server side: installs the adaptive-weight controller on the
  //    memory node. Construct exactly once per pool.
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};  // adaptive between two experts
  core::DittoServer server(&pool, config);

  // 3. A client (one per application thread in the compute pool). All cache
  //    operations execute as one-sided remote memory accesses.
  rdma::ClientContext ctx(/*id=*/0);
  core::DittoClient client(&pool, &ctx, config);

  // 4. Basic operations.
  client.Set("user:42", "{\"name\":\"ditto\",\"hp\":48}");
  std::string value;
  if (client.Get("user:42", &value)) {
    std::printf("hit : user:42 -> %s\n", value.c_str());
  }
  if (!client.Get("user:43", &value)) {
    std::printf("miss: user:43 (as expected)\n");
  }
  client.Delete("user:42");
  std::printf("del : user:42 cached=%llu\n",
              static_cast<unsigned long long>(pool.cached_objects()));

  // 4b. TTLs and pipelined multi-gets. A Set with ttl_ticks arms lazy expiry
  //     (the next lookup past the deadline reclaims the object); a multi-get
  //     is Gets inside one doorbell chain: an unbounded batching window holds
  //     the run's async metadata verbs, and closing it rings one doorbell.
  client.Set("session:1", "alive", /*ttl_ticks=*/100000);
  client.Set("user:44", "{\"name\":\"dittwo\"}");
  client.Set("user:45", "{\"name\":\"dittree\"}");
  size_t mget_found = 0;
  client.SetBatchOps(std::numeric_limits<size_t>::max());
  for (const char* key : {"user:44", "user:45", "user:46"}) {
    mget_found += client.Get(key, &value) ? 1 : 0;
  }
  client.SetBatchOps(0);
  std::printf("mget: %zu/3 hits (user:46 missing as expected)\n", mget_found);

  // 4c. The same operations as one typed batch through the CacheOp protocol
  //     (the surface the experiment runner and benches drive).
  sim::DittoCacheClient batch_client(&pool, &ctx, config);
  const std::vector<sim::CacheOp> batch = {
      sim::CacheOp::Set("proto:1", "v1"),
      sim::CacheOp::MultiGet("proto:1"),
      sim::CacheOp::MultiGet("user:44"),
      sim::CacheOp::Expire("proto:1", /*ttl_ticks=*/50000),
      sim::CacheOp::Delete("user:45"),
  };
  std::vector<sim::CacheResult> results(batch.size());
  batch_client.ExecuteBatch(batch, results.data());
  std::printf("proto: mget hit=%d/%d, expire ok=%d, delete ok=%d\n",
              results[1].status == sim::OpStatus::kHit,
              results[2].status == sim::OpStatus::kHit,
              results[3].status == sim::OpStatus::kStored,
              results[4].status == sim::OpStatus::kDeleted);

  // 5. Fill past capacity: the client evicts with sample-based multi-expert
  //    eviction and records history entries for regret learning.
  for (int i = 0; i < 40000; ++i) {
    client.Set("key-" + std::to_string(i), std::string(200, 'v'));
  }
  const core::DittoStats& stats = client.stats();
  std::printf("\nafter 40k inserts over a 20k-object cache:\n");
  std::printf("  cached objects : %llu\n",
              static_cast<unsigned long long>(pool.cached_objects()));
  std::printf("  evictions      : %llu\n", static_cast<unsigned long long>(stats.evictions));
  std::printf("  expert weights : lru=%.3f lfu=%.3f\n", client.expert_weights()[0],
              client.expert_weights()[1]);

  // 6. Virtual-time accounting: every verb was charged to the client clock.
  std::printf("  client busy    : %.2f ms of simulated time, %llu reads / %llu writes / "
              "%llu atomics\n",
              ctx.clock().busy_us() / 1000.0, static_cast<unsigned long long>(ctx.reads),
              static_cast<unsigned long long>(ctx.writes),
              static_cast<unsigned long long>(ctx.atomics));
  return 0;
}
