// Contended multi-client tests: real threads racing on one shared
// dm::MemoryPool. Covers the slot-CAS serialization contract (no lost
// updates), duplicate-insert resolution converging to a single live copy,
// and sim::RunTraceContended end to end (consistent aggregate counters,
// nonzero contention counters under full key overlap). Runs in the ASan/TSan
// CI matrix; everything here must be sanitizer-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "hashtable/hash_table.h"
#include "rdma/verbs.h"

namespace ditto {
namespace {

dm::PoolConfig ContendedPool(uint64_t capacity_objects, size_t num_buckets = 1024) {
  dm::PoolConfig config;
  config.memory_bytes = 32 << 20;
  config.num_buckets = num_buckets;
  config.capacity_objects = capacity_objects;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

// A shared-pool Ditto deployment: one pool + server, one context/client per
// thread, with insert validation on (the contended engine's contract: racing
// inserters must converge on a single copy of a key).
bench::DittoDeployment Contended(const dm::PoolConfig& pool_config, core::DittoConfig config,
                                 int num_clients) {
  config.validate_inserts = true;
  return bench::MakeDitto(pool_config, config, num_clients);
}

// Two clients spinning CAS-increments on one slot's atomic word: every
// update must land exactly once (8-byte CAS linearizes them), and the sum of
// successful CASes equals the final word.
TEST(ContendedCasTest, TwoClientsSpinningOnOneSlotSerialize) {
  dm::MemoryPool pool(ContendedPool(1000));
  const uint64_t slot_addr = pool.table_addr() + 7 * ht::kSlotBytes;  // slot 7 of bucket 0
  constexpr int kThreads = 2;
  constexpr uint64_t kIncrementsPerThread = 20000;
  std::atomic<uint64_t> observed_failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, slot_addr, &observed_failures, t] {
      rdma::ClientContext ctx(static_cast<uint32_t>(t) + 1);
      rdma::Verbs verbs(&pool.node(), &ctx);
      ht::HashTable table(&pool, &verbs);
      uint64_t failures = 0;
      for (uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        uint64_t expected = table.ReadSlot(slot_addr).atomic_word;
        while (!table.CasAtomic(slot_addr, expected, expected + 1)) {
          failures++;
          expected = table.ReadSlot(slot_addr).atomic_word;
        }
      }
      observed_failures.fetch_add(failures);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  rdma::ClientContext ctx(99);
  rdma::Verbs verbs(&pool.node(), &ctx);
  ht::HashTable table(&pool, &verbs);
  EXPECT_EQ(table.ReadSlot(slot_addr).atomic_word, kThreads * kIncrementsPerThread)
      << "a lost update slipped through the CAS path";
  // Not asserted nonzero (a pathological schedule could serialize the
  // threads), but reported: contention is the point of this test.
  SUCCEED() << "observed " << observed_failures.load() << " CAS failures";
}

// Racing inserters of one key must converge on a single live copy: the
// post-publish duplicate-resolution pass (RACE-hashing style) reclaims every
// copy but the lowest-indexed slot.
TEST(ContendedCasTest, ConcurrentInsertsOfOneKeyConvergeToSingleCopy) {
  core::DittoConfig config;
  config.experts = {"lru"};
  bench::DittoDeployment d = Contended(ContendedPool(1000), config, 8);
  const std::string key = "contended-key";
  const std::string value = "same-value-on-every-client";

  std::atomic<int> start_gate{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < d.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      start_gate.fetch_add(1);
      while (start_gate.load() < static_cast<int>(d.clients.size())) {
      }
      EXPECT_TRUE(d.clients[c]->ditto().Set(key, value));
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Scan the key's bucket: exactly one live object slot may remain.
  rdma::ClientContext ctx(100);
  rdma::Verbs verbs(&d.pool->node(), &ctx);
  ht::HashTable table(d.pool.get(), &verbs);
  const uint64_t hash = HashKey(key);
  std::vector<ht::SlotView> bucket;
  ASSERT_TRUE(table.ReadBucket(table.BucketIndexFor(hash), &bucket));
  int live_copies = 0;
  for (const ht::SlotView& slot : bucket) {
    if (slot.IsObject() && slot.hash == hash) {
      live_copies++;
    }
  }
  EXPECT_EQ(live_copies, 1) << "duplicate-key resolution left " << live_copies << " copies";

  std::string got;
  EXPECT_TRUE(d.clients[0]->ditto().Get(key, &got));
  EXPECT_EQ(got, value);
  EXPECT_EQ(d.pool->cached_objects(), 1u) << "count accounting must survive the race";
}

// Model-based safety under full-overlap churn: every client writes the same
// deterministic value for a key, so any hit must return exactly that value —
// cross-key corruption, torn slot publication, or stale-pointer reads would
// all surface as a mismatch. (Which keys survive eviction is racy; what a
// surviving key returns is not.)
TEST(ContendedCasTest, OverlappedChurnNeverServesCorruptValues) {
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  bench::DittoDeployment d = Contended(ContendedPool(400, 256), config, 4);
  constexpr int kOpsPerClient = 8000;
  constexpr int kKeySpace = 1200;  // 3x capacity: constant eviction churn

  auto value_for = [](uint64_t key) {
    return "val-" + std::to_string(key) + "-" + std::string(key % 48, 'p');
  };

  std::vector<std::thread> threads;
  std::atomic<uint64_t> corrupt{0};
  for (size_t c = 0; c < d.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(0xC0DE + c);
      core::DittoClient& client = d.clients[c]->ditto();
      std::string got;
      for (int i = 0; i < kOpsPerClient; ++i) {
        const uint64_t key_id = rng.NextBelow(kKeySpace);
        const std::string key = "k" + std::to_string(key_id);
        if (rng.NextBelow(100) < 50) {
          got.clear();
          if (client.Get(key, &got) && got != value_for(key_id)) {
            corrupt.fetch_add(1);
          }
        } else {
          client.Set(key, value_for(key_id));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_LE(d.pool->cached_objects(), 400u + d.clients.size())
      << "capacity must hold under contended churn";
}

TEST(RunTraceContendedTest, FullOverlapReportsContentionAndConsistentCounters) {
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};

  // 4x-over-subscribed hot keyspace: constant insert/evict/update races.
  const workload::Trace trace =
      workload::MakeStationaryZipf(60000, /*num_keys=*/2048, /*theta=*/0.99, /*seed=*/7);

  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  // Whether two threads actually collide on a slot CAS is up to the host
  // scheduler; on a loaded machine (parallel ctest) all 8 threads can get
  // serialized and race zero times. Retry with fresh deployments until a
  // round shows contention — only a total absence across rounds is a bug.
  sim::RunResult r;
  for (int round = 0; round < 5; ++round) {
    bench::DittoDeployment d = Contended(ContendedPool(512, 512), config, 8);
    r = sim::RunTraceContended(d.raw, trace, d.nodes, options);
    if (r.cas_failures + r.insert_retries > 0) {
      break;
    }
  }

  const size_t measured = trace.size() - static_cast<size_t>(0.2 * trace.size());
  EXPECT_EQ(r.ops, measured);
  EXPECT_EQ(r.gets, r.hits + r.misses);
  EXPECT_GT(r.hit_rate, 0.0);
  EXPECT_GT(r.cas_failures + r.insert_retries, 0u)
      << "8 fully-overlapped clients on a 4x-over-subscribed keyspace must race";
}

// With a single client the contended engine degenerates to sequential
// in-order replay: hit counts match the interleaved engine exactly.
TEST(RunTraceContendedTest, SingleClientMatchesSequentialReplay) {
  core::DittoConfig config;
  config.experts = {"lru"};

  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 3000;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, 30000, /*seed=*/11);

  sim::RunOptions options;
  options.warmup_fraction = 0.25;

  bench::DittoDeployment contended = Contended(ContendedPool(1024), config, 1);
  const sim::RunResult a =
      sim::RunTraceContended(contended.raw, trace, contended.nodes, options);

  bench::DittoDeployment sequential = Contended(ContendedPool(1024), config, 1);
  const sim::RunResult b =
      sim::RunTrace(sequential.raw, trace, sequential.nodes, options);

  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.cas_failures, 0u);
  EXPECT_EQ(a.insert_retries, 0u);
}

}  // namespace
}  // namespace ditto
