#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ditto_client.h"
#include "dm/pool.h"
#include "sim/adapters.h"

namespace ditto::core {
namespace {

dm::PoolConfig PoolFor(uint64_t capacity_objects, size_t buckets = 2048) {
  dm::PoolConfig config;
  config.memory_bytes = 16 << 20;
  config.num_buckets = buckets;
  config.capacity_objects = capacity_objects;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

DittoConfig SingleLru() {
  DittoConfig config;
  config.experts = {"lru"};
  return config;
}

DittoConfig LruLfu() {
  DittoConfig config;
  config.experts = {"lru", "lfu"};
  return config;
}

TEST(DittoClientTest, SetGetRoundTrip) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  client.Set("alpha", "value-1");
  std::string value;
  EXPECT_TRUE(client.Get("alpha", &value));
  EXPECT_EQ(value, "value-1");
  EXPECT_EQ(client.stats().hits, 1u);
  EXPECT_EQ(client.stats().sets, 1u);
}

TEST(DittoClientTest, GetMissReturnsFalse) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  std::string value;
  EXPECT_FALSE(client.Get("never-set", &value));
  EXPECT_EQ(client.stats().misses, 1u);
}

TEST(DittoClientTest, UpdateReplacesValue) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  client.Set("k", "old");
  client.Set("k", "new-and-longer-value");
  std::string value;
  ASSERT_TRUE(client.Get("k", &value));
  EXPECT_EQ(value, "new-and-longer-value");
  EXPECT_EQ(pool.cached_objects(), 1u) << "update must not grow the object count";
}

TEST(DittoClientTest, DeleteRemovesKey) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  client.Set("k", "v");
  EXPECT_TRUE(client.Delete("k"));
  EXPECT_FALSE(client.Get("k", nullptr));
  EXPECT_FALSE(client.Delete("k")) << "double delete must be false";
  EXPECT_EQ(pool.cached_objects(), 0u);
}

TEST(DittoClientTest, ValueSizesAcrossBlockBoundaries) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  for (const size_t len : {size_t{1}, size_t{55}, size_t{56}, size_t{256}, size_t{900}}) {
    const std::string key = "key-" + std::to_string(len);
    const std::string value(len, 'x');
    client.Set(key, value);
    std::string out;
    ASSERT_TRUE(client.Get(key, &out)) << "len=" << len;
    EXPECT_EQ(out, value) << "len=" << len;
  }
}

TEST(DittoClientTest, EmptyValueSupported) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());
  client.Set("k", "");
  std::string out = "sentinel";
  ASSERT_TRUE(client.Get("k", &out));
  EXPECT_EQ(out, "");
}

TEST(DittoClientTest, ManyKeysAllRetrievableUnderCapacity) {
  dm::MemoryPool pool(PoolFor(2000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  for (int i = 0; i < 1000; ++i) {
    client.Set("key-" + std::to_string(i), "value-" + std::to_string(i));
  }
  int found = 0;
  std::string value;
  for (int i = 0; i < 1000; ++i) {
    if (client.Get("key-" + std::to_string(i), &value)) {
      EXPECT_EQ(value, "value-" + std::to_string(i));
      found++;
    }
  }
  // Everything fits under capacity; only bucket-overflow evictions (rare at
  // 1000 keys over 16384 slots) may drop a handful.
  EXPECT_GE(found, 990);
}

TEST(DittoClientTest, CapacityTriggersEviction) {
  dm::MemoryPool pool(PoolFor(100));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  for (int i = 0; i < 500; ++i) {
    client.Set("key-" + std::to_string(i), "v");
  }
  EXPECT_GT(client.stats().evictions, 300u);
  EXPECT_LE(pool.cached_objects(), 110u) << "object count must track capacity";
}

TEST(DittoClientTest, LruEvictionKeepsHotKeys) {
  // Table sized like a production deployment: ~8x slots per cached object so
  // one 5-slot sample usually carries several candidates.
  dm::MemoryPool pool(PoolFor(64, 64));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  // Insert hot keys and keep touching them while cold keys stream through.
  const std::vector<std::string> hot = {"hot-0", "hot-1", "hot-2", "hot-3"};
  for (const auto& k : hot) {
    client.Set(k, "hot");
  }
  for (int i = 0; i < 400; ++i) {
    client.Set("cold-" + std::to_string(i), "c");
    for (const auto& k : hot) {
      client.Get(k, nullptr);
    }
  }
  int hot_alive = 0;
  for (const auto& k : hot) {
    if (client.Get(k, nullptr)) {
      hot_alive++;
    }
  }
  EXPECT_GE(hot_alive, 3) << "sampled LRU must overwhelmingly keep the hot set";
}

TEST(DittoClientTest, AdaptiveModeMaintainsWeights) {
  dm::MemoryPool pool(PoolFor(50, 1024));
  DittoServer server(&pool, LruLfu());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, LruLfu());

  for (int i = 0; i < 300; ++i) {
    client.Set("k-" + std::to_string(i), "v");
    client.Get("k-" + std::to_string(i % 25), nullptr);
  }
  const auto& w = client.expert_weights();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0] + w[1], 1.0, 0.05);
  EXPECT_GT(client.stats().evictions, 0u);
}

TEST(DittoClientTest, StatsCountersConsistent) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, SingleLru());

  for (int i = 0; i < 50; ++i) {
    client.Set("k-" + std::to_string(i), "v");
  }
  for (int i = 0; i < 100; ++i) {
    client.Get("k-" + std::to_string(i), nullptr);  // half hit, half miss
  }
  EXPECT_EQ(client.stats().gets, 100u);
  EXPECT_EQ(client.stats().hits + client.stats().misses, 100u);
  EXPECT_EQ(client.stats().hits, 50u);
  EXPECT_EQ(client.stats().sets, 50u);
}

TEST(DittoClientTest, FrequencyCounterReachesTableAfterFlush) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoConfig config = SingleLru();
  config.fc_threshold = 100;  // large: nothing flushes organically
  DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, config);

  client.Set("k", "v");
  for (int i = 0; i < 7; ++i) {
    client.Get("k", nullptr);
  }
  client.FlushBuffers();
  // freq = 1 (insert) + 8 buffered accesses? Insert writes freq=1; the 7
  // Gets and the Set-touch buffered in the FC cache land on flush.
  rdma::ClientContext ctx2(1);
  rdma::Verbs verbs2(&pool.node(), &ctx2);
  ht::HashTable table(&pool, &verbs2);
  const uint64_t hash = HashKey("k");
  std::vector<ht::SlotView> bucket;
  table.ReadBucket(table.BucketIndexFor(hash), &bucket);
  bool checked = false;
  for (const auto& slot : bucket) {
    if (slot.IsObject() && slot.hash == hash) {
      EXPECT_GE(slot.freq, 8u);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(DittoClientTest, ConcurrentClientsDisjointKeys) {
  dm::MemoryPool pool(PoolFor(5000, 8192));
  DittoServer server(&pool, LruLfu());
  constexpr int kThreads = 8;
  constexpr int kKeys = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      rdma::ClientContext ctx(static_cast<uint32_t>(t));
      DittoClient client(&pool, &ctx, LruLfu());
      for (int i = 0; i < kKeys; ++i) {
        const std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        client.Set(key, "value-" + key);
      }
      std::string value;
      for (int i = 0; i < kKeys; ++i) {
        const std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        if (!client.Get(key, &value) || value != "value-" + key) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_LE(failures.load(), kThreads * kKeys / 100) << "under capacity, losses must be rare";
}

TEST(DittoClientTest, ConcurrentSameKeyUpdatesConverge) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoServer server(&pool, SingleLru());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      rdma::ClientContext ctx(static_cast<uint32_t>(t));
      DittoClient client(&pool, &ctx, SingleLru());
      for (int i = 0; i < 100; ++i) {
        client.Set("shared", "writer-" + std::to_string(t));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  rdma::ClientContext ctx(99);
  DittoClient reader(&pool, &ctx, SingleLru());
  std::string value;
  ASSERT_TRUE(reader.Get("shared", &value));
  EXPECT_EQ(value.rfind("writer-", 0), 0u) << "value must be one of the written values";
}

TEST(DittoClientTest, ExtensionPolicyPersistsMetadata) {
  dm::MemoryPool pool(PoolFor(1000));
  DittoConfig config;
  config.experts = {"lruk"};
  DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, config);

  client.Set("k", "v");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client.Get("k", nullptr));
  }
  // LRU-K ring timestamps live in the object's metadata header; a fresh
  // client must be able to keep operating on them (no corruption).
  rdma::ClientContext ctx2(1);
  DittoClient client2(&pool, &ctx2, config);
  EXPECT_TRUE(client2.Get("k", nullptr));
}

TEST(DittoClientTest, SfhtDisabledStillCorrect) {
  dm::MemoryPool pool(PoolFor(200, 1024));
  DittoConfig config = SingleLru();
  config.enable_sfht = false;
  DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, config);
  for (int i = 0; i < 300; ++i) {
    client.Set("k-" + std::to_string(i), "v");
  }
  EXPECT_GT(client.stats().evictions, 0u);
  EXPECT_TRUE(client.Get("k-299", nullptr));
}

// An invalid DittoConfig is rejected in every build type, not only where
// assertions are compiled in.
TEST(DittoClientConfigTest, EmptyExpertsThrow) {
  dm::MemoryPool pool(PoolFor(100));
  rdma::ClientContext ctx(0);
  DittoConfig config;
  config.experts.clear();
  EXPECT_THROW((DittoClient(&pool, &ctx, config)), std::invalid_argument);
}

TEST(DittoClientConfigTest, UnknownExpertThrows) {
  dm::MemoryPool pool(PoolFor(100));
  rdma::ClientContext ctx(0);
  DittoConfig config;
  config.experts = {"lru", "bogus"};
  EXPECT_THROW((DittoClient(&pool, &ctx, config)), std::invalid_argument);
}

TEST(DittoClientConfigTest, ExtensionWordsBeyondMetadataThrow) {
  dm::MemoryPool pool(PoolFor(100));
  rdma::ClientContext ctx(0);
  DittoConfig config;
  config.experts = {"lruk", "lrfu"};  // 2 + 2 words: exactly the budget
  EXPECT_NO_THROW((DittoClient(&pool, &ctx, config)));
  config.experts.push_back("lirs");  // one word over
  EXPECT_THROW((DittoClient(&pool, &ctx, config)), std::invalid_argument);
}

// History entries record the experts' votes in a 64-bit bitmap: 64 experts
// fit (and evict, vote and collect regrets through bit 63), 65 are rejected.
TEST(DittoClientConfigTest, AtMostSixtyFourExperts) {
  dm::MemoryPool pool(PoolFor(50, 64));
  DittoConfig config;
  config.experts.assign(64, "lru");
  DittoServer server(&pool, config);
  rdma::ClientContext ctx(0);
  DittoClient client(&pool, &ctx, config);
  for (int i = 0; i < 200; ++i) {
    client.Set("key-" + std::to_string(i), "v");
  }
  for (int i = 0; i < 200; ++i) {
    client.Get("key-" + std::to_string(i), nullptr);
  }
  EXPECT_GT(client.stats().evictions, 0u);
  EXPECT_GT(client.stats().regrets, 0u);

  config.experts.push_back("lru");
  EXPECT_THROW((DittoClient(&pool, &ctx, config)), std::invalid_argument);
}

}  // namespace
}  // namespace ditto::core
