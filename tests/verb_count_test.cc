// Paper-fidelity tests of the network cost of each operation: the number of
// one-sided verbs Ditto issues per Get/Set is the core of its performance
// argument (§4.1: Gets are two RDMA_READs; Sets are READ + WRITE + CAS).
// These tests pin the verb budget so refactors cannot silently add RTTs.
#include <gtest/gtest.h>

#include <string>

#include "core/ditto_client.h"
#include "dm/pool.h"

namespace ditto::core {
namespace {

struct VerbCounts {
  uint64_t reads;
  uint64_t writes;
  uint64_t atomics;
  uint64_t rpcs;
};

class VerbCountTest : public ::testing::Test {
 protected:
  VerbCountTest() : VerbCountTest(Config()) {}
  explicit VerbCountTest(const DittoConfig& config)
      : pool_(MakePool()), server_(&pool_, config), ctx_(0) {
    client_ = std::make_unique<DittoClient>(&pool_, &ctx_, config);
    // Pre-populate and warm the allocator so steady-state ops are measured.
    for (int i = 0; i < 64; ++i) {
      client_->Set("warm-" + std::to_string(i), "v");
    }
  }

  static dm::PoolConfig MakePool() {
    dm::PoolConfig config;
    config.memory_bytes = 16 << 20;
    config.num_buckets = 1024;
    config.capacity_objects = 10000;
    config.cost = rdma::CostModel::Disabled();
    return config;
  }

  static DittoConfig Config() {
    DittoConfig config;
    config.experts = {"lru", "lfu"};
    config.fc_threshold = 1000000;        // keep freq FAAs out of the counts
    config.fc_max_age_accesses = 0;       // no age-based flushes either
    return config;
  }

  VerbCounts Snapshot() const { return VerbCounts{ctx_.reads, ctx_.writes, ctx_.atomics,
                                                  ctx_.rpcs}; }
  VerbCounts Delta(const VerbCounts& before) const {
    return VerbCounts{ctx_.reads - before.reads, ctx_.writes - before.writes,
                      ctx_.atomics - before.atomics, ctx_.rpcs - before.rpcs};
  }

  dm::MemoryPool pool_;
  DittoServer server_;
  rdma::ClientContext ctx_;
  std::unique_ptr<DittoClient> client_;
};

TEST_F(VerbCountTest, GetHitIsTwoReadsPlusOneAsyncMetadataWrite) {
  client_->Set("key", "value");
  const VerbCounts before = Snapshot();
  EXPECT_TRUE(client_->Get("key", nullptr));
  const VerbCounts d = Delta(before);
  EXPECT_EQ(d.reads, 2u) << "bucket READ + object READ (paper §4.1)";
  EXPECT_EQ(d.writes, 1u) << "async last_ts update (off the critical path)";
  EXPECT_EQ(d.atomics, 0u) << "freq updates are absorbed by the FC cache";
  EXPECT_EQ(d.rpcs, 0u);
}

TEST_F(VerbCountTest, GetMissIsOneRead) {
  const VerbCounts before = Snapshot();
  EXPECT_FALSE(client_->Get("absent-key", nullptr));
  const VerbCounts d = Delta(before);
  EXPECT_EQ(d.reads, 1u) << "bucket READ only (no history entry to check)";
  EXPECT_EQ(d.writes, 0u);
  EXPECT_EQ(d.atomics, 0u);
}

TEST_F(VerbCountTest, SetUpdateIsReadWriteCas) {
  client_->Set("key", "value");
  client_->Get("key", nullptr);  // ensure recycled runs exist locally
  const VerbCounts before = Snapshot();
  client_->Set("key", "new-value");
  const VerbCounts d = Delta(before);
  EXPECT_EQ(d.reads, 1u) << "bucket READ (paper: search the remote hash table)";
  // Object WRITE (sync) + async last_ts metadata write.
  EXPECT_EQ(d.writes, 2u);
  EXPECT_EQ(d.atomics, 1u) << "slot pointer CAS";
  EXPECT_EQ(d.rpcs, 0u) << "allocation recycles a local run: zero verbs";
}

TEST_F(VerbCountTest, SetInsertUnderCapacityCost) {
  const VerbCounts before = Snapshot();
  client_->Set("brand-new-key", "value");
  const VerbCounts d = Delta(before);
  // Insert path: update-check bucket READ + superblock READ + claim-phase
  // bucket READ, object WRITE + combined metadata WRITE, count FAA + slot
  // CAS. No eviction (under capacity), no RPC (local segment).
  EXPECT_EQ(d.reads, 3u);
  EXPECT_EQ(d.writes, 2u);
  EXPECT_EQ(d.atomics, 2u);
  EXPECT_EQ(d.rpcs, 0u);
}

TEST_F(VerbCountTest, ValidatedInsertPaysOneExtraRead) {
  // Contended deployments (validate_inserts) add exactly one duplicate-
  // validation bucket READ after publishing — the RACE-hashing re-read that
  // lets concurrent inserters of one key converge on a single copy.
  DittoConfig config = Config();
  config.validate_inserts = true;
  rdma::ClientContext ctx(2);
  DittoClient client(&pool_, &ctx, config);
  client.Set("warm", "v");  // warm the allocator/segment
  const uint64_t reads_before = ctx.reads;
  client.Set("validated-new-key", "value");
  EXPECT_EQ(ctx.reads - reads_before, 4u) << "3 insert READs + 1 validation READ";
}

TEST_F(VerbCountTest, DeleteIsReadPlusCas) {
  client_->Set("key", "value");
  const VerbCounts before = Snapshot();
  EXPECT_TRUE(client_->Delete("key"));
  const VerbCounts d = Delta(before);
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.atomics, 2u) << "slot CAS + async object-count FAA";
}

TEST_F(VerbCountTest, SamplingEvictionUsesOneReadPerSampleBatch) {
  // Fill to capacity so the next insert evicts.
  dm::PoolConfig pool_config = MakePool();
  pool_config.capacity_objects = 128;
  pool_config.num_buckets = 64;  // dense table: one sample READ suffices
  dm::MemoryPool pool(pool_config);
  DittoServer server(&pool, Config());
  rdma::ClientContext ctx(1);
  DittoClient client(&pool, &ctx, Config());
  for (int i = 0; i < 128; ++i) {
    client.Set("fill-" + std::to_string(i), "v");
  }
  const uint64_t reads_before = ctx.reads;
  client.Set("overflow-key", "v");
  const uint64_t eviction_reads = ctx.reads - reads_before;
  // Insert costs 3 reads (see above); the sampled eviction should add only a
  // couple of sample READs on a dense table.
  EXPECT_LE(eviction_reads, 3u + 4u) << "sampling must not scan the table";
  EXPECT_GE(client.stats().evictions, 1u);
}

// Experts with extension words (LRU-K keeps its last K access timestamps
// with the object, paper §4.4) add the ext-word traffic to each op.
class ExtWordVerbCountTest : public VerbCountTest {
 protected:
  ExtWordVerbCountTest() : VerbCountTest(ExtConfig()) {}

  static DittoConfig ExtConfig() {
    DittoConfig config = Config();
    config.experts = {"lru", "lruk"};
    return config;
  }
};

TEST_F(ExtWordVerbCountTest, SetUpdateReadsExtWordsBeforeWriteAndCas) {
  client_->Set("key", "value");
  client_->Get("key", nullptr);
  const VerbCounts before = Snapshot();
  EXPECT_TRUE(client_->Set("key", "new-value"));
  const VerbCounts d = Delta(before);
  EXPECT_EQ(d.reads, 2u) << "bucket READ + ext-word READ of the old copy";
  // Object WRITE (sync) + async last_ts write + async ext-word write.
  EXPECT_EQ(d.writes, 3u);
  EXPECT_EQ(d.atomics, 1u) << "slot pointer CAS";
  EXPECT_EQ(d.rpcs, 0u);
}

TEST_F(ExtWordVerbCountTest, SetInsertInitializesExtWordsWithoutVerbs) {
  const VerbCounts before = Snapshot();
  EXPECT_TRUE(client_->Set("brand-new-key", "value"));
  const VerbCounts d = Delta(before);
  // Same budget as without extension words: the initial ext words ride in
  // the object WRITE.
  EXPECT_EQ(d.reads, 3u);
  EXPECT_EQ(d.writes, 2u);
  EXPECT_EQ(d.atomics, 2u);
  EXPECT_EQ(d.rpcs, 0u);
}

TEST_F(ExtWordVerbCountTest, GetHitWritesExtWordsAsync) {
  client_->Set("key", "value");
  const VerbCounts before = Snapshot();
  EXPECT_TRUE(client_->Get("key", nullptr));
  const VerbCounts d = Delta(before);
  EXPECT_EQ(d.reads, 2u) << "bucket READ + object READ (ext words ride along)";
  EXPECT_EQ(d.writes, 2u) << "async last_ts write + async ext-word write";
  EXPECT_EQ(d.atomics, 0u);
  EXPECT_EQ(d.rpcs, 0u);
}

}  // namespace
}  // namespace ditto::core
