#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dm/allocator.h"
#include "dm/pool.h"
#include "rdma/verbs.h"

namespace ditto::dm {
namespace {

PoolConfig SmallPool() {
  PoolConfig config;
  config.memory_bytes = 4 << 20;
  config.num_buckets = 512;
  config.segment_bytes = 16 << 10;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

TEST(PoolTest, LayoutIsSane) {
  MemoryPool pool(SmallPool());
  EXPECT_EQ(pool.table_addr(), kSuperblockBytes);
  EXPECT_GT(pool.heap_addr(), pool.table_addr());
  EXPECT_EQ(pool.heap_addr() % kBlockBytes, 0u);
  EXPECT_EQ(pool.heap_addr() + pool.heap_bytes(), pool.config().memory_bytes);
}

TEST(PoolTest, DefaultCapacityDerivedFromHeap) {
  MemoryPool pool(SmallPool());
  EXPECT_EQ(pool.capacity_objects(), pool.heap_bytes() / 256);
}

TEST(PoolTest, CapacityIsRuntimeAdjustable) {
  MemoryPool pool(SmallPool());
  pool.SetCapacityObjects(1234);
  EXPECT_EQ(pool.capacity_objects(), 1234u);
  pool.SetHistorySize(777);
  EXPECT_EQ(pool.node().arena().ReadU64(kHistSizeAddr), 777u);
}

TEST(PoolTest, RejectsMemoryTooSmallForTable) {
  PoolConfig config = SmallPool();
  // 512 buckets x 8 slots x 40 B = 160 KiB of table after the superblock.
  config.memory_bytes = kSuperblockBytes + 512 * 8 * 40;
  EXPECT_THROW(MemoryPool pool(config), std::invalid_argument);
  config.memory_bytes = 1024;  // smaller than the superblock alone
  EXPECT_THROW(MemoryPool pool(config), std::invalid_argument);
}

TEST(PoolTest, RejectsZeroBuckets) {
  PoolConfig config = SmallPool();
  config.num_buckets = 0;
  EXPECT_THROW(MemoryPool pool(config), std::invalid_argument);
}

TEST(PoolTest, RejectsNonPowerOfTwoBuckets) {
  PoolConfig config = SmallPool();
  const size_t rejected[] = {3, 96, 500, 513};
  for (size_t buckets : rejected) {
    config.num_buckets = buckets;
    EXPECT_THROW(MemoryPool pool(config), std::invalid_argument) << buckets;
  }
  const size_t accepted[] = {1, 2, 64, 512};
  for (size_t buckets : accepted) {
    config.num_buckets = buckets;
    EXPECT_NO_THROW(MemoryPool pool(config)) << buckets;
  }
}

TEST(PoolTest, RejectsNonPositiveSlotsPerBucket) {
  PoolConfig config = SmallPool();
  config.slots_per_bucket = 0;
  EXPECT_THROW(MemoryPool pool(config), std::invalid_argument);
  config.slots_per_bucket = -8;
  EXPECT_THROW(MemoryPool pool(config), std::invalid_argument);
}

TEST(AllocatorTest, AllocatesDistinctAlignedRuns) {
  MemoryPool pool(SmallPool());
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);
  RemoteAllocator alloc(&pool, &verbs);

  std::set<uint64_t> addrs;
  for (int i = 0; i < 100; ++i) {
    const uint64_t addr = alloc.AllocBlocks(4);
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(addr % kBlockBytes, 0u);
    EXPECT_GE(addr, pool.heap_addr());
    EXPECT_LT(addr + 4 * kBlockBytes, pool.heap_addr() + pool.heap_bytes());
    EXPECT_TRUE(addrs.insert(addr).second) << "duplicate allocation";
  }
}

TEST(AllocatorTest, FreedRunsAreRecycledLocallyWithoutVerbs) {
  MemoryPool pool(SmallPool());
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);
  RemoteAllocator alloc(&pool, &verbs);

  const uint64_t a = alloc.AllocBlocks(4);
  const uint64_t verbs_before = ctx.reads + ctx.writes + ctx.atomics;
  alloc.FreeBlocks(a, 4);
  const uint64_t b = alloc.AllocBlocks(4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ctx.reads + ctx.writes + ctx.atomics, verbs_before)
      << "local recycling must cost zero verbs (keeps Set at 3 RTTs)";
}

TEST(AllocatorTest, CrossClientRecyclingAfterRelease) {
  MemoryPool pool(SmallPool());
  rdma::ClientContext ctx1(1);
  rdma::ClientContext ctx2(2);
  rdma::Verbs verbs1(&pool.node(), &ctx1);
  rdma::Verbs verbs2(&pool.node(), &ctx2);
  RemoteAllocator alloc1(&pool, &verbs1);
  RemoteAllocator alloc2(&pool, &verbs2);

  const uint64_t a = alloc1.AllocBlocks(2);
  alloc1.FreeBlocks(a, 2);
  EXPECT_EQ(alloc1.local_cached_runs(), 1u);
  alloc1.ReleaseLocalCache();
  EXPECT_EQ(alloc1.local_cached_runs(), 0u);
  // Once released, the shared freelist in remote memory serves other clients
  // (fresh segments are preferred, so drain until the recycled run shows up).
  bool found = false;
  for (int i = 0; i < 1'000'000 && !found; ++i) {
    const uint64_t got = alloc2.AllocBlocks(2);
    if (got == a) {
      found = true;
    }
    ASSERT_NE(got, 0u) << "pool exhausted before the released run was served";
  }
  EXPECT_TRUE(found);
}

TEST(AllocatorTest, LocalCacheOverflowSpillsToSharedFreelist) {
  MemoryPool pool(SmallPool());
  rdma::ClientContext ctx1(1);
  rdma::ClientContext ctx2(2);
  rdma::Verbs verbs1(&pool.node(), &ctx1);
  rdma::Verbs verbs2(&pool.node(), &ctx2);
  RemoteAllocator alloc1(&pool, &verbs1);
  RemoteAllocator alloc2(&pool, &verbs2);

  // Fill the local cache past its byte bound; the overflow run must become
  // visible to other clients through the remote freelist.
  const size_t max_runs = RemoteAllocator::kLocalCacheBytes / kBlockBytes;
  std::vector<uint64_t> runs;
  for (size_t i = 0; i < max_runs + 1; ++i) {
    runs.push_back(alloc1.AllocBlocks(1));
    ASSERT_NE(runs.back(), 0u);
  }
  for (const uint64_t addr : runs) {
    alloc1.FreeBlocks(addr, 1);
  }
  EXPECT_EQ(alloc1.local_cached_runs(), max_runs);
  EXPECT_NE(alloc2.AllocBlocks(1), 0u) << "spilled run must be poppable remotely";
}

TEST(AllocatorTest, ExhaustionReturnsZero) {
  PoolConfig config = SmallPool();
  config.memory_bytes = 256 << 10;
  config.num_buckets = 64;
  MemoryPool pool(config);
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);
  RemoteAllocator alloc(&pool, &verbs);

  uint64_t allocated = 0;
  while (alloc.AllocBlocks(4) != 0) {
    allocated++;
    ASSERT_LT(allocated, 10'000'000u);
  }
  EXPECT_GT(allocated, 0u);
  // All further allocations fail until something is freed.
  EXPECT_EQ(alloc.AllocBlocks(4), 0u);
}

TEST(AllocatorTest, SplitsLargerRunsUnderExhaustion) {
  PoolConfig config = SmallPool();
  config.memory_bytes = 256 << 10;
  config.num_buckets = 64;
  MemoryPool pool(config);
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);
  RemoteAllocator alloc(&pool, &verbs);

  // Exhaust the heap with 8-block runs.
  std::vector<uint64_t> runs;
  uint64_t addr;
  while ((addr = alloc.AllocBlocks(8)) != 0) {
    runs.push_back(addr);
  }
  ASSERT_FALSE(runs.empty());
  // Free one big run; a smaller request must succeed by splitting it.
  alloc.FreeBlocks(runs[0], 8);
  const uint64_t small = alloc.AllocBlocks(3);
  EXPECT_EQ(small, runs[0]);
  // The 5-block remainder is immediately allocatable too.
  EXPECT_EQ(alloc.AllocBlocks(5), runs[0] + 3 * kBlockBytes);
}

TEST(AllocatorTest, ConcurrentAllocFreeKeepsRunsDisjoint) {
  MemoryPool pool(SmallPool());
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::set<uint64_t>> held(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &held, t] {
      rdma::ClientContext ctx(static_cast<uint32_t>(t));
      rdma::Verbs verbs(&pool.node(), &ctx);
      RemoteAllocator alloc(&pool, &verbs);
      std::vector<uint64_t> mine;
      for (int i = 0; i < kIters; ++i) {
        const uint64_t addr = alloc.AllocBlocks(2);
        if (addr != 0) {
          mine.push_back(addr);
        }
        if (i % 3 == 0 && !mine.empty()) {
          alloc.FreeBlocks(mine.back(), 2);
          mine.pop_back();
        }
      }
      held[t] = std::set<uint64_t>(mine.begin(), mine.end());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // No address may be held by two threads simultaneously.
  std::set<uint64_t> all;
  size_t total = 0;
  for (const auto& s : held) {
    total += s.size();
    all.insert(s.begin(), s.end());
  }
  EXPECT_EQ(all.size(), total);
}

TEST(PoolTest, SegmentRpcGrantsDisjointSegments) {
  MemoryPool pool(SmallPool());
  rdma::ClientContext ctx(0);
  rdma::Verbs verbs(&pool.node(), &ctx);
  std::string request(8, '\0');
  const uint64_t want = 4096;
  std::memcpy(request.data(), &want, 8);
  std::set<uint64_t> grants;
  for (int i = 0; i < 16; ++i) {
    const std::string resp = verbs.Rpc(kRpcAllocSegment, request);
    uint64_t granted = 0;
    std::memcpy(&granted, resp.data(), 8);
    ASSERT_NE(granted, 0u);
    EXPECT_TRUE(grants.insert(granted).second);
  }
  EXPECT_EQ(pool.segments_allocated(), 16u);
}

}  // namespace
}  // namespace ditto::dm
