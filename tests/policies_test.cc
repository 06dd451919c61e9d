#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "policies/algorithms.h"
#include "policies/policy.h"
#include "policies/precise.h"

namespace ditto::policy {
namespace {

Metadata Meta(uint64_t insert_ts, uint64_t last_ts, uint64_t freq, uint32_t size = 256,
              uint64_t now = 1000) {
  Metadata m;
  m.insert_ts = insert_ts;
  m.last_ts = last_ts;
  m.freq = freq;
  m.size_bytes = size;
  m.now = now;
  return m;
}

TEST(PolicyRegistryTest, AllTwelveAlgorithmsConstructible) {
  EXPECT_EQ(AllPolicyNames().size(), 12u);
  for (const std::string& name : AllPolicyNames()) {
    auto policy = MakePolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_EQ(MakePolicy("nonsense"), nullptr);
}

TEST(LruTest, OlderAccessEvictedFirst) {
  auto lru = MakePolicy("lru");
  EXPECT_LT(lru->Priority(Meta(0, 10, 5)), lru->Priority(Meta(0, 20, 1)));
}

TEST(MruTest, NewerAccessEvictedFirst) {
  auto mru = MakePolicy("mru");
  EXPECT_LT(mru->Priority(Meta(0, 20, 1)), mru->Priority(Meta(0, 10, 5)));
}

TEST(LfuTest, LessFrequentEvictedFirst) {
  auto lfu = MakePolicy("lfu");
  EXPECT_LT(lfu->Priority(Meta(0, 99, 2)), lfu->Priority(Meta(0, 1, 7)));
}

TEST(FifoTest, OlderInsertEvictedFirst) {
  auto fifo = MakePolicy("fifo");
  EXPECT_LT(fifo->Priority(Meta(5, 999, 9)), fifo->Priority(Meta(6, 1, 1)));
}

TEST(SizeTest, LargerObjectEvictedFirst) {
  auto size = MakePolicy("size");
  EXPECT_LT(size->Priority(Meta(0, 0, 0, 1024)), size->Priority(Meta(0, 0, 0, 64)));
}

TEST(GdsTest, CheaperPerByteEvictedFirst) {
  auto gds = MakePolicy("gds");
  Metadata big = Meta(0, 0, 1, 1024);
  Metadata small = Meta(0, 0, 1, 64);
  EXPECT_LT(gds->Priority(big), gds->Priority(small));
}

TEST(GdsTest, InflationRaisesFloorAfterEviction) {
  auto gds = MakePolicy("gds");
  Metadata victim = Meta(0, 0, 1, 64);
  const double before = gds->Priority(victim);
  gds->OnEvict(victim);
  // After an eviction, new priorities include the inflation value L.
  EXPECT_GT(gds->Priority(victim), before);
}

// GreedyDual freezes L into an object's priority when it is accessed: a
// small (valuable) object last touched at L = 0 loses to a large object
// touched after L rose past the small one's H. Adding the current L to
// every candidate at eviction time instead ranks them exactly like SIZE.
TEST(GdsTest, InflationIsFrozenAtAccess) {
  auto gds = MakePolicy("gds");
  ASSERT_EQ(gds->extension_words(), 1);
  Metadata small = Meta(0, 0, 1, 64);
  gds->Update(small);  // H = 0 + 1/64
  Metadata victim = Meta(0, 0, 1, 32);
  gds->OnEvict(victim);  // L = 1/32 > 1/64
  Metadata large = Meta(0, 0, 1, 1024);
  gds->Update(large);  // H = 1/32 + 1/1024
  EXPECT_LT(gds->Priority(small), gds->Priority(large));
}

TEST(GdsfTest, InflationIsFrozenAtAccess) {
  auto gdsf = MakePolicy("gdsf");
  ASSERT_EQ(gdsf->extension_words(), 1);
  Metadata small = Meta(0, 0, 1, 64);
  gdsf->Update(small);
  Metadata victim = Meta(0, 0, 1, 32);
  gdsf->OnEvict(victim);
  Metadata large = Meta(0, 0, 1, 1024);
  gdsf->Update(large);
  EXPECT_LT(gdsf->Priority(small), gdsf->Priority(large));
}

TEST(GdsfTest, FrequencyProtectsSmallHotObjects) {
  auto gdsf = MakePolicy("gdsf");
  Metadata hot = Meta(0, 0, 100, 256);
  Metadata cold = Meta(0, 0, 1, 256);
  EXPECT_LT(gdsf->Priority(cold), gdsf->Priority(hot));
}

TEST(LfudaTest, AgingBeatsStaleFrequency) {
  auto lfuda = MakePolicy("lfuda");
  // A hot object accessed 10 times while L = 0: its key freezes at 10.
  Metadata stale_hot = Meta(0, 0, 10);
  lfuda->Update(stale_hot);
  ASSERT_DOUBLE_EQ(lfuda->Priority(stale_hot), 10.0);
  // Evictions of freq-5 objects inflate L: 5, then 10, then 15.
  for (int i = 0; i < 3; ++i) {
    Metadata victim = Meta(0, 0, 5);
    lfuda->OnEvict(victim);
  }
  // A fresh object accessed once now has key L + 1 = 16 > 10: the stale-hot
  // object ages out first despite its higher raw frequency.
  Metadata fresh = Meta(0, 0, 1);
  lfuda->Update(fresh);
  EXPECT_GT(lfuda->Priority(fresh), lfuda->Priority(stale_hot));
}

TEST(LfudaTest, UsesOneExtensionWord) {
  EXPECT_EQ(MakePolicy("lfuda")->extension_words(), 1);
}

TEST(LrukTest, FallsBackToFifoBelowKAccesses) {
  LrukPolicy lruk;
  Metadata m = Meta(42, 100, 1);
  EXPECT_DOUBLE_EQ(lruk.Priority(m), 42.0);
}

TEST(LrukTest, UsesKthLastTimestampRing) {
  LrukPolicy lruk;
  Metadata m = Meta(0, 0, 0);
  // Simulate accesses at times 10, 20, 30 (K = 2).
  for (uint64_t t : {10, 20, 30}) {
    m.freq++;
    m.now = t;
    lruk.Update(m);
  }
  // After 3 accesses the 2nd-most-recent is at t=20.
  EXPECT_DOUBLE_EQ(lruk.Priority(m), 20.0);
}

TEST(LrukTest, ExtensionWordCount) {
  LrukPolicy lruk;
  EXPECT_EQ(lruk.extension_words(), 2);
}

TEST(LrfuTest, RecentFrequentHasHigherCrf) {
  LrfuPolicy lrfu;
  Metadata frequent = Meta(0, 0, 0, 256, 0);
  for (uint64_t t : {10, 20, 30}) {
    frequent.freq++;
    frequent.now = t;
    lrfu.Update(frequent);
  }
  Metadata once = Meta(0, 0, 0, 256, 0);
  once.freq = 1;
  once.now = 30;
  lrfu.Update(once);
  frequent.now = 40;
  once.now = 40;
  EXPECT_GT(lrfu.Priority(frequent), lrfu.Priority(once));
}

TEST(LrfuTest, CrfDecaysOverTime) {
  LrfuPolicy lrfu;
  Metadata m = Meta(0, 0, 0, 256, 0);
  m.freq = 1;
  m.now = 0;
  lrfu.Update(m);
  m.now = 100;
  const double soon = lrfu.Priority(m);
  m.now = 1'000'000;
  const double late = lrfu.Priority(m);
  EXPECT_LT(late, soon);
}

TEST(LirsTest, SmallIrrSurvivesSampling) {
  LirsPolicy lirs;
  // Object A: accessed at 90 and 100 (IRR 10). Object B: at 10 and 100
  // (IRR 90). LIRS keeps A (low IRR) and evicts B.
  Metadata a = Meta(0, 100, 5);
  a.ext[0] = 90;
  Metadata b = Meta(0, 100, 5);
  b.ext[0] = 10;
  EXPECT_GT(lirs.Priority(a), lirs.Priority(b));
}

TEST(LirsTest, ColdObjectsRankByRecency) {
  LirsPolicy lirs;
  Metadata seen_once_old = Meta(0, 10, 1);
  Metadata seen_once_new = Meta(0, 50, 1);
  EXPECT_LT(lirs.Priority(seen_once_old), lirs.Priority(seen_once_new));
}

TEST(HyperbolicTest, RatePerByteOrdering) {
  auto hyp = MakePolicy("hyperbolic");
  // Same age and size: higher frequency wins.
  EXPECT_LT(hyp->Priority(Meta(0, 0, 2, 256, 100)), hyp->Priority(Meta(0, 0, 50, 256, 100)));
  // Same frequency: younger object has a higher rate.
  EXPECT_LT(hyp->Priority(Meta(0, 0, 10, 256, 1000)), hyp->Priority(Meta(900, 0, 10, 256, 1000)));
}

// ---- Property sweep: every policy must give a total, finite ordering ------

class PolicyPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyPropertyTest, PrioritiesAreFinite) {
  auto policy = MakePolicy(GetParam());
  for (uint64_t ts = 0; ts < 100; ts += 7) {
    for (uint64_t freq = 0; freq < 50; freq += 5) {
      Metadata m = Meta(ts, ts + 5, freq, 64 + static_cast<uint32_t>(ts) * 8, ts + 100);
      const double p = policy->Priority(m);
      EXPECT_TRUE(std::isfinite(p)) << GetParam() << " ts=" << ts << " freq=" << freq;
    }
  }
}

TEST_P(PolicyPropertyTest, UpdateKeepsExtensionWordsInBounds) {
  auto policy = MakePolicy(GetParam());
  ASSERT_LE(policy->extension_words(), Metadata::kMaxExtensionWords);
  Metadata m = Meta(0, 0, 0);
  for (uint64_t t = 1; t <= 200; ++t) {
    m.freq++;
    m.now = t;
    m.last_ts = t;
    policy->Update(m);
  }
  EXPECT_TRUE(std::isfinite(policy->Priority(m)));
}

TEST_P(PolicyPropertyTest, PriorityIsDeterministic) {
  auto policy = MakePolicy(GetParam());
  Metadata m = Meta(3, 17, 5);
  EXPECT_DOUBLE_EQ(policy->Priority(m), policy->Priority(m));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPropertyTest,
                         ::testing::ValuesIn(AllPolicyNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---- Precise structures ----------------------------------------------------

TEST(PreciseLruTest, EvictsLeastRecentlyUsed) {
  PreciseLru lru;
  lru.Touch(1);
  lru.Touch(2);
  lru.Touch(3);
  lru.Touch(1);  // 2 is now LRU
  EXPECT_EQ(lru.EvictVictim(), 2u);
  EXPECT_EQ(lru.EvictVictim(), 3u);
  EXPECT_EQ(lru.EvictVictim(), 1u);
}

TEST(PreciseLruTest, EraseRemoves) {
  PreciseLru lru;
  lru.Touch(1);
  lru.Touch(2);
  lru.Erase(1);
  EXPECT_FALSE(lru.Contains(1));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.EvictVictim(), 2u);
}

TEST(PreciseLfuTest, EvictsLeastFrequent) {
  PreciseLfu lfu;
  lfu.Touch(1);
  lfu.Touch(1);
  lfu.Touch(2);
  lfu.Touch(3);
  lfu.Touch(3);
  lfu.Touch(3);
  EXPECT_EQ(lfu.EvictVictim(), 2u);
  EXPECT_EQ(lfu.FrequencyOf(3), 3u);
}

TEST(PreciseLfuTest, TieBrokenByRecency) {
  PreciseLfu lfu;
  lfu.Touch(1);
  lfu.Touch(2);
  // Both have frequency 1; the older (1) goes first.
  EXPECT_EQ(lfu.EvictVictim(), 1u);
}

TEST(PreciseCacheTest, CapacityIsRespected) {
  PreciseCache cache(3, PrecisePolicyKind::kLru);
  for (uint64_t k = 0; k < 10; ++k) {
    cache.Access(k);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses, 10u);
}

TEST(PreciseCacheTest, LruKeepsRecentKeys) {
  PreciseCache cache(2, PrecisePolicyKind::kLru);
  cache.Access(1);
  cache.Access(2);
  cache.Access(1);
  cache.Access(3);  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(PreciseCacheTest, LfuKeepsFrequentKeys) {
  PreciseCache cache(2, PrecisePolicyKind::kLfu);
  cache.Access(1);
  cache.Access(1);
  cache.Access(1);
  cache.Access(2);
  cache.Access(3);  // evicts 2 (freq 1), never 1 (freq 3)
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(PreciseCacheTest, ResizeShrinkEvicts) {
  PreciseCache cache(10, PrecisePolicyKind::kLru);
  for (uint64_t k = 0; k < 10; ++k) {
    cache.Access(k);
  }
  cache.Resize(4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_TRUE(cache.Contains(9));  // most recent survive
  EXPECT_FALSE(cache.Contains(0));
}

TEST(PreciseCacheTest, RandomPolicyStaysWithinCapacity) {
  PreciseCache cache(5, PrecisePolicyKind::kRandom, /*seed=*/3);
  for (uint64_t k = 0; k < 1000; ++k) {
    cache.Access(k % 37);
    cache.Access(k % 37);  // immediate re-access: always a hit
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_GE(cache.hits, 1000u);
}

// Elastic-scaling oracle: Resize must hold the size invariant and keep the
// structure's bookkeeping consistent under every policy kind — the tentpole's
// shrink behaviour is validated against this.
class PreciseCacheResizeTest : public ::testing::TestWithParam<PrecisePolicyKind> {};

TEST_P(PreciseCacheResizeTest, ShrinkEvictsDownAndExpandGrows) {
  PreciseCache cache(16, GetParam(), /*seed=*/5);
  for (uint64_t k = 0; k < 16; ++k) {
    cache.Access(k);
  }
  ASSERT_EQ(cache.size(), 16u);

  cache.Resize(5);
  EXPECT_EQ(cache.capacity(), 5u);
  EXPECT_EQ(cache.size(), 5u);
  // The index and the eviction structure must agree: every key the cache
  // claims to hold must hit, and exactly 5 of the original keys survive.
  int survivors = 0;
  for (uint64_t k = 0; k < 16; ++k) {
    if (cache.Contains(k)) {
      survivors++;
      EXPECT_TRUE(cache.Access(k)) << "contained key must hit after shrink";
    }
  }
  EXPECT_EQ(survivors, 5);
  EXPECT_EQ(cache.size(), 5u);

  // Admissions after the shrink respect the new capacity.
  for (uint64_t k = 100; k < 120; ++k) {
    cache.Access(k);
  }
  EXPECT_EQ(cache.size(), 5u);

  // Expand: no eviction, and the cache grows into the new budget.
  cache.Resize(12);
  EXPECT_EQ(cache.size(), 5u) << "expanding must not evict";
  for (uint64_t k = 200; k < 240; ++k) {
    cache.Access(k);
  }
  EXPECT_EQ(cache.size(), 12u);
}

TEST_P(PreciseCacheResizeTest, RepeatedShrinkToOneAndBack) {
  PreciseCache cache(8, GetParam(), /*seed=*/11);
  for (uint64_t round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 8; ++k) {
      cache.Access(round * 8 + k);
    }
    cache.Resize(1);
    EXPECT_EQ(cache.size(), 1u);
    cache.Resize(8);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PreciseCacheResizeTest,
                         ::testing::Values(PrecisePolicyKind::kLru, PrecisePolicyKind::kLfu,
                                           PrecisePolicyKind::kFifo,
                                           PrecisePolicyKind::kRandom),
                         [](const ::testing::TestParamInfo<PrecisePolicyKind>& info) {
                           switch (info.param) {
                             case PrecisePolicyKind::kLru:
                               return "Lru";
                             case PrecisePolicyKind::kLfu:
                               return "Lfu";
                             case PrecisePolicyKind::kFifo:
                               return "Fifo";
                             case PrecisePolicyKind::kRandom:
                               return "Random";
                           }
                           return "Unknown";
                         });

TEST(PreciseCacheTest, RandomShrinkKeepsSwapEraseIndexConsistent) {
  // kRandom eviction swap-erases from the key vector; a shrink drives many
  // consecutive swap-erases, so every surviving key's stored position must
  // still be exact (a stale position would evict the wrong key or crash).
  PreciseCache cache(64, PrecisePolicyKind::kRandom, /*seed=*/7);
  for (uint64_t k = 0; k < 64; ++k) {
    cache.Access(k);
  }
  cache.Resize(8);
  ASSERT_EQ(cache.size(), 8u);
  uint64_t hits_before = cache.hits;
  int contained = 0;
  for (uint64_t k = 0; k < 64; ++k) {
    if (cache.Contains(k)) {
      contained++;
      EXPECT_TRUE(cache.Access(k));
    }
  }
  EXPECT_EQ(contained, 8);
  EXPECT_EQ(cache.hits, hits_before + 8);
  // Interleave shrinks with fresh admissions to churn the vector further.
  for (uint64_t round = 0; round < 10; ++round) {
    for (uint64_t k = 1000 + round * 16; k < 1016 + round * 16; ++k) {
      cache.Access(k);
    }
    cache.Resize(8 - round % 4);
    EXPECT_LE(cache.size(), 8 - round % 4);
    cache.Resize(8);
  }
}

TEST(PreciseCacheTest, FifoIgnoresReaccess) {
  PreciseCache cache(2, PrecisePolicyKind::kFifo);
  cache.Access(1);
  cache.Access(2);
  cache.Access(1);  // hit, but FIFO order unchanged
  cache.Access(3);  // evicts 1 (oldest insert)
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

}  // namespace
}  // namespace ditto::policy
