#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rand.h"
#include "core/fc_cache.h"
#include "dm/pool.h"
#include "hashtable/hash_table.h"
#include "rdma/verbs.h"

namespace ditto::core {
namespace {

class FcCacheTest : public ::testing::Test {
 protected:
  FcCacheTest()
      : pool_(MakeConfig()), ctx_(0), verbs_(&pool_.node(), &ctx_), table_(&pool_, &verbs_) {}

  static dm::PoolConfig MakeConfig() {
    dm::PoolConfig config;
    config.memory_bytes = 1 << 20;
    config.num_buckets = 64;
    config.cost = rdma::CostModel::Disabled();
    return config;
  }

  uint64_t FreqAt(uint64_t slot_addr) { return table_.ReadSlot(slot_addr).freq; }

  // An FC cache whose flushes land on this fixture's table, as in DittoClient.
  FcCache MakeFc(int threshold, size_t capacity_bytes, bool enabled,
                 uint64_t max_age_accesses = 512) {
    return FcCache([this](uint64_t addr, uint64_t delta) { table_.AddFreqAsync(addr, delta); },
                   threshold, capacity_bytes, enabled, max_age_accesses);
  }

  dm::MemoryPool pool_;
  rdma::ClientContext ctx_;
  rdma::Verbs verbs_;
  ht::HashTable table_;
};

TEST_F(FcCacheTest, BuffersUntilThreshold) {
  FcCache fc = MakeFc(/*threshold=*/10, /*capacity_bytes=*/1 << 20, /*enabled=*/true);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  for (int i = 0; i < 9; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(FreqAt(slot), 0u) << "no remote FAA before the threshold";
  EXPECT_EQ(fc.flushes(), 0u);
  fc.RecordAccess(slot, 16);  // 10th access triggers the flush
  EXPECT_EQ(FreqAt(slot), 10u);
  EXPECT_EQ(fc.flushes(), 1u);
  EXPECT_EQ(fc.entry_count(), 0u);
}

TEST_F(FcCacheTest, ReducesFaaByThresholdFactor) {
  FcCache fc = MakeFc(10, 1 << 20, true);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  const uint64_t atomics_before = ctx_.atomics;
  for (int i = 0; i < 100; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(ctx_.atomics - atomics_before, 10u) << "1 FAA per 10 accesses";
  EXPECT_EQ(FreqAt(slot), 100u);
}

TEST_F(FcCacheTest, CapacityEvictsOldestEntry) {
  // Each entry costs 16 + 24 = 40 bytes; capacity of 100 holds two entries.
  FcCache fc = MakeFc(100, /*capacity_bytes=*/100, true);
  const uint64_t s1 = table_.BucketSlotAddr(1, 0);
  const uint64_t s2 = table_.BucketSlotAddr(2, 0);
  const uint64_t s3 = table_.BucketSlotAddr(3, 0);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s2, 16);
  fc.RecordAccess(s3, 16);  // evicts s1 (earliest insert)
  EXPECT_EQ(FreqAt(s1), 1u) << "evicted entry flushed its delta";
  EXPECT_EQ(FreqAt(s2), 0u);
  EXPECT_LE(fc.bytes_used(), 100u);
}

TEST_F(FcCacheTest, FlushAllDrainsEverything) {
  FcCache fc = MakeFc(100, 1 << 20, true);
  const uint64_t s1 = table_.BucketSlotAddr(1, 0);
  const uint64_t s2 = table_.BucketSlotAddr(2, 0);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s2, 16);
  fc.FlushAll();
  EXPECT_EQ(FreqAt(s1), 2u);
  EXPECT_EQ(FreqAt(s2), 1u);
  EXPECT_EQ(fc.entry_count(), 0u);
  EXPECT_EQ(fc.bytes_used(), 0u);
}

TEST_F(FcCacheTest, DisabledModeIssuesOneFaaPerAccess) {
  FcCache fc = MakeFc(10, 1 << 20, /*enabled=*/false);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  const uint64_t atomics_before = ctx_.atomics;
  for (int i = 0; i < 7; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(ctx_.atomics - atomics_before, 7u);
  EXPECT_EQ(FreqAt(slot), 7u);
}

TEST_F(FcCacheTest, DisabledPassthroughDoesNotCountFlushes) {
  // Regression: the disabled-mode passthrough used to bump flushes_ per
  // access, which skewed the flush metric benches compare across the
  // ablation. A per-access FAA is not a flush of a buffered delta.
  FcCache fc = MakeFc(10, 1 << 20, /*enabled=*/false);
  const uint64_t slot = table_.BucketSlotAddr(1, 0);
  for (int i = 0; i < 25; ++i) {
    fc.RecordAccess(slot, 16);
  }
  EXPECT_EQ(fc.flushes(), 0u) << "passthrough FAAs must not count as flushes";
  EXPECT_EQ(fc.entry_count(), 0u);
  EXPECT_EQ(fc.bytes_used(), 0u);
}

TEST_F(FcCacheTest, CapacityHoldsOnThresholdFlushAccesses) {
  // Regression: the threshold-flush branch used to skip the capacity-eviction
  // loop, so an access that triggered a flush could return with bytes_used_
  // still above capacity_bytes_. The capacity bound must hold after EVERY
  // access, whichever branch it takes.
  constexpr size_t kCapacity = 120;  // three 40-byte entries
  FcCache fc = MakeFc(/*threshold=*/2, kCapacity, /*enabled=*/true);
  Rng rng(0xFCFC);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t slot = table_.BucketSlotAddr(1 + rng.NextBelow(8), 0);
    // Vary the entry footprint so threshold flushes interleave with inserts
    // that push the buffer over capacity.
    fc.RecordAccess(slot, 8 + rng.NextBelow(64));
    ASSERT_LE(fc.bytes_used(), kCapacity)
        << "access " << i << " left the buffer over capacity";
  }
  fc.FlushAll();
  EXPECT_EQ(fc.bytes_used(), 0u);
}

TEST_F(FcCacheTest, SeparateSlotsTrackedIndependently) {
  FcCache fc = MakeFc(3, 1 << 20, true);
  const uint64_t s1 = table_.BucketSlotAddr(1, 0);
  const uint64_t s2 = table_.BucketSlotAddr(2, 0);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s2, 16);
  fc.RecordAccess(s1, 16);
  fc.RecordAccess(s1, 16);  // s1 hits threshold 3
  EXPECT_EQ(FreqAt(s1), 3u);
  EXPECT_EQ(FreqAt(s2), 0u);
  EXPECT_EQ(fc.entry_count(), 1u);
}

TEST_F(FcCacheTest, StaleFifoRecordOfReinsertedKeyStallsAgeFlush) {
  // Pins a known deviation (ROADMAP.md, "Known deviations"): max_age_accesses
  // does not bound the lag. A hot key that flushes at its threshold and is
  // re-inserted leaves its old FIFO record behind; when that record reaches
  // the head it matches the young new entry, so the age drain stops there
  // and older entries behind it stay buffered past the bound. Fixing this
  // changes FAA counts, so it is pinned here until a measured change does.
  constexpr uint64_t kMaxAge = 4;
  FcCache fc = MakeFc(/*threshold=*/2, /*capacity_bytes=*/1 << 20, true, kMaxAge);
  const uint64_t x = table_.BucketSlotAddr(1, 0);
  const uint64_t hot = table_.BucketSlotAddr(2, 0);
  const uint64_t c = table_.BucketSlotAddr(3, 0);
  fc.RecordAccess(x, 16);    // insert 0; FIFO [x]
  fc.RecordAccess(hot, 16);  // insert 1; FIFO [x, hot]
  fc.RecordAccess(c, 16);    // insert 2; FIFO [x, hot, c]
  fc.RecordAccess(hot, 16);  // threshold flush; the hot record stays behind x
  EXPECT_EQ(FreqAt(hot), 2u);
  fc.RecordAccess(hot, 16);  // insert 3: x ages out, the old hot record is now the head
  EXPECT_EQ(FreqAt(x), 1u);
  fc.RecordAccess(table_.BucketSlotAddr(4, 0), 16);  // insert 4
  fc.RecordAccess(table_.BucketSlotAddr(5, 0), 16);  // insert 5: c is kMaxAge inserts old
  EXPECT_EQ(fc.PendingDelta(c), 1u) << "c should have aged out but the stale head holds it";
  EXPECT_EQ(FreqAt(c), 0u);
  fc.RecordAccess(table_.BucketSlotAddr(6, 0), 16);  // insert 6: the re-inserted hot ages out
  EXPECT_EQ(FreqAt(hot), 3u);
  EXPECT_EQ(FreqAt(c), 1u) << "c drains only behind the hot entry, kMaxAge + 1 inserts late";
}

TEST_F(FcCacheTest, FlushAllFlushesInFifoOrder) {
  std::vector<uint64_t> order;
  FcCache fc([&order](uint64_t addr, uint64_t) { order.push_back(addr); }, 100, 1 << 20, true);
  const std::vector<uint64_t> inserted = {40 * 7, 40 * 3, 40 * 9, 40 * 1, 0, 40 * 5};
  for (const uint64_t addr : inserted) {
    fc.RecordAccess(addr, 16);
  }
  fc.RecordAccess(40 * 3, 16);  // a repeat access does not move the entry
  fc.FlushAll();
  EXPECT_EQ(order, inserted);
  EXPECT_EQ(fc.entry_count(), 0u);
}

// The FC cache as it was before its flat table: an unordered_map of entries
// plus a deque of insertion records, with the same flush rules. FlushAll
// walks the FIFO (the map-order walk it replaced had no defined order).
class ReferenceFcCache {
 public:
  ReferenceFcCache(FcCache::FlushFn flush, int threshold, size_t capacity_bytes, bool enabled,
                   uint64_t max_age_accesses)
      : flush_(std::move(flush)), threshold_(threshold), capacity_bytes_(capacity_bytes),
        enabled_(enabled), max_age_accesses_(max_age_accesses) {}

  void RecordAccess(uint64_t slot_addr, size_t object_id_bytes) {
    if (!enabled_) {
      flush_(slot_addr, 1);
      return;
    }
    auto [it, inserted] = entries_.try_emplace(slot_addr);
    Entry& entry = it->second;
    if (inserted) {
      entry.insert_seq = seq_++;
      entry.bytes = object_id_bytes + 24;
      bytes_used_ += entry.bytes;
      fifo_.push_back(slot_addr);
    }
    entry.delta++;
    if (entry.delta >= static_cast<uint64_t>(threshold_)) {
      FlushEntry(slot_addr);
    }
    while (bytes_used_ > capacity_bytes_ && !entries_.empty()) {
      EvictOldest();
    }
    FlushAged();
  }

  void FlushAll() {
    while (!fifo_.empty()) {
      FlushEntry(fifo_.front());
      fifo_.pop_front();
    }
  }

  uint64_t PendingDelta(uint64_t slot_addr) const {
    const auto it = entries_.find(slot_addr);
    return it == entries_.end() ? 0 : it->second.delta;
  }
  size_t entry_count() const { return entries_.size(); }
  size_t bytes_used() const { return bytes_used_; }
  uint64_t flushes() const { return flushes_; }

 private:
  struct Entry {
    uint64_t delta = 0;
    uint64_t insert_seq = 0;
    size_t bytes = 0;
  };

  void FlushAged() {
    if (max_age_accesses_ == 0) {
      return;
    }
    while (!fifo_.empty()) {
      const uint64_t addr = fifo_.front();
      const auto it = entries_.find(addr);
      if (it == entries_.end()) {
        fifo_.pop_front();
        continue;
      }
      if (seq_ - it->second.insert_seq < max_age_accesses_) {
        break;
      }
      fifo_.pop_front();
      FlushEntry(addr);
    }
  }

  void FlushEntry(uint64_t slot_addr) {
    const auto it = entries_.find(slot_addr);
    if (it == entries_.end()) {
      return;
    }
    if (it->second.delta > 0) {
      flush_(slot_addr, it->second.delta);
      flushes_++;
    }
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
  }

  void EvictOldest() {
    while (!fifo_.empty()) {
      const uint64_t addr = fifo_.front();
      fifo_.pop_front();
      if (entries_.count(addr) > 0) {
        FlushEntry(addr);
        return;
      }
    }
  }

  FcCache::FlushFn flush_;
  int threshold_;
  size_t capacity_bytes_;
  bool enabled_;
  uint64_t max_age_accesses_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::deque<uint64_t> fifo_;
  size_t bytes_used_ = 0;
  uint64_t seq_ = 0;
  uint64_t flushes_ = 0;
};

struct DifferentialCase {
  const char* name;
  int threshold;
  size_t capacity_bytes;
  uint64_t max_age;
  uint64_t keys;
  int accesses;
  bool variable_id_bytes;
  int flush_all_every;  // 0 = only at the end
  bool enabled = true;
};

TEST(FcCacheDifferentialTest, MatchesReferenceFaaStreamAndCounters) {
  using Faa = std::pair<uint64_t, uint64_t>;
  const DifferentialCase cases[] = {
      {"threshold-flushes", 3, 1 << 20, 0, 64, 20000, false, 0},
      {"capacity-evictions", 1000, 40 * 24, 0, 300, 20000, true, 0},
      {"age-flushes", 10, 1 << 20, 16, 400, 30000, false, 0},
      {"growth-and-erase", 4, 64 << 20, 0, 40000, 120000, false, 30000},
      {"everything", 5, 40 * 700, 64, 6000, 60000, true, 7919},
      {"disabled", 10, 1 << 20, 64, 100, 2000, false, 0, false},
  };
  for (const DifferentialCase& c : cases) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << c.name << " seed " << seed);
      std::vector<Faa> want;
      std::vector<Faa> got;
      ReferenceFcCache ref([&want](uint64_t a, uint64_t d) { want.emplace_back(a, d); },
                           c.threshold, c.capacity_bytes, c.enabled, c.max_age);
      FcCache fc([&got](uint64_t a, uint64_t d) { got.emplace_back(a, d); }, c.threshold,
                 c.capacity_bytes, c.enabled, c.max_age);
      Rng rng(seed * 0x9E37);
      size_t checked = 0;
      auto check_step = [&](int step) {
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (; checked < want.size(); ++checked) {
          ASSERT_EQ(got[checked], want[checked]) << "step " << step << " FAA " << checked;
        }
        ASSERT_EQ(fc.entry_count(), ref.entry_count()) << "step " << step;
        ASSERT_EQ(fc.bytes_used(), ref.bytes_used()) << "step " << step;
        ASSERT_EQ(fc.flushes(), ref.flushes()) << "step " << step;
      };
      for (int step = 0; step < c.accesses; ++step) {
        // Skewed keys: low indices are hot (threshold flushes, re-inserts
        // and stale FIFO records); the tail is cold (growth, evictions).
        const uint64_t key = rng.NextBelow(rng.NextBelow(c.keys) + 1);
        const uint64_t addr = key * 40;  // slot-sized strides, address 0 included
        const size_t id_bytes = c.variable_id_bytes ? 8 + rng.NextBelow(57) : 16;
        ref.RecordAccess(addr, id_bytes);
        fc.RecordAccess(addr, id_bytes);
        ASSERT_EQ(fc.PendingDelta(addr), ref.PendingDelta(addr)) << "step " << step;
        check_step(step);
        if (c.flush_all_every > 0 && step % c.flush_all_every == c.flush_all_every - 1) {
          ref.FlushAll();
          fc.FlushAll();
          check_step(step);
        }
      }
      ref.FlushAll();
      fc.FlushAll();
      check_step(c.accesses);
      EXPECT_EQ(fc.entry_count(), 0u);
      EXPECT_GT(want.size(), 0u);
    }
  }
}

}  // namespace
}  // namespace ditto::core
