// Client-side driver of the sample-friendly hash table. Provides the
// one-READ bucket fetch, the one-READ contiguous-slot sampling, and the
// slot-level CAS/WRITE/FAA primitives used by the cache layers. One instance
// per client thread (wraps that thread's Verbs endpoint).
#ifndef DITTO_HASHTABLE_HASH_TABLE_H_
#define DITTO_HASHTABLE_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "dm/pool.h"
#include "hashtable/layout.h"
#include "rdma/verbs.h"

namespace ditto::ht {

class HashTable {
 public:
  HashTable(dm::MemoryPool* pool, rdma::Verbs* verbs)
      : pool_(pool),
        verbs_(verbs),
        table_addr_(pool->table_addr()),
        num_buckets_(pool->num_buckets()),
        slots_per_bucket_(pool->slots_per_bucket()) {}

  size_t num_buckets() const { return num_buckets_; }
  int slots_per_bucket() const { return slots_per_bucket_; }
  size_t num_slots() const { return num_buckets_ * static_cast<size_t>(slots_per_bucket_); }

  uint64_t BucketIndexFor(uint64_t hash) const { return hash % num_buckets_; }
  uint64_t SlotAddr(uint64_t global_slot_index) const {
    return table_addr_ + global_slot_index * kSlotBytes;
  }
  uint64_t BucketSlotAddr(uint64_t bucket, int slot) const {
    return SlotAddr(bucket * slots_per_bucket_ + slot);
  }

  // Fetches all slots of one bucket with a single READ. Returns false (and
  // clears *out) for an out-of-range bucket instead of silently reading a
  // neighbouring bucket. A READ failed by the fault layer leaves *out zeroed
  // (an empty bucket); the caller checks Verbs::ok().
  bool ReadBucket(uint64_t bucket, std::vector<SlotView>* out);

  // Fetches `count` consecutive slots starting at a global slot index with a
  // single READ (the sampling primitive). The start is clamped down so the
  // range never wraps past the table end; the clamped start is reported
  // through `actual_start` (when non-null) so callers can map returned slots
  // back to global slot indices. Returns false — clearing *out and issuing
  // no READ — when count is non-positive or exceeds the table size (the old
  // unsigned `num_slots() - count` clamp underflowed there and aliased the
  // read into arbitrary slots).
  bool ReadSlots(uint64_t start_slot, int count, std::vector<SlotView>* out,
                 uint64_t* actual_start = nullptr);

  // Re-reads a single slot (all 40 bytes).
  SlotView ReadSlot(uint64_t slot_addr);

  // CAS on the atomic field. Returns true iff the swap succeeded.
  bool CasAtomic(uint64_t slot_addr, uint64_t expected, uint64_t desired);

  // Initializes hash + insert_ts + last_ts + freq with one combined WRITE
  // (the stateless group plus the freq reset share one contiguous range).
  void WriteAllMetadata(uint64_t slot_addr, uint64_t hash, uint64_t insert_ts, uint64_t last_ts,
                        uint64_t freq);

  // Updates the stateless last-access timestamp (single 8-byte WRITE).
  void WriteLastTs(uint64_t slot_addr, uint64_t last_ts);
  void WriteLastTsAsync(uint64_t slot_addr, uint64_t last_ts);

  // Stateful frequency update (FAA); async variant is fire-and-forget.
  void AddFreq(uint64_t slot_addr, uint64_t delta);
  void AddFreqAsync(uint64_t slot_addr, uint64_t delta);

  // Writes the expert bitmap of a history entry (async, paper Figure 11).
  void WriteExpertBmapAsync(uint64_t slot_addr, uint64_t bmap);

 private:
  dm::MemoryPool* pool_;
  rdma::Verbs* verbs_;
  uint64_t table_addr_;
  size_t num_buckets_;
  int slots_per_bucket_;
};

}  // namespace ditto::ht

#endif  // DITTO_HASHTABLE_HASH_TABLE_H_
