// Frequency-counter cache (paper §4.2.2): a client-side write-combining
// buffer that absorbs increments to the remote `freq` counters and flushes
// them as one RDMA_FAA when either (a) an entry's buffered delta reaches the
// threshold t, or (b) the cache is at capacity, in which case the entry with
// the earliest insert time is flushed.
//
// Storage is flat so a steady-state access allocates nothing: one
// open-addressing table of 24-byte entries (linear probing, backward-shift
// erase, load <= 7/8) keyed by slot address, plus a FIFO of insertion
// records in recycled fixed-size blocks. A record names a slot address, not
// an entry: after an entry is flushed and its slot re-inserted, the old
// record matches the new entry. Memory grows only at a new peak.
#ifndef DITTO_CORE_FC_CACHE_H_
#define DITTO_CORE_FC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace ditto::core {

class FcCache {
 public:
  // Applies one flushed delta to the remote counter of slot_addr (the client
  // passes its hash table's async FAA).
  using FlushFn = std::function<void(uint64_t slot_addr, uint64_t delta)>;

  // enabled=false degrades to one async FAA per access (the ablation mode).
  // max_age_accesses is meant to bound how long a buffered delta lags the
  // remote counter, counted in inserts into this cache (the paper tracks
  // entry insert times for this purpose); 0 disables age-based flushing.
  // Known deviation: the age check looks only at the FIFO head, and a stale
  // record of a flushed-then-re-inserted slot matches the young new entry,
  // so a hot slot can hold the head and let older entries behind it lag far
  // past the bound (see ROADMAP.md, "Known deviations").
  FcCache(FlushFn flush, int threshold, size_t capacity_bytes, bool enabled,
          uint64_t max_age_accesses = 512)
      : flush_(std::move(flush)), threshold_(threshold), capacity_bytes_(capacity_bytes),
        enabled_(enabled), max_age_accesses_(max_age_accesses) {}

  // Records one access to the object indexed by slot_addr. object_id_bytes
  // sizes the entry (the entry stores the object id, paper Figure text).
  void RecordAccess(uint64_t slot_addr, size_t object_id_bytes);

  // Flushes every buffered delta in FIFO order (used at the end of runs and
  // by tests).
  void FlushAll();

  // The delta buffered for slot_addr but not yet applied remotely. Eviction
  // priority evaluation adds this to the remote freq so the client's own
  // buffered accesses are not invisible to its LFU-family experts.
  uint64_t PendingDelta(uint64_t slot_addr) const {
    const size_t i = Find(slot_addr);
    return i == kNone ? 0 : entries_[i].delta;
  }

  size_t entry_count() const { return live_; }
  size_t bytes_used() const { return bytes_used_; }
  uint64_t flushes() const { return flushes_; }

 private:
  static constexpr size_t kNone = ~size_t{0};

  // bytes == 0 marks an empty table slot (a live entry is never smaller than
  // its fixed overhead).
  struct Entry {
    uint64_t slot_addr;
    uint64_t insert_seq;
    uint32_t delta;
    uint32_t bytes;
  };
  static_assert(sizeof(Entry) == 24, "FC-cache entries stay at 24 bytes");

  // The insertion records, oldest first, in blocks of kBlockRecords. A
  // drained block is kept for reuse, so the footprint follows the peak record
  // count (as the std::deque this replaced did) and only a new peak
  // allocates. Records of flushed entries stay until they reach the head,
  // which can be long after (see the known deviation above).
  class RecordFifo {
   public:
    bool empty() const { return size_ == 0; }
    uint64_t front() const { return blocks_[first_][head_]; }
    void Push(uint64_t slot_addr);
    uint64_t Pop();

   private:
    static constexpr size_t kBlockRecords = 512;  // one 4 KiB page

    using Block = std::unique_ptr<uint64_t[]>;
    std::vector<Block> blocks_;  // blocks_[first_..] in FIFO order
    std::vector<Block> spare_;   // drained blocks
    size_t first_ = 0;
    size_t head_ = 0;               // next record to pop in blocks_[first_]
    size_t tail_ = kBlockRecords;   // next free record in blocks_.back()
    size_t size_ = 0;
  };

  size_t Home(uint64_t slot_addr) const;
  size_t Find(uint64_t slot_addr) const;
  // First empty table index on slot_addr's probe run.
  size_t EmptySlotFor(uint64_t slot_addr) const;
  // Index of a new entry for slot_addr (absent), growing the table first
  // when the insert would pass 7/8 load.
  size_t Insert(uint64_t slot_addr);
  void GrowTable();

  void FlushEntry(size_t i);
  void EvictOldest();
  void FlushAged();

  FlushFn flush_;
  int threshold_;
  size_t capacity_bytes_;
  bool enabled_;
  uint64_t max_age_accesses_;

  std::vector<Entry> entries_;  // power-of-two open-addressing table
  size_t live_ = 0;
  RecordFifo fifo_;
  size_t bytes_used_ = 0;
  uint64_t seq_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace ditto::core

#endif  // DITTO_CORE_FC_CACHE_H_
