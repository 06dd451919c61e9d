#include "core/fc_cache.h"

#include <cassert>
#include <utility>

#include "common/hash.h"

namespace ditto::core {
namespace {
// Fixed per-entry bookkeeping bytes: slot address + delta + insert time.
constexpr size_t kEntryOverheadBytes = 24;
constexpr size_t kInitialSlots = 64;
}  // namespace

size_t FcCache::Home(uint64_t slot_addr) const {
  return static_cast<size_t>(Mix64(slot_addr)) & (entries_.size() - 1);
}

size_t FcCache::Find(uint64_t slot_addr) const {
  if (live_ == 0) {
    return kNone;
  }
  const size_t mask = entries_.size() - 1;
  for (size_t i = Home(slot_addr);; i = (i + 1) & mask) {
    if (entries_[i].bytes == 0) {
      return kNone;
    }
    if (entries_[i].slot_addr == slot_addr) {
      return i;
    }
  }
}

size_t FcCache::EmptySlotFor(uint64_t slot_addr) const {
  const size_t mask = entries_.size() - 1;
  size_t i = Home(slot_addr);
  while (entries_[i].bytes != 0) {
    i = (i + 1) & mask;
  }
  return i;
}

size_t FcCache::Insert(uint64_t slot_addr) {
  if ((live_ + 1) * 8 > entries_.size() * 7) {
    GrowTable();
  }
  const size_t i = EmptySlotFor(slot_addr);
  entries_[i].slot_addr = slot_addr;
  live_++;
  return i;
}

// Table and FIFO growth run only when the buffer reaches a new peak, so they
// sit outside the fc-record hot-path region.
void FcCache::GrowTable() {
  std::vector<Entry> old(entries_.empty() ? kInitialSlots : entries_.size() * 2, Entry{});
  old.swap(entries_);
  for (const Entry& e : old) {
    if (e.bytes != 0) {
      entries_[EmptySlotFor(e.slot_addr)] = e;
    }
  }
}

void FcCache::RecordFifo::Push(uint64_t slot_addr) {
  if (tail_ == kBlockRecords) {
    if (first_ > 0 && first_ * 2 >= blocks_.size()) {
      // Drop the drained prefix; erase keeps the capacity.
      blocks_.erase(blocks_.begin(), blocks_.begin() + static_cast<ptrdiff_t>(first_));
      first_ = 0;
    }
    if (spare_.empty()) {
      blocks_.push_back(std::make_unique_for_overwrite<uint64_t[]>(kBlockRecords));
    } else {
      blocks_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    tail_ = 0;
  }
  blocks_.back()[tail_++] = slot_addr;
  size_++;
}

uint64_t FcCache::RecordFifo::Pop() {
  const uint64_t slot_addr = blocks_[first_][head_++];
  size_--;
  if (head_ == kBlockRecords) {
    spare_.push_back(std::move(blocks_[first_++]));
    head_ = 0;
  }
  return slot_addr;
}

// ditto-lint: hot-path-begin(fc-record)
void FcCache::RecordAccess(uint64_t slot_addr, size_t object_id_bytes) {
  if (!enabled_) {
    // Ablation passthrough: the FAA goes out per access without ever being
    // buffered, so it is not a flush — counting it skewed the flush metric
    // the benches compare against the enabled mode.
    flush_(slot_addr, 1);
    return;
  }
  size_t i = Find(slot_addr);
  if (i == kNone) {
    i = Insert(slot_addr);
    entries_[i].insert_seq = seq_++;
    entries_[i].delta = 0;
    entries_[i].bytes = static_cast<uint32_t>(object_id_bytes + kEntryOverheadBytes);
    bytes_used_ += entries_[i].bytes;
    fifo_.Push(slot_addr);
  }
  entries_[i].delta++;
  if (entries_[i].delta >= static_cast<uint64_t>(threshold_)) {
    FlushEntry(i);
  }
  // Capacity eviction runs on every access — a threshold-flush access used to
  // skip it, which could leave bytes_used_ above capacity_bytes_ until the
  // next sub-threshold access.
  while (bytes_used_ > capacity_bytes_ && live_ > 0) {
    EvictOldest();
  }
  FlushAged();
}

void FcCache::FlushAged() {
  if (max_age_accesses_ == 0) {
    return;
  }
  // Amortized O(1): drain stale FIFO heads whose entries have lagged behind
  // the remote counter for too long. A head record of a flushed slot that
  // has since been re-inserted matches the young new entry and stops the
  // drain (the known deviation documented in fc_cache.h).
  while (!fifo_.empty()) {
    const size_t i = Find(fifo_.front());
    if (i == kNone) {
      fifo_.Pop();  // stale FIFO record of an already-flushed entry
      continue;
    }
    if (seq_ - entries_[i].insert_seq < max_age_accesses_) {
      break;
    }
    fifo_.Pop();
    FlushEntry(i);
  }
}

// Flushes the entry at table index i and erases it by backward shift: each
// later entry of the probe run moves into the hole unless its home lies
// cyclically after the hole, so lookups never need tombstones.
void FcCache::FlushEntry(size_t i) {
  Entry& entry = entries_[i];
  if (entry.delta > 0) {
    flush_(entry.slot_addr, entry.delta);
    flushes_++;
  }
  bytes_used_ -= entry.bytes;
  live_--;
  const size_t mask = entries_.size() - 1;
  for (size_t j = (i + 1) & mask; entries_[j].bytes != 0; j = (j + 1) & mask) {
    if (((j - Home(entries_[j].slot_addr)) & mask) >= ((j - i) & mask)) {
      entries_[i] = entries_[j];
      i = j;
    }
  }
  entries_[i].bytes = 0;
}

void FcCache::EvictOldest() {
  while (!fifo_.empty()) {
    const size_t i = Find(fifo_.Pop());
    if (i != kNone) {
      FlushEntry(i);
      return;
    }
  }
}
// ditto-lint: hot-path-end(fc-record)

void FcCache::FlushAll() {
  while (!fifo_.empty()) {
    const size_t i = Find(fifo_.Pop());
    if (i != kNone) {
      FlushEntry(i);
    }
  }
  // Every live entry has an insertion record, so the walk empties the table.
  assert(live_ == 0 && bytes_used_ == 0);
}

}  // namespace ditto::core
