#include "hashtable/hash_table.h"

#include <algorithm>

namespace ditto::ht {

bool HashTable::ReadBucket(uint64_t bucket, std::vector<SlotView>* out) {
  if (bucket >= num_buckets_) {
    out->clear();
    return false;
  }
  // SlotView mirrors the wire layout (asserted in layout.h), so the bucket
  // READ lands straight in the caller's vector: no scratch copy, no decode.
  out->resize(slots_per_bucket_);
  verbs_->Read(SlotAddr(bucket * slots_per_bucket_), out->data(), out->size() * kSlotBytes);
  return true;
}

bool HashTable::ReadSlots(uint64_t start_slot, int count, std::vector<SlotView>* out,
                          uint64_t* actual_start) {
  out->clear();
  if (count <= 0 || static_cast<size_t>(count) > num_slots()) {
    return false;
  }
  // Clamp down so the sampled range stays inside the table. Guarding count
  // above keeps this subtraction from underflowing.
  start_slot = std::min(start_slot, num_slots() - static_cast<size_t>(count));
  if (actual_start != nullptr) {
    *actual_start = start_slot;
  }
  out->resize(count);
  verbs_->Read(SlotAddr(start_slot), out->data(), out->size() * kSlotBytes);
  return true;
}

SlotView HashTable::ReadSlot(uint64_t slot_addr) {
  SlotView view;
  verbs_->Read(slot_addr, &view, kSlotBytes);
  return view;
}

bool HashTable::CasAtomic(uint64_t slot_addr, uint64_t expected, uint64_t desired) {
  return verbs_->CompareSwap(slot_addr + kAtomicOff, expected, desired) == expected;
}

void HashTable::WriteAllMetadata(uint64_t slot_addr, uint64_t hash, uint64_t insert_ts,
                                 uint64_t last_ts, uint64_t freq) {
  uint64_t group[4] = {hash, insert_ts, last_ts, freq};
  verbs_->Write(slot_addr + kHashOff, group, sizeof(group));
}

void HashTable::WriteLastTs(uint64_t slot_addr, uint64_t last_ts) {
  verbs_->Write(slot_addr + kLastTsOff, &last_ts, 8);
}

void HashTable::WriteLastTsAsync(uint64_t slot_addr, uint64_t last_ts) {
  verbs_->WriteAsync(slot_addr + kLastTsOff, &last_ts, 8);
}

void HashTable::AddFreq(uint64_t slot_addr, uint64_t delta) {
  verbs_->FetchAdd(slot_addr + kFreqOff, delta);
}

void HashTable::AddFreqAsync(uint64_t slot_addr, uint64_t delta) {
  verbs_->FetchAddAsync(slot_addr + kFreqOff, delta);
}

void HashTable::WriteExpertBmapAsync(uint64_t slot_addr, uint64_t bmap) {
  verbs_->WriteAsync(slot_addr + kInsertTsOff, &bmap, 8);
}

}  // namespace ditto::ht
