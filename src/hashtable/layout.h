// On-arena layout of the sample-friendly hash table (paper Figure 7).
//
// Each 40-byte slot is:
//   +0  atomic field  (8 B)  fp(1 B) | size(1 B, in 64-B blocks) | pointer(6 B)
//   +8  hash          (8 B)  full 64-bit hash of the object id
//   +16 insert_ts     (8 B)  (expert_bmap for history entries)
//   +24 last_ts       (8 B)
//   +32 freq          (8 B)
//
// The atomic field is the only word modified with CAS; metadata fields are
// updated with (possibly combined) WRITEs and FAAs. The stateless metadata
// (hash, insert_ts, last_ts) is contiguous so an insert initializes all
// metadata with a single 32-byte WRITE.
//
// size == 0xFF tags the slot as an embedded history entry whose pointer field
// carries the 48-bit history id (paper Figure 9). size == 0 with a zero
// atomic word is an empty slot.
#ifndef DITTO_HASHTABLE_LAYOUT_H_
#define DITTO_HASHTABLE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace ditto::ht {

inline constexpr size_t kSlotBytes = 40;
inline constexpr uint8_t kHistorySizeTag = 0xFF;
inline constexpr uint64_t kPointerMask = (uint64_t{1} << 48) - 1;

// Field offsets within a slot.
inline constexpr uint64_t kAtomicOff = 0;
inline constexpr uint64_t kHashOff = 8;
inline constexpr uint64_t kInsertTsOff = 16;  // expert_bmap for history entries
inline constexpr uint64_t kLastTsOff = 24;
inline constexpr uint64_t kFreqOff = 32;

constexpr uint64_t PackAtomic(uint8_t fp, uint8_t size_blocks, uint64_t pointer) {
  return (static_cast<uint64_t>(fp) << 56) | (static_cast<uint64_t>(size_blocks) << 48) |
         (pointer & kPointerMask);
}

constexpr uint8_t AtomicFp(uint64_t atomic_word) { return static_cast<uint8_t>(atomic_word >> 56); }
constexpr uint8_t AtomicSize(uint64_t atomic_word) {
  return static_cast<uint8_t>(atomic_word >> 48);
}
constexpr uint64_t AtomicPointer(uint64_t atomic_word) { return atomic_word & kPointerMask; }

// A client-side decoded view of one slot.
struct SlotView {
  uint64_t atomic_word = 0;
  uint64_t hash = 0;
  uint64_t insert_ts = 0;  // expert_bmap when IsHistory()
  uint64_t last_ts = 0;
  uint64_t freq = 0;

  bool IsEmpty() const { return atomic_word == 0; }
  bool IsHistory() const { return AtomicSize(atomic_word) == kHistorySizeTag; }
  bool IsObject() const { return !IsEmpty() && !IsHistory(); }
  uint8_t fp() const { return AtomicFp(atomic_word); }
  uint8_t size_blocks() const { return AtomicSize(atomic_word); }
  uint64_t pointer() const { return AtomicPointer(atomic_word); }
  uint64_t history_id() const { return AtomicPointer(atomic_word); }
  uint64_t expert_bmap() const { return insert_ts; }
};

// SlotView mirrors the wire layout field-for-field, so a READ of a whole
// slot (or a whole bucket) lands directly in SlotView storage.
static_assert(std::is_trivially_copyable_v<SlotView>,
              "SlotView is READ off the wire; it must stay trivially copyable");
static_assert(sizeof(SlotView) == kSlotBytes, "SlotView must match the wire slot size");
static_assert(offsetof(SlotView, atomic_word) == kAtomicOff &&
                  offsetof(SlotView, hash) == kHashOff &&
                  offsetof(SlotView, insert_ts) == kInsertTsOff &&
                  offsetof(SlotView, last_ts) == kLastTsOff &&
                  offsetof(SlotView, freq) == kFreqOff,
              "SlotView fields must sit at the wire offsets");

// ditto-lint: hot-path-begin(slot-scan)
// Branch-reduced object match, equivalent to
//   slot.IsObject() && slot.fp() == fp && slot.hash == hash
// but evaluated with flag arithmetic instead of short-circuit branches: a
// bucket scan compiles to a straight-line compare/set chain with one
// unpredictable branch per bucket rather than three per slot.
inline bool MatchesObject(const SlotView& slot, uint8_t fp, uint64_t hash) {
  const uint64_t w = slot.atomic_word;
  return static_cast<bool>(static_cast<int>(w != 0) &
                           static_cast<int>(static_cast<uint8_t>(w >> 48) != kHistorySizeTag) &
                           static_cast<int>(static_cast<uint8_t>(w >> 56) == fp) &
                           static_cast<int>(slot.hash == hash));
}

// Index of the first object slot in slots[from, n) matching (fp, hash), or
// -1 when none does. The shared scan of every lookup/update/claim path.
inline int FindObjectSlot(const SlotView* slots, int from, int n, uint8_t fp, uint64_t hash) {
  for (int i = from; i < n; ++i) {
    if (MatchesObject(slots[i], fp, hash)) {
      return i;
    }
  }
  return -1;
}
// ditto-lint: hot-path-end(slot-scan)

}  // namespace ditto::ht

#endif  // DITTO_HASHTABLE_LAYOUT_H_
