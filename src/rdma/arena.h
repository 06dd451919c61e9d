// MemoryArena: the memory node's DRAM, modelled as an array of 8-byte cells.
// One-sided verbs operate on the arena with real atomic instructions, so
// concurrency behaviour (CAS races, torn multi-word reads) matches what RDMA
// hardware provides: 8-byte atomicity, no cross-cell atomicity.
//
// Backing memory. The cells live in one private anonymous mapping, so the
// kernel supplies zeroed pages and commits DRAM on first touch: a deployment
// is resident only where the pool has written or read, as disaggregated
// memory is used as it is needed rather than reserved up front. The mapping
// is hinted with MADV_HUGEPAGE; where transparent huge pages are enabled in
// `madvise` or `always` mode, bucket and object copies walk 2 MiB pages
// instead of 4 KiB ones. Where THP is `never` the hint is a no-op.
//
// Cell access rule. Cells are plain uint64_t, and every access to one goes
// through std::atomic_ref<uint64_t> with the memory orders documented on each
// method below: no plain load or store ever touches a cell, so word atomicity,
// CAS/FAA semantics and ThreadSanitizer visibility are those of an array of
// std::atomic<uint64_t>.
//
// Bounds. The cells end exactly where a PROT_NONE guard page begins, so an
// access at or past size() faults in every build type (AddressSanitizer
// does not track mmap'd memory; the guard page is the bounds check it
// would otherwise give). Debug builds also assert each address.
#ifndef DITTO_RDMA_ARENA_H_
#define DITTO_RDMA_ARENA_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ditto::rdma {

class MemoryArena {
 public:
  // Rounds size_bytes up to a whole number of cells; 0 is allowed (every
  // access then faults on the guard page). Throws std::bad_alloc if the
  // mapping cannot be made.
  explicit MemoryArena(size_t size_bytes);
  ~MemoryArena();

  MemoryArena(const MemoryArena&) = delete;
  MemoryArena& operator=(const MemoryArena&) = delete;

  size_t size() const { return size_; }

  // Copies len bytes from arena offset addr into dst. Word-atomic: each
  // 8-byte cell is read with a single acquire load; the full range is not
  // atomic (as with RDMA_READ).
  void Read(uint64_t addr, void* dst, size_t len) const;

  // Copies len bytes from src into the arena. Word-atomic per cell: whole
  // cells are release stores, partial edge cells a release CAS loop.
  void Write(uint64_t addr, const void* src, size_t len);

  // 8-byte compare-and-swap at an 8-byte-aligned address. Returns the value
  // observed before the operation (equal to expected iff it succeeded).
  uint64_t CompareSwap(uint64_t addr, uint64_t expected, uint64_t desired);

  // 8-byte fetch-and-add at an 8-byte-aligned address. Returns the old value.
  uint64_t FetchAdd(uint64_t addr, uint64_t delta);

  // Direct 8-byte read/write helpers (single cell, atomic).
  uint64_t ReadU64(uint64_t addr) const;
  void WriteU64(uint64_t addr, uint64_t value);

 private:
  // One cell, bounds-asserted in Debug builds (the bulk loops in Read/Write
  // wrap each cell in an atomic_ref themselves). Const methods get a mutable
  // reference too: std::atomic_ref<const T> is C++26, and loads do not write.
  std::atomic_ref<uint64_t> CellFor(uint64_t addr) const;

  size_t size_;
  void* mapping_;         // start of the mapping (cells plus guard page)
  size_t mapping_bytes_;  // cell pages plus the guard page
  uint64_t* cells_;       // ends at the guard page
};

inline std::atomic_ref<uint64_t> MemoryArena::CellFor(uint64_t addr) const {
  assert(addr < size_);
  return std::atomic_ref<uint64_t>(cells_[addr / 8]);
}

// ditto-lint: hot-path-begin(arena-copy)
// Read/Write are under every simulated verb: one bucket READ copies 320 B
// through here per lookup. They are defined in this header so the verbs
// inline them. Nothing in these loops may allocate.
inline void MemoryArena::Read(uint64_t addr, void* dst, size_t len) const {
  assert(addr + len <= size_);
  auto* out = static_cast<uint8_t*>(dst);
  uint64_t cur = addr;
  size_t remaining = len;
  // Aligned bulk path: whole cells copy in a tight loop with none of the
  // edge-word offset math below. Bucket (320 B) and object READs are
  // 8-aligned, so the hot path runs entirely here.
  if ((cur & 7) == 0) {
    uint64_t* cell = &cells_[cur / 8];
    for (; remaining >= 8; remaining -= 8, cur += 8, out += 8, ++cell) {
      const uint64_t word = std::atomic_ref<uint64_t>(*cell).load(std::memory_order_acquire);
      std::memcpy(out, &word, 8);
    }
  }
  while (remaining > 0) {
    const uint64_t word_base = cur & ~uint64_t{7};
    const size_t offset = cur - word_base;
    const size_t chunk = std::min(remaining, 8 - offset);
    const uint64_t word = CellFor(word_base).load(std::memory_order_acquire);
    std::memcpy(out, reinterpret_cast<const uint8_t*>(&word) + offset, chunk);
    out += chunk;
    cur += chunk;
    remaining -= chunk;
  }
}

inline void MemoryArena::Write(uint64_t addr, const void* src, size_t len) {
  assert(addr + len <= size_);
  const auto* in = static_cast<const uint8_t*>(src);
  uint64_t cur = addr;
  size_t remaining = len;
  // Aligned bulk path, mirroring Read: object WRITEs are 8-aligned and
  // multi-hundred-byte, so the offset/edge math below is tail-only.
  if ((cur & 7) == 0) {
    uint64_t* cell = &cells_[cur / 8];
    for (; remaining >= 8; remaining -= 8, cur += 8, in += 8, ++cell) {
      uint64_t word;
      std::memcpy(&word, in, 8);
      std::atomic_ref<uint64_t>(*cell).store(word, std::memory_order_release);
    }
  }
  while (remaining > 0) {
    const uint64_t word_base = cur & ~uint64_t{7};
    const size_t offset = cur - word_base;
    const size_t chunk = std::min(remaining, 8 - offset);
    const std::atomic_ref<uint64_t> cell = CellFor(word_base);
    if (chunk == 8) {
      uint64_t word;
      std::memcpy(&word, in, 8);
      cell.store(word, std::memory_order_release);
    } else {
      // Read-modify-write the edge word; CAS loop keeps concurrent edge
      // writers from losing bytes outside their range.
      uint64_t old_word = cell.load(std::memory_order_relaxed);
      uint64_t new_word;
      do {
        new_word = old_word;
        std::memcpy(reinterpret_cast<uint8_t*>(&new_word) + offset, in, chunk);
      } while (!cell.compare_exchange_weak(old_word, new_word, std::memory_order_release,
                                           std::memory_order_relaxed));
    }
    in += chunk;
    cur += chunk;
    remaining -= chunk;
  }
}
// ditto-lint: hot-path-end(arena-copy)

inline uint64_t MemoryArena::CompareSwap(uint64_t addr, uint64_t expected, uint64_t desired) {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  uint64_t observed = expected;
  CellFor(addr).compare_exchange_strong(observed, desired, std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  return observed;
}

inline uint64_t MemoryArena::FetchAdd(uint64_t addr, uint64_t delta) {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  return CellFor(addr).fetch_add(delta, std::memory_order_acq_rel);
}

inline uint64_t MemoryArena::ReadU64(uint64_t addr) const {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  return CellFor(addr).load(std::memory_order_acquire);
}

inline void MemoryArena::WriteU64(uint64_t addr, uint64_t value) {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  CellFor(addr).store(value, std::memory_order_release);
}

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_ARENA_H_
