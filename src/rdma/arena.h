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

#include <atomic>
#include <cstddef>
#include <cstdint>

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

  // Host-cache prefetch hint for an upcoming Read of [addr, addr+len):
  // pulls the backing cells toward the cache one line at a time. Purely a
  // performance hint — no loads are observed, no memory-model or accounting
  // side effects (this is not a verb).
  void PrefetchRead(uint64_t addr, size_t len) const {
#if defined(__GNUC__) || defined(__clang__)
    const uint64_t end = addr + len <= size_ ? addr + len : size_;
    for (uint64_t a = addr & ~uint64_t{7}; a < end; a += 64) {
      __builtin_prefetch(&cells_[a / 8], /*rw=*/0, /*locality=*/1);
    }
#else
    (void)addr;
    (void)len;
#endif
  }

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

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_ARENA_H_
