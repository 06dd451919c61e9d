#include "rdma/arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace ditto::rdma {

MemoryArena::MemoryArena(size_t size_bytes) {
  static const size_t kPageBytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (size_bytes > (SIZE_MAX >> 1)) {
    throw std::bad_alloc();  // rounding below would wrap
  }
  size_ = (size_bytes + 7) & ~size_t{7};
  const size_t cell_bytes = (size_ + kPageBytes - 1) / kPageBytes * kPageBytes;
  mapping_bytes_ = cell_bytes + kPageBytes;
  // MAP_NORESERVE: nothing is committed until touched, so no swap is
  // reserved for memory the pool may never use.
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_NONE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapping_ == MAP_FAILED) {
    throw std::bad_alloc();
  }
  if (cell_bytes > 0) {
    if (mprotect(mapping_, cell_bytes, PROT_READ | PROT_WRITE) != 0) {
      munmap(mapping_, mapping_bytes_);
      throw std::bad_alloc();
    }
    // A hint only: it fails harmlessly where THP is compiled out.
    madvise(mapping_, cell_bytes, MADV_HUGEPAGE);
  }
  // Place the cells so that they end where the guard page begins.
  cells_ = static_cast<uint64_t*>(mapping_) + (cell_bytes - size_) / 8;
}

MemoryArena::~MemoryArena() { munmap(mapping_, mapping_bytes_); }

std::atomic_ref<uint64_t> MemoryArena::CellFor(uint64_t addr) const {
  assert(addr < size_);
  return std::atomic_ref<uint64_t>(cells_[addr / 8]);
}

// ditto-lint: hot-path-begin(arena-copy)
// Read/Write are under every simulated verb: one bucket READ copies 320 B
// through here per lookup. Nothing in these loops may allocate.
void MemoryArena::Read(uint64_t addr, void* dst, size_t len) const {
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

void MemoryArena::Write(uint64_t addr, const void* src, size_t len) {
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

uint64_t MemoryArena::CompareSwap(uint64_t addr, uint64_t expected, uint64_t desired) {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  uint64_t observed = expected;
  CellFor(addr).compare_exchange_strong(observed, desired, std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  return observed;
}

uint64_t MemoryArena::FetchAdd(uint64_t addr, uint64_t delta) {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  return CellFor(addr).fetch_add(delta, std::memory_order_acq_rel);
}

uint64_t MemoryArena::ReadU64(uint64_t addr) const {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  return CellFor(addr).load(std::memory_order_acquire);
}

void MemoryArena::WriteU64(uint64_t addr, uint64_t value) {
  assert(addr % 8 == 0 && addr + 8 <= size_);
  CellFor(addr).store(value, std::memory_order_release);
}

}  // namespace ditto::rdma
