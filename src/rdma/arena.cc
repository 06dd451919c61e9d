#include "rdma/arena.h"

#include <sys/mman.h>
#include <unistd.h>

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

}  // namespace ditto::rdma
