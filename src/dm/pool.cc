#include "dm/pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ditto::dm {
namespace {

constexpr size_t kSlotBytes = 40;  // 40 B per slot (Figure 7)

// The heap starts at the first block boundary past the superblock and table.
uint64_t HeapAddrFor(const PoolConfig& config) {
  const size_t table_bytes =
      config.num_buckets * static_cast<size_t>(config.slots_per_bucket) * kSlotBytes;
  return (kSuperblockBytes + table_bytes + kBlockBytes - 1) & ~(kBlockBytes - 1);
}

// Rejects layouts the pool cannot address. Checked in every build type: an
// undersized memory_bytes would underflow heap_bytes_ and let the allocator
// hand out addresses past the arena, and every bucket lookup masks the hash
// with num_buckets - 1, so the table needs a power-of-two bucket count.
const PoolConfig& Validated(const PoolConfig& config) {
  if (!std::has_single_bit(config.num_buckets)) {
    throw std::invalid_argument("PoolConfig: num_buckets must be a power of two");
  }
  if (config.slots_per_bucket <= 0) {
    throw std::invalid_argument("PoolConfig: slots_per_bucket must be positive");
  }
  const size_t max_slots = config.memory_bytes / kSlotBytes;
  if (config.num_buckets > max_slots / static_cast<size_t>(config.slots_per_bucket) ||
      HeapAddrFor(config) >= config.memory_bytes) {
    throw std::invalid_argument(
        "PoolConfig: memory_bytes does not fit the superblock and hash table");
  }
  return config;
}

}  // namespace

MemoryPool::MemoryPool(const PoolConfig& config)
    : config_(Validated(config)),
      node_(config.memory_bytes, config.cost, config.controller_cores),
      heap_addr_(HeapAddrFor(config)),
      heap_bytes_(config.memory_bytes - heap_addr_) {
  // Block index 0 is never handed out (0 means "null" in freelist links), so
  // bump allocation starts one block into the heap.
  bump_ = heap_addr_ + kBlockBytes;

  uint64_t capacity = config_.capacity_objects;
  if (capacity == 0) {
    capacity = heap_bytes_ / 256;
  }
  node_.arena().WriteU64(kCapacityAddr, capacity);
  node_.arena().WriteU64(kHistSizeAddr, capacity);  // default: history size == cache size

  node_.RegisterRpc(kRpcAllocSegment, [this](std::string_view request, std::string* response) {
    HandleAllocSegment(request, response);
  });
  node_.RegisterRpc(kRpcResize, [this](std::string_view request, std::string* response) {
    HandleResize(request, response);
  });
}

void MemoryPool::HandleResize(std::string_view request, std::string* response) {
  if (request.size() != 8) {
    return;  // malformed: reject with an empty response, capacity untouched
  }
  uint64_t capacity = 0;
  std::memcpy(&capacity, request.data(), 8);
  if (capacity == 0) {
    return;  // a zero capacity would wedge every admission
  }
  const uint64_t previous = node_.arena().ReadU64(kCapacityAddr);
  node_.arena().WriteU64(kCapacityAddr, capacity);
  response->resize(8);
  std::memcpy(response->data(), &previous, 8);
}

void MemoryPool::HandleAllocSegment(std::string_view request, std::string* response) {
  uint64_t want = config_.segment_bytes;
  if (request.size() == 8) {
    std::memcpy(&want, request.data(), 8);
  }
  uint64_t granted = 0;
  {
    MutexLock lock(&alloc_mu_);
    if (bump_ + want <= heap_addr_ + heap_bytes_) {
      granted = bump_;
      bump_ += want;
      segments_allocated_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  response->resize(8);
  std::memcpy(response->data(), &granted, 8);
}

void MemoryPool::WipeForRestart() {
  // Preserve the runtime capacity/history configuration across the wipe: a
  // restarted node comes back empty but at the size it was resized to.
  const uint64_t capacity = node_.arena().ReadU64(kCapacityAddr);
  const uint64_t hist_size = node_.arena().ReadU64(kHistSizeAddr);
  {
    MutexLock lock(&alloc_mu_);
    uint8_t zeros[kSuperblockBytes] = {0};
    for (uint64_t addr = 0; addr < heap_addr_; addr += sizeof(zeros)) {
      node_.arena().Write(addr, zeros,
                          std::min<size_t>(sizeof(zeros), heap_addr_ - addr));
    }
    bump_ = heap_addr_ + kBlockBytes;
  }
  node_.arena().WriteU64(kCapacityAddr, capacity);
  node_.arena().WriteU64(kHistSizeAddr, hist_size);
}

void MemoryPool::SetCapacityObjects(uint64_t capacity) {
  node_.arena().WriteU64(kCapacityAddr, capacity);
}

uint64_t MemoryPool::capacity_objects() const { return node_.arena().ReadU64(kCapacityAddr); }

uint64_t MemoryPool::cached_objects() const { return node_.arena().ReadU64(kObjectCountAddr); }

void MemoryPool::SetHistorySize(uint64_t entries) {
  node_.arena().WriteU64(kHistSizeAddr, entries);
}

}  // namespace ditto::dm
