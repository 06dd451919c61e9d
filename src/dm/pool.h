// MemoryPool: the memory node's address-space layout plus the controller
// services (segment allocation, adaptive-weight RPC endpoint registration).
//
// Layout of the arena:
//   [0, kSuperblockBytes)            superblock (global counters, freelists,
//                                    expert weights)
//   [kSuperblockBytes, heap_addr)    sample-friendly hash table
//   [heap_addr, memory_bytes)        object heap, 64-byte blocks
//
// Memory management follows the paper's two-level scheme (FUSEE-style): the
// weak controller hands out coarse segments via an ALLOC RPC; clients carve
// 64-byte block runs out of their segments and recycle freed runs through
// per-run-length lock-free freelists that live in remote memory.
//
// Thread safety: a MemoryPool may be shared by concurrent client threads
// (one ClientContext per thread), as the contended engine and multi-threaded
// ClusterClient deployments require. Every arena cell is accessed atomically,
// segment allocation is serialized by alloc_mu_, RPC dispatch by the node's
// handler mutex, and all counters are atomics; this contract is exercised
// under ThreadSanitizer by tests/concurrent_runner_test.cc.
#ifndef DITTO_DM_POOL_H_
#define DITTO_DM_POOL_H_

#include <atomic>
#include <cstdint>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "rdma/node.h"

namespace ditto::dm {

inline constexpr size_t kBlockBytes = 64;
inline constexpr int kMaxRunBlocks = 16;  // largest contiguous allocation: 1 KiB

// Superblock field offsets (all 8-byte fields).
inline constexpr uint64_t kHistCounterAddr = 0;    // 48-bit circular history counter
inline constexpr uint64_t kObjectCountAddr = 8;    // cached-object count
inline constexpr uint64_t kCapacityAddr = 16;      // capacity in objects
inline constexpr uint64_t kHistSizeAddr = 24;      // history length l
inline constexpr uint64_t kFreeListBase = 64;      // kMaxRunBlocks heads, 8 B each
inline constexpr size_t kSuperblockBytes = 4096;

// RPC handler ids served by the controller.
inline constexpr uint32_t kRpcAllocSegment = 1;
inline constexpr uint32_t kRpcUpdateWeights = 2;
// Elastic scaling: rewrites kCapacityAddr in the superblock. Request is the
// new capacity in objects (u64, must be non-zero); response is the previous
// capacity (u64). Malformed requests get an empty (rejecting) response.
// Clients observe the new value on their next superblock READ and evict down
// themselves on shrink — the weak controller only flips the number.
inline constexpr uint32_t kRpcResize = 3;

// The even share of an aggregate object capacity owned by node/shard `owner`
// of `num_owners`: remainder objects go to the lowest-numbered owners, so
// the split is a pure function of the total. Every owner keeps at least one
// object (a zero capacity is invalid and would be rejected by kRpcResize),
// so an aggregate smaller than the owner count is effectively rounded up to
// one object per owner. Shared by ClusterClient and the sharded replay
// engine so the two splits can never diverge.
inline uint64_t CapacityShare(uint64_t total, size_t owner, size_t num_owners) {
  const uint64_t base = total / num_owners;
  const uint64_t remainder = total % num_owners;
  const uint64_t share = base + (owner < remainder ? 1 : 0);
  return share == 0 ? 1 : share;
}

struct PoolConfig {
  size_t memory_bytes = 64 << 20;
  size_t num_buckets = 16384;    // should be a power of two
  int slots_per_bucket = 8;
  size_t segment_bytes = 64 << 10;
  int controller_cores = 1;
  uint64_t capacity_objects = 0;  // 0 = derive from heap size / 256 B objects
  rdma::CostModel cost;
};

class MemoryPool {
 public:
  // Throws std::invalid_argument if num_buckets is 0, slots_per_bucket is
  // not positive, or memory_bytes cannot hold the superblock and table.
  explicit MemoryPool(const PoolConfig& config);

  rdma::RemoteNode& node() { return node_; }
  const PoolConfig& config() const { return config_; }

  // Registers a controller RPC handler (forwarded to the node).
  void RegisterRpc(uint32_t id, rdma::RpcHandler handler) {
    node_.RegisterRpc(id, std::move(handler));
  }

  uint64_t table_addr() const { return kSuperblockBytes; }
  size_t num_buckets() const { return config_.num_buckets; }
  int slots_per_bucket() const { return config_.slots_per_bucket; }
  size_t num_slots() const { return config_.num_buckets * config_.slots_per_bucket; }

  uint64_t heap_addr() const { return heap_addr_; }
  size_t heap_bytes() const { return heap_bytes_; }

  // Capacity control (elasticity experiments change this at run time). The
  // value lives in the superblock so clients observe it with a READ.
  void SetCapacityObjects(uint64_t capacity);
  uint64_t capacity_objects() const;
  uint64_t cached_objects() const;
  void SetHistorySize(uint64_t entries);

  // Host-side view of allocator pressure (segments handed out).
  uint64_t segments_allocated() const { return segments_allocated_.load(); }

  // Cold restart of a crashed node: zeroes the superblock and hash table
  // (every slot, counter, freelist head, and expert weight), resets the
  // segment bump allocator, and restores the capacity/history words that were
  // in effect before the wipe. The heap is NOT zeroed — with the table empty
  // nothing references it, and any torn re-read of stale blocks is rejected
  // by the object checksum. Callers must ensure no client holds allocator or
  // FC-cache state for this node across the wipe (the cluster layer bumps a
  // node generation and recreates per-node clients).
  void WipeForRestart();

  // Logical-time source shared by all clients of this pool; used as the
  // timestamp domain of cache metadata.
  LogicalClock& clock() { return clock_; }

 private:
  void HandleAllocSegment(std::string_view request, std::string* response);
  void HandleResize(std::string_view request, std::string* response);

  PoolConfig config_;
  rdma::RemoteNode node_;
  uint64_t heap_addr_;
  size_t heap_bytes_;
  Mutex alloc_mu_;
  uint64_t bump_ GUARDED_BY(alloc_mu_);  // next unallocated heap offset
  std::atomic<uint64_t> segments_allocated_{0};
  LogicalClock clock_;
};

}  // namespace ditto::dm

#endif  // DITTO_DM_POOL_H_
