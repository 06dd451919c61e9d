// Shard-LRU baseline (paper §5.1) and the KVC / KVC-S / KVS microbenchmark
// structures (paper Figure 2).
//
// A straightforward DM cache: clients index objects through the hash table
// and maintain lock-protected LRU lists in the memory pool with one-sided
// verbs. The list maintenance on every access costs, under the lock:
//   CAS (acquire) + READ (list node) + 2 WRITE (splice) + WRITE (release),
// and failed lock acquisitions burn an RDMA_CAS each, then back off 5 us.
//
// Lock contention is modelled with a per-shard virtual-time FCFS queue: the
// queueing delay a client sees is converted into the number of failed CAS
// attempts it would have issued (delay / (backoff + CAS RTT)), and those
// messages are charged to the NIC — which is exactly the paper's observed
// collapse mode ("the RNIC of the MN is overwhelmed by useless RDMA_CASes").
// Victim selection is mirrored host-side (the shadow is only read while the
// shard lock is logically held, so it is consistent with a real remote list).
#ifndef DITTO_BASELINES_SHARD_LRU_H_
#define DITTO_BASELINES_SHARD_LRU_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "dm/allocator.h"
#include "dm/pool.h"
#include "hashtable/hash_table.h"
#include "policies/precise.h"
#include "rdma/nic_model.h"
#include "rdma/verbs.h"
#include "sim/client_iface.h"

namespace ditto::baselines {

struct ShardLruConfig {
  int num_shards = 32;           // 1 = KVC, 32 = KVC-S / Shard-LRU
  bool maintain_list = true;     // false = KVS (no caching structure)
  uint64_t capacity_objects = 0; // 0 = pool capacity
};

// Shared state: the shard locks' queueing servers plus the host-side shadow
// of each shard's LRU list. One instance per pool.
class ShardLruDirectory {
 public:
  ShardLruDirectory(dm::MemoryPool* pool, const ShardLruConfig& config);

  const ShardLruConfig& config() const { return config_; }
  uint64_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  // Elastic scaling: publishes a new aggregate capacity. Enforcement (the
  // evict-down) is performed by the clients, which own the verbs.
  void SetCapacity(uint64_t capacity) {
    capacity_.store(capacity, std::memory_order_relaxed);
  }
  uint64_t total_objects() const { return total_objects_.load(std::memory_order_relaxed); }

 private:
  friend class ShardLruClient;

  struct Shard {
    rdma::QueueingServer lock_queue;
    Mutex mu;
    // The shadow LRU list and the location index are only consistent with
    // the remote list while the shard lock is held; WithShardLock holds mu
    // around its body, and the bodies state that fact with mu.AssertHeld()
    // (the analysis cannot see through the std::function indirection).
    policy::PreciseLru lru GUARDED_BY(mu);
    // hash -> {slot_addr, obj_addr, blocks} so evictions can clear the slot.
    struct Loc {
      uint64_t slot_addr;
      uint64_t obj_addr;
      int blocks;
    };
    std::unordered_map<uint64_t, Loc> index GUARDED_BY(mu);
  };

  ShardLruConfig config_;
  std::atomic<uint64_t> capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> total_objects_{0};
};

class ShardLruClient : public sim::CacheClient {
 public:
  ShardLruClient(dm::MemoryPool* pool, ShardLruDirectory* dir, rdma::ClientContext* ctx);

  // Typed batch dispatch; kMultiGet runs replay as sequential lookups (the
  // baseline has no doorbell-chained metadata path to fuse).
  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override;

  rdma::ClientContext& ctx() override { return *ctx_; }
  sim::ClientCounters counters() const override { return counters_; }
  void ResetForMeasurement() override;

  // Elastic scaling: publishes the new aggregate capacity through the shared
  // directory and evicts LRU victims round-robin across the shards until the
  // cached count fits (no-op on expand). Idempotent across clients.
  bool ResizeCapacity(uint64_t capacity_objects) override;

  uint64_t lock_retries() const { return lock_retries_; }

 private:
  bool DoGet(std::string_view key, std::string* value);
  // Returns false if the store was dropped (no space, bucket full).
  bool DoSet(std::string_view key, std::string_view value, uint64_t ttl_ticks);
  bool DoDelete(std::string_view key);
  bool DoExpire(std::string_view key, uint64_t ttl_ticks);

  // Removes `hash`'s entry from its shard's list/index (under the shard
  // lock), clears the slot, and frees the blocks. Returns true if removed.
  bool RemoveEntry(uint64_t hash);

  // Evicts the LRU victim of shard `shard_sel % num_shards` under its lock,
  // clearing the slot and freeing the blocks. Returns true if one went.
  bool EvictShardVictim(uint64_t shard_sel);

  // Performs the locked critical section around `body`, charging lock
  // acquisition (with retries), the body's verbs, and the release.
  void WithShardLock(uint64_t hash, const std::function<void()>& body);

  // List maintenance verbs under the lock: READ node + 2 WRITE splices.
  void ChargeListSplice();

  dm::MemoryPool* pool_;
  ShardLruDirectory* dir_;
  rdma::ClientContext* ctx_;
  rdma::Verbs verbs_;
  ht::HashTable table_;
  dm::RemoteAllocator alloc_;
  sim::ClientCounters counters_;
  uint64_t lock_retries_ = 0;
  std::vector<uint8_t> object_buf_;
  std::vector<ht::SlotView> bucket_buf_;
  std::vector<uint8_t> encode_buf_;
};

}  // namespace ditto::baselines

#endif  // DITTO_BASELINES_SHARD_LRU_H_
