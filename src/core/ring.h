// Epoch-swapped consistent-hash ring: the mutable node directory of a
// ClusterPool.
//
// Placement is directory-primary with rendezvous fallback:
//   1. Every key has a PRIMARY node, a seeded partition of its hash over the
//      initial node count (SeededPartition), so a ring that never changes
//      routes like a static hash-partitioned pool.
//   2. If the primary is not live (crashed or departed), the key falls back
//      to highest-random-weight (rendezvous) hashing over the live set, so
//      only the dead node's keys move — the consistent-hashing property —
//      and every client computes the same fallback without coordination.
//
// Concurrency: epochs are immutable once published. Mutation appends a new
// RingEpoch (copy + edit) under a mutex and swaps one atomic pointer;
// concurrent readers load the pointer once per routing decision and never
// observe a half-updated ring. Epoch storage is append-only for the life of
// the ring (lifecycle steps are rare; reclamation would buy bytes and cost a
// hazard-pointer scheme).
//
// Nodes joined beyond the initial directory (node id >= directory_size) are
// never primary; they serve keys only through rendezvous fallback of dead
// primaries. Growing the directory itself would remap nearly every key
// (the modulo changes) and is deliberately unsupported.
#ifndef DITTO_CORE_RING_H_
#define DITTO_CORE_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"

namespace ditto::core {

// Most nodes a ring can hold: liveness is one bit per node in a 64-bit mask
// (RingEpoch::live_mask), so node ids run from 0 to kMaxRingNodes - 1.
inline constexpr uint32_t kMaxRingNodes = 64;

// One immutable published ring state.
class RingEpoch {
 public:
  RingEpoch(uint64_t epoch, uint32_t directory_size, uint64_t partition_seed,
            uint64_t live_mask)
      : epoch_(epoch),
        directory_size_(directory_size),
        partition_seed_(partition_seed),
        live_mask_(live_mask) {
    for (uint32_t id = 0; id < kMaxRingNodes; ++id) {
      if ((live_mask_ >> id) & 1) {
        live_.push_back(id);
      }
    }
  }

  uint64_t epoch() const { return epoch_; }
  uint64_t live_mask() const { return live_mask_; }
  const std::vector<uint32_t>& live() const { return live_; }
  bool IsLive(uint32_t node_id) const {
    return node_id < kMaxRingNodes && ((live_mask_ >> node_id) & 1) != 0;
  }

  // The key's primary: a seeded partition of the hash over the directory.
  uint32_t PrimaryFor(uint64_t hash) const {
    return SeededPartition(hash, directory_size_, partition_seed_);
  }

  // Routes a key: primary if live, rendezvous over the live set otherwise.
  // Returns -1 when no node is live.
  int NodeFor(uint64_t hash) const {
    const uint32_t primary = PrimaryFor(hash);
    if (IsLive(primary)) {
      return static_cast<int>(primary);
    }
    int best = -1;
    uint64_t best_score = 0;
    for (const uint32_t id : live_) {
      // Highest-random-weight: every client scores (key, node) identically,
      // so the fallback owner needs no coordination and moves only when the
      // live set changes.
      const uint64_t score = Mix64(hash ^ Mix64(partition_seed_ + id + 1));
      if (best < 0 || score > best_score) {
        best = static_cast<int>(id);
        best_score = score;
      }
    }
    return best;
  }

 private:
  uint64_t epoch_;
  uint32_t directory_size_;
  uint64_t partition_seed_;
  uint64_t live_mask_;
  std::vector<uint32_t> live_;
};

class HashRing {
 public:
  // Epoch 0: all `directory_size` directory nodes live. Throws
  // std::invalid_argument unless 1 <= directory_size <= kMaxRingNodes.
  HashRing(uint32_t directory_size, uint64_t partition_seed)
      : directory_size_(directory_size), partition_seed_(partition_seed) {
    if (directory_size == 0 || directory_size > kMaxRingNodes) {
      throw std::invalid_argument("HashRing: node count must be in [1, " +
                                  std::to_string(kMaxRingNodes) + "]");
    }
    auto epoch0 = std::make_unique<RingEpoch>(
        0, directory_size, partition_seed,
        directory_size == kMaxRingNodes ? ~uint64_t{0}
                                        : (uint64_t{1} << directory_size) - 1);
    current_.store(epoch0.get(), std::memory_order_release);
    MutexLock lock(&mu_);
    epochs_.push_back(std::move(epoch0));
  }

  // Lock-free read side: one acquire load per routing decision.
  const RingEpoch* current() const { return current_.load(std::memory_order_acquire); }
  int NodeFor(uint64_t hash) const { return current()->NodeFor(hash); }
  uint64_t epoch() const { return current()->epoch(); }
  uint32_t directory_size() const { return directory_size_; }

  // Publishes a new epoch with node_id removed/added. Returns the new epoch
  // number. Safe against concurrent readers; writers are serialized. Throws
  // std::out_of_range for node_id >= kMaxRingNodes.
  uint64_t SwapRemove(uint32_t node_id) {
    return Swap(/*node_id=*/node_id, /*live=*/false);
  }
  uint64_t SwapAdd(uint32_t node_id) { return Swap(/*node_id=*/node_id, /*live=*/true); }

 private:
  uint64_t Swap(uint32_t node_id, bool live) {
    if (node_id >= kMaxRingNodes) {
      throw std::out_of_range("HashRing: node id must be below " +
                              std::to_string(kMaxRingNodes));
    }
    MutexLock lock(&mu_);
    const RingEpoch* cur = current_.load(std::memory_order_acquire);
    const uint64_t bit = uint64_t{1} << node_id;
    const uint64_t mask = live ? (cur->live_mask() | bit) : (cur->live_mask() & ~bit);
    auto next = std::make_unique<RingEpoch>(cur->epoch() + 1, directory_size_,
                                            partition_seed_, mask);
    const uint64_t epoch = next->epoch();
    current_.store(next.get(), std::memory_order_release);
    epochs_.push_back(std::move(next));
    return epoch;
  }

  uint32_t directory_size_;
  uint64_t partition_seed_;
  mutable Mutex mu_;
  // Append-only: old epochs stay alive so a reader holding a stale pointer
  // never dereferences freed memory.
  std::vector<std::unique_ptr<RingEpoch>> epochs_ GUARDED_BY(mu_);
  std::atomic<const RingEpoch*> current_;
};

}  // namespace ditto::core

#endif  // DITTO_CORE_RING_H_
