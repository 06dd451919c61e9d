// Precise (non-sampled) cache replacement structures used by server-centric
// baselines (CliqueMap's LRU list and LFU heap) and by sim::ReplayExact, the
// exact replay behind the motivation figures and the elasticity baselines.
#ifndef DITTO_POLICIES_PRECISE_H_
#define DITTO_POLICIES_PRECISE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

namespace ditto::policy {

// O(1) exact LRU over uint64 keys (doubly-linked list + index).
class PreciseLru {
 public:
  bool Contains(uint64_t key) const { return index_.count(key) > 0; }
  size_t size() const { return order_.size(); }

  // Moves key to the MRU position; inserts it if absent.
  void Touch(uint64_t key);
  void Erase(uint64_t key);
  // Removes and returns the LRU key. Precondition: not empty.
  uint64_t EvictVictim();
  // Peeks the LRU key without removing it. Precondition: not empty.
  uint64_t Victim() const { return order_.back(); }

 private:
  std::list<uint64_t> order_;  // front = MRU, back = LRU
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index_;
};

// Exact LFU with LRU tie-breaking (frequency buckets, O(1) amortized).
class PreciseLfu {
 public:
  bool Contains(uint64_t key) const { return index_.count(key) > 0; }
  size_t size() const { return index_.size(); }

  // Increments key's frequency; inserts with frequency 1 if absent.
  void Touch(uint64_t key);
  void Erase(uint64_t key);
  // Removes and returns the least-frequent (oldest on tie) key.
  uint64_t EvictVictim();
  uint64_t Victim() const { return buckets_.begin()->second.back(); }
  uint64_t FrequencyOf(uint64_t key) const;

 private:
  struct Where {
    uint64_t freq;
    std::list<uint64_t>::iterator it;
  };
  // freq -> keys at that freq (front = most recently touched).
  std::map<uint64_t, std::list<uint64_t>> buckets_;
  std::unordered_map<uint64_t, Where> index_;
};

// A complete exact cache (capacity in objects) with a pluggable precise
// policy, used by sim::ReplayExact and baseline servers. A new precise policy
// is one more PrecisePolicyKind.
enum class PrecisePolicyKind { kLru, kLfu, kFifo, kRandom };

class PreciseCache {
 public:
  PreciseCache(size_t capacity, PrecisePolicyKind kind, uint64_t seed = 1);

  // Processes one access. Returns true on hit; on miss the key is admitted
  // (evicting a victim first if at capacity).
  bool Access(uint64_t key);
  bool Contains(uint64_t key) const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  // Changes capacity; evicts immediately if shrinking.
  void Resize(size_t capacity);

  uint64_t hits = 0;
  uint64_t misses = 0;
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

 private:
  void EvictOne();

  size_t capacity_;
  PrecisePolicyKind kind_;
  PreciseLru lru_;  // kLru, and kFifo (touched only on admission)
  PreciseLfu lfu_;
  std::unordered_map<uint64_t, size_t> random_index_;  // key -> position in random_keys_
  std::vector<uint64_t> random_keys_;
  uint64_t rng_state_;
};

}  // namespace ditto::policy

#endif  // DITTO_POLICIES_PRECISE_H_
