#include "policies/precise.h"

#include <cassert>
#include <vector>

#include "common/hash.h"

namespace ditto::policy {

void PreciseLru::Touch(uint64_t key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    order_.erase(it->second);
  }
  order_.push_front(key);
  index_[key] = order_.begin();
}

void PreciseLru::Erase(uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  order_.erase(it->second);
  index_.erase(it);
}

uint64_t PreciseLru::EvictVictim() {
  assert(!order_.empty());
  const uint64_t key = order_.back();
  order_.pop_back();
  index_.erase(key);
  return key;
}

void PreciseLfu::Touch(uint64_t key) {
  const auto it = index_.find(key);
  uint64_t freq = 1;
  if (it != index_.end()) {
    freq = it->second.freq + 1;
    auto& old_bucket = buckets_[it->second.freq];
    old_bucket.erase(it->second.it);
    if (old_bucket.empty()) {
      buckets_.erase(it->second.freq);
    }
  }
  auto& bucket = buckets_[freq];
  bucket.push_front(key);
  index_[key] = Where{freq, bucket.begin()};
}

void PreciseLfu::Erase(uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  auto& bucket = buckets_[it->second.freq];
  bucket.erase(it->second.it);
  if (bucket.empty()) {
    buckets_.erase(it->second.freq);
  }
  index_.erase(it);
}

uint64_t PreciseLfu::EvictVictim() {
  assert(!buckets_.empty());
  auto& [freq, bucket] = *buckets_.begin();
  const uint64_t key = bucket.back();
  bucket.pop_back();
  if (bucket.empty()) {
    buckets_.erase(freq);
  }
  index_.erase(key);
  return key;
}

uint64_t PreciseLfu::FrequencyOf(uint64_t key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.freq;
}

PreciseCache::PreciseCache(size_t capacity, PrecisePolicyKind kind, uint64_t seed)
    : capacity_(capacity), kind_(kind), rng_state_(Mix64(seed | 1)) {}

bool PreciseCache::Contains(uint64_t key) const {
  switch (kind_) {
    case PrecisePolicyKind::kLru:
    case PrecisePolicyKind::kFifo:
      return lru_.Contains(key);
    case PrecisePolicyKind::kLfu:
      return lfu_.Contains(key);
    case PrecisePolicyKind::kRandom:
      return random_index_.count(key) > 0;
  }
  return false;
}

size_t PreciseCache::size() const {
  switch (kind_) {
    case PrecisePolicyKind::kLru:
    case PrecisePolicyKind::kFifo:
      return lru_.size();
    case PrecisePolicyKind::kLfu:
      return lfu_.size();
    case PrecisePolicyKind::kRandom:
      return random_index_.size();
  }
  return 0;
}

void PreciseCache::EvictOne() {
  switch (kind_) {
    case PrecisePolicyKind::kLru:
    case PrecisePolicyKind::kFifo:
      lru_.EvictVictim();
      break;
    case PrecisePolicyKind::kLfu:
      lfu_.EvictVictim();
      break;
    case PrecisePolicyKind::kRandom: {
      rng_state_ = Mix64(rng_state_);
      const size_t pos = rng_state_ % random_keys_.size();
      const uint64_t key = random_keys_[pos];
      random_keys_[pos] = random_keys_.back();
      random_index_[random_keys_[pos]] = pos;
      random_keys_.pop_back();
      random_index_.erase(key);
      break;
    }
  }
}

bool PreciseCache::Access(uint64_t key) {
  const bool hit = Contains(key);
  if (hit) {
    hits++;
  } else {
    misses++;
    while (size() >= capacity_ && capacity_ > 0) {
      EvictOne();
    }
    if (capacity_ == 0) {
      return false;
    }
  }
  switch (kind_) {
    case PrecisePolicyKind::kLru:
      lru_.Touch(key);
      break;
    case PrecisePolicyKind::kLfu:
      lfu_.Touch(key);
      break;
    case PrecisePolicyKind::kFifo:
      if (!hit) {
        lru_.Touch(key);
      }
      break;
    case PrecisePolicyKind::kRandom:
      if (!hit) {
        random_keys_.push_back(key);
        random_index_[key] = random_keys_.size() - 1;
      }
      break;
  }
  return hit;
}

void PreciseCache::Resize(size_t capacity) {
  capacity_ = capacity;
  while (size() > capacity_) {
    EvictOne();
  }
}

}  // namespace ditto::policy
