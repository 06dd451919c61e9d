#include "baselines/shard_lru.h"

#include <cassert>
#include <functional>

#include "common/hash.h"
#include "core/object.h"

namespace ditto::baselines {
namespace {
// Sleep after a failed lock CAS.
constexpr double kLockBackoffUs = 5.0;
}  // namespace

ShardLruDirectory::ShardLruDirectory(dm::MemoryPool* pool, const ShardLruConfig& config)
    : config_(config),
      capacity_(config.capacity_objects != 0 ? config.capacity_objects
                                             : pool->capacity_objects()) {
  shards_.reserve(config.num_shards);
  for (int i = 0; i < config.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardLruClient::ShardLruClient(dm::MemoryPool* pool, ShardLruDirectory* dir,
                               rdma::ClientContext* ctx)
    : pool_(pool),
      dir_(dir),
      ctx_(ctx),
      verbs_(&pool->node(), ctx),
      table_(pool, &verbs_),
      alloc_(pool, &verbs_) {}

void ShardLruClient::ChargeListSplice() {
  // READ the neighbouring node, then two WRITEs to splice the accessed node
  // to the list head.
  uint8_t node[24];
  verbs_.Read(dm::kFreeListBase, node, sizeof(node));  // address is immaterial to the model
  verbs_.WriteAsync(dm::kFreeListBase, node, 8);
  verbs_.Write(dm::kFreeListBase + 8, node, 8);
}

void ShardLruClient::WithShardLock(uint64_t hash, const std::function<void()>& body) {
  const rdma::CostModel& cost = pool_->node().cost();
  auto& shard = *dir_->shards_[hash % dir_->config_.num_shards];

  // One CAS to acquire the lock.
  const uint64_t acquire_start_ns = ctx_->now_ns();
  verbs_.FetchAdd(dm::kFreeListBase + 16, 0);  // the acquire CAS message

  // Queue for the critical section in virtual time. The hold time is the
  // body's verb latency; we approximate it upfront with the steady-state
  // cost (measured after the body, the queue is corrected by charging the
  // difference on the next acquisition — in practice the body cost is
  // constant: READ + 2 WRITE + release WRITE).
  const double hold_us = cost.enabled
                             ? (cost.read_rtt_us + cost.write_rtt_us + cost.async_post_us * 2 +
                                cost.atomic_rtt_us)
                             : 0.0;
  const uint64_t queue_ns =
      shard.lock_queue.Charge(acquire_start_ns, static_cast<uint64_t>(hold_us * 1000.0));
  if (cost.enabled && queue_ns > 0) {
    // While waiting, the client retries CAS every (backoff + CAS RTT); each
    // retry is a wasted atomic burning NIC message rate.
    const double retry_period_us = kLockBackoffUs + cost.atomic_rtt_us;
    const auto retries = static_cast<uint64_t>(
        static_cast<double>(queue_ns) / 1000.0 / retry_period_us);
    for (uint64_t r = 0; r < retries; ++r) {
      verbs_.ChargeLostAtomic();
      lock_retries_++;
    }
    ctx_->clock().AdvanceNs(queue_ns);
  }

  {
    MutexLock lock(&shard.mu);
    body();
  }

  // Release WRITE.
  uint64_t zero = 0;
  verbs_.WriteAsync(dm::kFreeListBase + 16, &zero, 8);
}

void ShardLruClient::ExecuteBatch(std::span<const sim::CacheOp> ops,
                                  sim::CacheResult* results) {
  for (size_t i = 0; i < ops.size(); ++i) {
    sim::DispatchSingleOp(
        *ctx_, ops[i], &results[i],
        [this](std::string_view key, std::string* value) { return DoGet(key, value); },
        [this](std::string_view key, std::string_view value, uint64_t ttl) {
          return DoSet(key, value, ttl);
        },
        [this](std::string_view key) { return DoDelete(key); },
        [this](std::string_view key, uint64_t ttl) { return DoExpire(key, ttl); });
  }
}

bool ShardLruClient::RemoveEntry(uint64_t hash) {
  bool removed = false;
  WithShardLock(hash, [this, hash, &removed] {
    auto& shard = *dir_->shards_[hash % dir_->config_.num_shards];
    shard.mu.AssertHeld();  // WithShardLock holds it around the body
    const auto it = shard.index.find(hash);
    if (it == shard.index.end()) {
      return;
    }
    shard.lru.Erase(hash);
    verbs_.CompareSwap(it->second.slot_addr + ht::kAtomicOff,
                       pool_->node().arena().ReadU64(it->second.slot_addr + ht::kAtomicOff),
                       0);
    alloc_.FreeBlocks(it->second.obj_addr, it->second.blocks);
    shard.index.erase(it);
    dir_->total_objects_.fetch_sub(1, std::memory_order_relaxed);
    removed = true;
  });
  return removed;
}

bool ShardLruClient::EvictShardVictim(uint64_t shard_sel) {
  bool evicted = false;
  WithShardLock(shard_sel, [this, shard_sel, &evicted] {
    auto& shard = *dir_->shards_[shard_sel % dir_->config_.num_shards];
    shard.mu.AssertHeld();  // WithShardLock holds it around the body
    if (shard.lru.size() == 0) {
      return;
    }
    const uint64_t victim = shard.lru.EvictVictim();
    const auto it = shard.index.find(victim);
    if (it == shard.index.end()) {
      return;
    }
    // Clear the victim's slot and free its blocks (verbs under lock).
    verbs_.CompareSwap(it->second.slot_addr + ht::kAtomicOff,
                       pool_->node().arena().ReadU64(it->second.slot_addr + ht::kAtomicOff),
                       0);
    alloc_.FreeBlocks(it->second.obj_addr, it->second.blocks);
    shard.index.erase(it);
    dir_->total_objects_.fetch_sub(1, std::memory_order_relaxed);
    evicted = true;
  });
  if (evicted) {
    counters_.evictions++;
  }
  return evicted;
}

bool ShardLruClient::ResizeCapacity(uint64_t capacity_objects) {
  dir_->SetCapacity(capacity_objects);
  if (!dir_->config_.maintain_list) {
    return false;  // KVS mode has no caching structure to shrink through
  }
  // Evict round-robin over the shards until the aggregate fits; a full sweep
  // that evicts nothing means every remaining shard is already empty.
  const int num_shards = dir_->config_.num_shards;
  while (dir_->total_objects() > capacity_objects) {
    bool any = false;
    for (int s = 0; s < num_shards && dir_->total_objects() > capacity_objects; ++s) {
      any = EvictShardVictim(static_cast<uint64_t>(s)) || any;
    }
    if (!any) {
      break;
    }
  }
  return dir_->total_objects() <= capacity_objects;
}

bool ShardLruClient::DoGet(std::string_view key, std::string* value) {
  counters_.gets++;
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  table_.ReadBucket(bucket, &bucket_buf_);
  for (int i = 0; i < table_.slots_per_bucket(); ++i) {
    const ht::SlotView& slot = bucket_buf_[i];
    if (!slot.IsObject() || slot.fp() != fp || slot.hash != hash) {
      continue;
    }
    const size_t bytes = static_cast<size_t>(slot.size_blocks()) * dm::kBlockBytes;
    object_buf_.resize(bytes);
    verbs_.Read(slot.pointer(), object_buf_.data(), bytes);
    core::DecodedObject obj;
    if (!core::DecodeObject(object_buf_.data(), bytes, &obj) || obj.key != key) {
      continue;
    }
    if (obj.ExpiredAt(pool_->clock().Tick())) {
      // Lazy expiry: the looker-up reclaims the dead object.
      if (dir_->config_.maintain_list) {
        RemoveEntry(hash);
      } else if (table_.CasAtomic(table_.BucketSlotAddr(bucket, i), slot.atomic_word, 0)) {
        alloc_.FreeBlocks(slot.pointer(), slot.size_blocks());
      }
      counters_.expired++;
      counters_.misses++;
      return false;
    }
    if (value != nullptr) {
      value->assign(obj.value);
    }
    if (dir_->config_.maintain_list) {
      WithShardLock(hash, [this, hash] {
        ChargeListSplice();
        auto& shard = *dir_->shards_[hash % dir_->config_.num_shards];
        shard.mu.AssertHeld();  // WithShardLock holds it around the body
        if (shard.index.count(hash) > 0) {
          shard.lru.Touch(hash);
        }
      });
    }
    counters_.hits++;
    return true;
  }
  counters_.misses++;
  return false;
}

bool ShardLruClient::DoDelete(std::string_view key) {
  const uint64_t hash = HashKey(key);
  if (dir_->config_.maintain_list) {
    if (RemoveEntry(hash)) {
      counters_.deletes++;
      return true;
    }
    return false;
  }
  // KVS mode (no caching structure): clear the slot directly.
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  table_.ReadBucket(bucket, &bucket_buf_);
  for (int i = 0; i < table_.slots_per_bucket(); ++i) {
    const ht::SlotView& slot = bucket_buf_[i];
    if (slot.IsObject() && slot.fp() == fp && slot.hash == hash) {
      if (table_.CasAtomic(table_.BucketSlotAddr(bucket, i), slot.atomic_word, 0)) {
        alloc_.FreeBlocks(slot.pointer(), slot.size_blocks());
        counters_.deletes++;
        return true;
      }
      return false;
    }
  }
  return false;
}

bool ShardLruClient::DoExpire(std::string_view key, uint64_t ttl_ticks) {
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  for (int attempt = 0; attempt < 4; ++attempt) {
    table_.ReadBucket(bucket, &bucket_buf_);
    int found = -1;
    for (int i = 0; i < table_.slots_per_bucket(); ++i) {
      const ht::SlotView& slot = bucket_buf_[i];
      if (slot.IsObject() && slot.fp() == fp && slot.hash == hash) {
        found = i;
        break;
      }
    }
    if (found < 0) {
      return false;
    }
    const ht::SlotView& slot = bucket_buf_[found];
    // Validate the slot still publishes this object before writing into its
    // blocks (same-word CAS fails iff the slot changed underneath us).
    if (!table_.CasAtomic(table_.BucketSlotAddr(bucket, found), slot.atomic_word,
                          slot.atomic_word)) {
      continue;
    }
    const uint64_t expiry = ttl_ticks == 0 ? 0 : pool_->clock().Tick() + ttl_ticks;
    verbs_.WriteAsync(slot.pointer() + core::kExpiryOff, &expiry, 8);
    return true;
  }
  return false;
}

bool ShardLruClient::DoSet(std::string_view key, std::string_view value, uint64_t ttl_ticks) {
  counters_.sets++;
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);
  const uint64_t bucket = table_.BucketIndexFor(hash);
  const int blocks = core::ObjectBlocks(key.size(), value.size(), 0);
  const uint64_t expiry = ttl_ticks == 0 ? 0 : pool_->clock().Tick() + ttl_ticks;

  for (int attempt = 0; attempt < 8; ++attempt) {
    table_.ReadBucket(bucket, &bucket_buf_);
    int found = -1;
    int empty = -1;
    for (int i = 0; i < table_.slots_per_bucket(); ++i) {
      const ht::SlotView& slot = bucket_buf_[i];
      if (slot.IsObject() && slot.fp() == fp && slot.hash == hash) {
        found = i;
        break;
      }
      if (slot.IsEmpty() && empty < 0) {
        empty = i;
      }
    }

    uint64_t addr = alloc_.AllocBlocks(blocks);
    if (addr == 0 && dir_->config_.maintain_list) {
      // Evict the LRU victim of this key's shard to free space.
      if (!EvictShardVictim(hash)) {
        return false;
      }
      addr = alloc_.AllocBlocks(blocks);
    }
    if (addr == 0) {
      return false;
    }
    core::EncodeObject(key, value, nullptr, 0, &encode_buf_, expiry);
    verbs_.Write(addr, encode_buf_.data(), encode_buf_.size());
    const uint64_t desired = ht::PackAtomic(fp, static_cast<uint8_t>(blocks), addr);

    uint64_t slot_addr = 0;
    uint64_t expected = 0;
    if (found >= 0) {
      slot_addr = table_.BucketSlotAddr(bucket, found);
      expected = bucket_buf_[found].atomic_word;
    } else if (empty >= 0) {
      slot_addr = table_.BucketSlotAddr(bucket, empty);
      expected = 0;
    } else {
      alloc_.FreeBlocks(addr, blocks);
      return false;  // bucket full: drop (matches the simple baseline's behaviour)
    }
    if (!table_.CasAtomic(slot_addr, expected, desired)) {
      alloc_.FreeBlocks(addr, blocks);
      continue;
    }
    uint64_t meta[1] = {hash};
    verbs_.Write(slot_addr + ht::kHashOff, meta, 8);
    if (found >= 0) {
      alloc_.FreeBlocks(bucket_buf_[found].pointer(), bucket_buf_[found].size_blocks());
    }
    if (dir_->config_.maintain_list) {
      WithShardLock(hash, [this, hash, slot_addr, addr, blocks, found] {
        ChargeListSplice();
        auto& shard = *dir_->shards_[hash % dir_->config_.num_shards];
        shard.mu.AssertHeld();  // WithShardLock holds it around the body
        shard.lru.Touch(hash);
        shard.index[hash] =
            ShardLruDirectory::Shard::Loc{slot_addr, addr, blocks};
        if (found < 0) {
          dir_->total_objects_.fetch_add(1, std::memory_order_relaxed);
        }
      });
      // Capacity enforcement: evict while over budget.
      while (dir_->total_objects() > dir_->capacity()) {
        if (!EvictShardVictim(hash)) {
          break;
        }
      }
    }
    return true;
  }
  return false;  // lost the publish race on every attempt
}

void ShardLruClient::ResetForMeasurement() {
  counters_ = sim::ClientCounters{};
  ctx_->op_hist().Reset();
}

}  // namespace ditto::baselines
