#include "baselines/cliquemap.h"

#include <cassert>
#include <cstring>

#include "common/hash.h"
#include "core/object.h"

namespace ditto::baselines {
namespace {

// MN CPU cost of merging one access record (also of one shrink eviction).
constexpr double kSyncServiceUsPerEntry = 0.3;

struct SetRequestHeader {
  uint32_t val_len;
  uint16_t key_len;
  uint16_t reserved;
  uint64_t expiry_tick;  // absolute tick; 0 = never expires
};
static_assert(sizeof(SetRequestHeader) == 16);

// Set response: status byte + little-endian count of evictions the Set
// caused, so clients can surface server-side eviction pressure.
std::string SetResponse(bool ok, uint64_t evictions) {
  std::string response(9, '\0');
  response[0] = ok ? '\1' : '\0';
  std::memcpy(response.data() + 1, &evictions, 8);
  return response;
}

}  // namespace

CliqueMapServer::CliqueMapServer(dm::MemoryPool* pool, const CliqueMapConfig& config)
    : pool_(pool),
      config_(config),
      capacity_(config.capacity_objects != 0 ? config.capacity_objects
                                             : pool->capacity_objects()),
      bump_(pool->heap_addr() + dm::kBlockBytes),
      free_runs_(dm::kMaxRunBlocks + 1) {
  // The handlers keep their string-returning form (server-side cost is
  // modelled by CpuModel, not allocator traffic); the adaptor writes into the
  // dispatcher-provided caller buffer.
  pool->RegisterRpc(kRpcCmSet, [this](std::string_view request, std::string* response) {
    *response = HandleSet(request);
  });
  pool->RegisterRpc(kRpcCmSync, [this](std::string_view request, std::string* response) {
    *response = HandleSync(request);
  });
  pool->RegisterRpc(kRpcCmDelete, [this](std::string_view request, std::string* response) {
    *response = HandleDelete(request);
  });
  pool->RegisterRpc(kRpcCmExpire, [this](std::string_view request, std::string* response) {
    *response = HandleExpire(request);
  });
  pool->RegisterRpc(kRpcCmResize, [this](std::string_view request, std::string* response) {
    *response = HandleResize(request);
  });
}

uint64_t CliqueMapServer::size() const {
  MutexLock lock(&mu_);
  return index_.size();
}

uint64_t CliqueMapServer::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

std::string CliqueMapServer::HandleResize(std::string_view request) {
  if (request.size() != 8) {
    return SetResponse(false, 0);  // malformed: reject
  }
  uint64_t capacity = 0;
  std::memcpy(&capacity, request.data(), 8);
  if (capacity == 0) {
    return SetResponse(false, 0);
  }
  MutexLock lock(&mu_);
  capacity_ = capacity;
  uint64_t evictions = 0;
  while (index_.size() > capacity_) {
    EvictOneLocked();
    evictions++;
  }
  return SetResponse(true, evictions);
}

uint64_t CliqueMapServer::AllocBlocksLocked(int blocks) {
  if (!free_runs_[blocks].empty()) {
    const uint64_t addr = free_runs_[blocks].back();
    free_runs_[blocks].pop_back();
    return addr;
  }
  const uint64_t want = static_cast<uint64_t>(blocks) * dm::kBlockBytes;
  if (bump_ + want > pool_->heap_addr() + pool_->heap_bytes()) {
    return 0;
  }
  const uint64_t addr = bump_;
  bump_ += want;
  return addr;
}

void CliqueMapServer::FreeBlocksLocked(uint64_t addr, int blocks) {
  free_runs_[blocks].push_back(addr);
}

void CliqueMapServer::TouchLocked(uint64_t hash, uint64_t count) {
  if (index_.count(hash) == 0) {
    return;  // access info for an already-evicted object
  }
  if (config_.policy == CmPolicy::kLru) {
    lru_.Touch(hash);
  } else {
    for (uint64_t i = 0; i < count; ++i) {
      lfu_.Touch(hash);
    }
  }
}

void CliqueMapServer::EvictOneLocked() {
  uint64_t victim;
  if (config_.policy == CmPolicy::kLru) {
    victim = lru_.EvictVictim();
  } else {
    victim = lfu_.EvictVictim();
  }
  const auto it = index_.find(victim);
  assert(it != index_.end());
  // Clear the slot so client RMA Gets observe the eviction.
  pool_->node().arena().WriteU64(it->second.slot_addr + ht::kAtomicOff, 0);
  FreeBlocksLocked(it->second.obj_addr, it->second.blocks);
  index_.erase(it);
}

std::string CliqueMapServer::HandleSet(std::string_view request) {
  // Validate the payload size before decoding: the fixed header must be
  // whole (the unchecked memcpy here was an out-of-bounds read for short
  // payloads) and the declared key/value lengths must match the bytes that
  // actually arrived — a header promising more than the payload holds would
  // otherwise silently cache a truncated object.
  if (request.size() < sizeof(SetRequestHeader)) {
    return SetResponse(false, 0);
  }
  SetRequestHeader header;
  std::memcpy(&header, request.data(), sizeof(header));
  if (request.size() != sizeof(header) + header.key_len + header.val_len) {
    return SetResponse(false, 0);
  }
  const std::string_view key = request.substr(sizeof(header), header.key_len);
  const std::string_view value = request.substr(sizeof(header) + header.key_len, header.val_len);
  const uint64_t hash = HashKey(key);
  const uint8_t fp = Fingerprint(hash);

  MutexLock lock(&mu_);
  const int blocks = core::ObjectBlocks(key.size(), value.size(), 0);
  auto it = index_.find(hash);
  if (it != index_.end()) {
    // Update in place: rewrite the object (reallocate if the size changed).
    FreeBlocksLocked(it->second.obj_addr, it->second.blocks);
    const uint64_t addr = AllocBlocksLocked(blocks);
    if (addr == 0) {
      return SetResponse(false, 0);
    }
    std::vector<uint8_t> buf;
    core::EncodeObject(key, value, nullptr, 0, &buf, header.expiry_tick);
    pool_->node().arena().Write(addr, buf.data(), buf.size());
    pool_->node().arena().WriteU64(it->second.slot_addr + ht::kAtomicOff,
                                   ht::PackAtomic(fp, static_cast<uint8_t>(blocks), addr));
    it->second.obj_addr = addr;
    it->second.blocks = blocks;
    TouchLocked(hash, 1);
    return SetResponse(true, 0);
  }

  uint64_t evictions = 0;
  while (index_.size() >= capacity_ && !index_.empty()) {
    EvictOneLocked();
    evictions++;
  }
  uint64_t addr = AllocBlocksLocked(blocks);
  while (addr == 0 && !index_.empty()) {
    // Heap fragmentation/pressure: evict until an allocation fits.
    EvictOneLocked();
    evictions++;
    addr = AllocBlocksLocked(blocks);
  }
  if (addr == 0) {
    return SetResponse(false, evictions);
  }
  return FinishInsertLocked(addr, key, value, hash, fp, blocks, header.expiry_tick,
                            &evictions);
}

std::string CliqueMapServer::HandleDelete(std::string_view request) {
  const uint64_t hash = HashKey(request);
  MutexLock lock(&mu_);
  if (index_.count(hash) == 0) {
    return std::string(1, '\0');
  }
  EvictSpecificLocked(hash);
  return std::string(1, '\1');
}

std::string CliqueMapServer::HandleExpire(std::string_view request) {
  // Request: expiry_tick u64 + key bytes. A payload shorter than the expiry
  // word is malformed (the unchecked memcpy read out of bounds and the
  // substr(8) below threw std::out_of_range, taking the whole server down).
  if (request.size() < 8) {
    return std::string(1, '\0');
  }
  uint64_t expiry = 0;
  std::memcpy(&expiry, request.data(), 8);
  const std::string_view key = request.substr(8);
  const uint64_t hash = HashKey(key);
  MutexLock lock(&mu_);
  const auto it = index_.find(hash);
  if (it == index_.end()) {
    return std::string(1, '\0');
  }
  pool_->node().arena().WriteU64(it->second.obj_addr + core::kExpiryOff, expiry);
  return std::string(1, '\1');
}

void CliqueMapServer::EvictSpecificLocked(uint64_t hash) {
  const auto it = index_.find(hash);
  if (it == index_.end()) {
    return;
  }
  lru_.Erase(hash);
  lfu_.Erase(hash);
  pool_->node().arena().WriteU64(it->second.slot_addr + ht::kAtomicOff, 0);
  FreeBlocksLocked(it->second.obj_addr, it->second.blocks);
  index_.erase(it);
}

std::string CliqueMapServer::FinishInsertLocked(uint64_t addr, std::string_view key,
                                                std::string_view value, uint64_t hash,
                                                uint8_t fp, int blocks, uint64_t expiry_tick,
                                                uint64_t* evictions) {
  std::vector<uint8_t> buf;
  core::EncodeObject(key, value, nullptr, 0, &buf, expiry_tick);
  rdma::MemoryArena& arena = pool_->node().arena();
  arena.Write(addr, buf.data(), buf.size());

  // Find a slot in the key's bucket; if the bucket is full, evict one of its
  // occupants (the index stays consistent because the server is the only
  // writer of the table).
  const uint64_t bucket = hash & (pool_->num_buckets() - 1);
  const int slots = pool_->slots_per_bucket();
  int target = -1;
  for (int sweep = 0; sweep < 2 && target < 0; ++sweep) {
    for (int i = 0; i < slots; ++i) {
      const uint64_t slot_addr = pool_->table_addr() + (bucket * slots + i) * ht::kSlotBytes;
      if (arena.ReadU64(slot_addr + ht::kAtomicOff) == 0) {
        target = i;
        break;
      }
    }
    if (target < 0) {
      // Evict the first occupant of the bucket to make room.
      const uint64_t first_slot = pool_->table_addr() + bucket * slots * ht::kSlotBytes;
      EvictSpecificLocked(arena.ReadU64(first_slot + ht::kHashOff));
      (*evictions)++;
    }
  }
  if (target < 0) {
    FreeBlocksLocked(addr, blocks);
    return SetResponse(false, *evictions);
  }
  const uint64_t slot_addr = pool_->table_addr() + (bucket * slots + target) * ht::kSlotBytes;
  arena.WriteU64(slot_addr + ht::kHashOff, hash);
  arena.WriteU64(slot_addr + ht::kAtomicOff,
                 ht::PackAtomic(fp, static_cast<uint8_t>(blocks), addr));

  index_[hash] = Entry{slot_addr, addr, blocks};
  if (config_.policy == CmPolicy::kLru) {
    lru_.Touch(hash);
  } else {
    lfu_.Touch(hash);
  }
  return SetResponse(true, *evictions);
}

std::string CliqueMapServer::HandleSync(std::string_view request) {
  // Request: repeated {hash u64, count u64}. Validate the size before
  // decoding: a ragged payload means the client and server disagree about
  // the record layout, so reject it instead of merging a truncated prefix.
  if (request.size() % 16 != 0) {
    return std::string(1, '\0');
  }
  MutexLock lock(&mu_);
  const size_t entries = request.size() / 16;
  for (size_t i = 0; i < entries; ++i) {
    uint64_t hash;
    uint64_t count;
    std::memcpy(&hash, request.data() + i * 16, 8);
    std::memcpy(&count, request.data() + i * 16 + 8, 8);
    TouchLocked(hash, count);
  }
  return std::string(1, '\1');
}

CliqueMapClient::CliqueMapClient(dm::MemoryPool* pool, CliqueMapServer* server,
                                 rdma::ClientContext* ctx)
    : pool_(pool), server_(server), ctx_(ctx), verbs_(&pool->node(), ctx), table_(pool, &verbs_) {}

void CliqueMapClient::ExecuteBatch(std::span<const sim::CacheOp> ops,
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

bool CliqueMapClient::DoGet(std::string_view key, std::string* value) {
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
      // Lazy expiry: ask the server (the only writer of its structures) to
      // drop the dead object, then report a miss.
      verbs_.Rpc(kRpcCmDelete, key, &rpc_response_, kCmSetServiceUs);
      counters_.expired++;
      counters_.misses++;
      return false;
    }
    if (value != nullptr) {
      value->assign(obj.value);
    }
    RecordAccess(hash);
    counters_.hits++;
    return true;
  }
  counters_.misses++;
  return false;
}

bool CliqueMapClient::DoSet(std::string_view key, std::string_view value, uint64_t ttl_ticks) {
  counters_.sets++;
  SetRequestHeader header{static_cast<uint32_t>(value.size()), static_cast<uint16_t>(key.size()),
                          0, ttl_ticks == 0 ? 0 : pool_->clock().Tick() + ttl_ticks};
  rpc_request_.resize(sizeof(header) + key.size() + value.size());
  std::memcpy(rpc_request_.data(), &header, sizeof(header));
  std::memcpy(rpc_request_.data() + sizeof(header), key.data(), key.size());
  std::memcpy(rpc_request_.data() + sizeof(header) + key.size(), value.data(), value.size());
  verbs_.Rpc(kRpcCmSet, rpc_request_, &rpc_response_, kCmSetServiceUs);
  if (rpc_response_.size() >= 9) {
    uint64_t evictions = 0;
    std::memcpy(&evictions, rpc_response_.data() + 1, 8);
    counters_.evictions += evictions;
  }
  return !rpc_response_.empty() && rpc_response_[0] == '\1';
}

bool CliqueMapClient::DoDelete(std::string_view key) {
  verbs_.Rpc(kRpcCmDelete, key, &rpc_response_, kCmSetServiceUs);
  const bool deleted = !rpc_response_.empty() && rpc_response_[0] == '\1';
  if (deleted) {
    counters_.deletes++;
  }
  return deleted;
}

bool CliqueMapClient::DoExpire(std::string_view key, uint64_t ttl_ticks) {
  const uint64_t expiry = ttl_ticks == 0 ? 0 : pool_->clock().Tick() + ttl_ticks;
  rpc_request_.resize(8 + key.size());
  std::memcpy(rpc_request_.data(), &expiry, 8);
  std::memcpy(rpc_request_.data() + 8, key.data(), key.size());
  verbs_.Rpc(kRpcCmExpire, rpc_request_, &rpc_response_, kCmSetServiceUs);
  return !rpc_response_.empty() && rpc_response_[0] == '\1';
}

bool CliqueMapClient::ResizeCapacity(uint64_t capacity_objects) {
  std::string request(8, '\0');
  std::memcpy(request.data(), &capacity_objects, 8);
  const std::string response =
      verbs_.Rpc(kRpcCmResize, request, kCmSetServiceUs);
  if (response.size() >= 9) {
    uint64_t evictions = 0;
    std::memcpy(&evictions, response.data() + 1, 8);
    counters_.evictions += evictions;
    // The shrink's precise evictions run on the MN CPU; their count is only
    // known from the response, so the per-entry structure cost (same rate as
    // the access-info merge) is charged to the caller's clock after the fact
    // — otherwise a 100k-object evict-down would look as cheap as one Set.
    if (evictions > 0) {
      ctx_->clock().AdvanceUs(kSyncServiceUsPerEntry * static_cast<double>(evictions));
    }
  }
  return !response.empty() && response[0] == '\1';
}

void CliqueMapClient::RecordAccess(uint64_t hash) {
  access_buffer_[hash]++;
  buffered_++;
  if (buffered_ >= server_->config().sync_every) {
    SyncAccessInfo();
  }
}

void CliqueMapClient::SyncAccessInfo() {
  if (access_buffer_.empty()) {
    return;
  }
  rpc_request_.resize(access_buffer_.size() * 16);
  size_t i = 0;
  for (const auto& [hash, count] : access_buffer_) {
    std::memcpy(rpc_request_.data() + i * 16, &hash, 8);
    std::memcpy(rpc_request_.data() + i * 16 + 8, &count, 8);
    ++i;
  }
  const double service_us = kSyncServiceUsPerEntry * static_cast<double>(access_buffer_.size());
  verbs_.Rpc(kRpcCmSync, rpc_request_, &rpc_response_, service_us);
  access_buffer_.clear();
  buffered_ = 0;
}

void CliqueMapClient::Finish() { SyncAccessInfo(); }

void CliqueMapClient::ResetForMeasurement() {
  counters_ = sim::ClientCounters{};
  ctx_->op_hist().Reset();
}

}  // namespace ditto::baselines
