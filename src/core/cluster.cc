#include "core/cluster.h"

#include <algorithm>

#include "common/hash.h"
#include "core/object.h"
#include "hashtable/hash_table.h"

namespace ditto::core {

namespace {
// Slots fetched per migration READ: 64 slots = 2560 B, comfortably one
// segment-sized READ, so a full table sweep costs num_slots/64 messages plus
// one object READ per misplaced object.
constexpr int kMigrateChunkSlots = 64;
// Client-side retry policy: an op is retried up to kMaxRetries extra times,
// backing off kBackoffBaseUs * 2^attempt of virtual time between attempts.
constexpr int kMaxRetries = 3;
constexpr double kBackoffBaseUs = 50.0;
}  // namespace

ClusterPool::ClusterPool(const ClusterConfig& config)
    : config_(config),
      ring_(static_cast<uint32_t>(config.nodes), config.partition_seed) {
  generations_owned_ =
      std::make_unique<std::atomic<uint64_t>[]>(static_cast<size_t>(config_.nodes));
  generations_ = generations_owned_.get();
  pools_.reserve(static_cast<size_t>(config_.nodes));
  servers_.reserve(static_cast<size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    pools_.push_back(std::make_unique<dm::MemoryPool>(config_.pool));
    servers_.push_back(std::make_unique<DittoServer>(pools_.back().get(), config_.ditto));
    rdma::FaultState& fault = pools_.back()->node().fault();
    fault.Configure(config_.fault);
    // Always armed: scheduled Crash() must take effect even under an empty
    // plan. The armed fast path costs one relaxed load per verb and draws no
    // randomness while every probability is zero, so verb accounting stays
    // bit-identical to an unarmed pool.
    fault.Arm();
  }
}

void ClusterPool::ConfigureNodeFault(int i, const rdma::FaultPlan& plan) {
  pools_[static_cast<size_t>(i)]->node().fault().Configure(plan);
}

void ClusterPool::Crash(int i) {
  pools_[static_cast<size_t>(i)]->node().fault().Crash();
  ring_.SwapRemove(static_cast<uint32_t>(i));
}

void ClusterPool::Restart(int i) {
  dm::MemoryPool& pool = *pools_[static_cast<size_t>(i)];
  pool.WipeForRestart();
  pool.node().fault().Restart();
  // Publish the wipe BEFORE the node rejoins the ring: a client routed to the
  // fresh node must recreate its per-node state (allocator segment caches
  // from before the wipe would double-allocate the new heap).
  generations_[static_cast<size_t>(i)].fetch_add(1, std::memory_order_release);
  ring_.SwapAdd(static_cast<uint32_t>(i));
}

void ClusterPool::Leave(int i) { ring_.SwapRemove(static_cast<uint32_t>(i)); }

void ClusterPool::Join(int i) { ring_.SwapAdd(static_cast<uint32_t>(i)); }

bool ClusterPool::ClaimStep(uint64_t step_index) {
  MutexLock lock(&step_mu_);
  if (step_index < steps_claimed_) {
    return false;
  }
  steps_claimed_ = step_index + 1;
  return true;
}

uint64_t ClusterPool::cached_objects() const {
  uint64_t total = 0;
  for (const auto& pool : pools_) {
    total += pool->cached_objects();
  }
  return total;
}

// --- ClusterClient ----------------------------------------------------------

ClusterClient::ClusterClient(ClusterPool* pool, rdma::ClientContext* ctx,
                             const DittoConfig& config)
    : pool_(pool), ctx_(ctx), ditto_config_(config) {
  const int n = pool->num_nodes();
  clients_.resize(static_cast<size_t>(n));
  local_gen_.assign(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    RefreshNode(i);
  }
  mig_buf_.resize(static_cast<size_t>(dm::kMaxRunBlocks) * dm::kBlockBytes);
}

DittoClient* ClusterClient::ClientFor(int node) {
  const size_t i = static_cast<size_t>(node);
  if (local_gen_[i] != pool_->generation(node)) {
    RefreshNode(node);
  }
  return clients_[i].get();
}

void ClusterClient::RefreshNode(int node) {
  const size_t i = static_cast<size_t>(node);
  if (clients_[i] != nullptr) {
    // Keep the retired client's counters: the wipe destroys the client, not
    // the history of what it did.
    retired_ += clients_[i]->stats();
  }
  clients_[i] = std::make_unique<DittoClient>(&pool_->node(node), ctx_, ditto_config_);
  if (batch_ops_ > 0) {
    clients_[i]->SetBatchOps(batch_ops_);
  }
  local_gen_[i] = pool_->generation(node);
}

void ClusterClient::RefreshAll() {
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    ClientFor(i);
  }
}

void ClusterClient::Backoff(int attempt) {
  const double us = kBackoffBaseUs * static_cast<double>(uint64_t{1} << attempt);
  ctx_->clock().AdvanceNs(static_cast<uint64_t>(us * 1000.0));
}

template <typename Op>
bool ClusterClient::RetryLoop(uint64_t hash, Op&& attempt) {
  last_unavailable_ = false;
  for (int a = 0; a <= kMaxRetries; ++a) {
    if (a > 0) {
      Backoff(a - 1);
    }
    const int node = pool_->ring().NodeFor(hash);
    if (node < 0) {
      break;  // no live node: retrying cannot help
    }
    DittoClient* client = ClientFor(node);
    client->verbs().ClearStatus();
    const bool outcome = attempt(client);
    if (client->verbs().ok()) {
      return outcome;
    }
  }
  last_unavailable_ = true;
  return false;
}

bool ClusterClient::Get(std::string_view key, std::string* value) {
  const bool hit =
      RetryLoop(HashKey(key), [&](DittoClient* c) { return c->Get(key, value); });
  ops_.gets++;
  if (hit) {
    ops_.hits++;
  } else {
    ops_.misses++;
  }
  return hit;
}

bool ClusterClient::Set(std::string_view key, std::string_view value, uint64_t ttl_ticks) {
  // Safe to republish on retry: Set is an upsert, and a first attempt that
  // failed mid-publish left either nothing or a CAS-visible object the retry
  // simply updates.
  const bool stored = RetryLoop(
      HashKey(key), [&](DittoClient* c) { return c->Set(key, value, ttl_ticks); });
  ops_.sets++;
  return stored;
}

bool ClusterClient::Delete(std::string_view key) {
  const bool deleted =
      RetryLoop(HashKey(key), [&](DittoClient* c) { return c->Delete(key); });
  if (deleted) {
    ops_.deletes++;
  }
  return deleted;
}

bool ClusterClient::Expire(std::string_view key, uint64_t ttl_ticks) {
  return RetryLoop(HashKey(key),
                   [&](DittoClient* c) { return c->Expire(key, ttl_ticks); });
}

bool ClusterClient::ResizeCapacity(uint64_t total_capacity_objects) {
  last_total_capacity_ = total_capacity_objects;
  const RingEpoch* ring = pool_->ring().current();
  const std::vector<uint32_t>& live = ring->live();
  if (live.empty()) {
    return false;
  }
  bool ok = true;
  for (size_t p = 0; p < live.size(); ++p) {
    DittoClient* client = ClientFor(static_cast<int>(live[p]));
    client->verbs().ClearStatus();
    const bool resized =
        client->ResizeCapacity(dm::CapacityShare(total_capacity_objects, p, live.size()));
    ok = (resized && client->verbs().ok()) && ok;
  }
  return ok;
}

void ClusterClient::ResplitCapacity() {
  if (last_total_capacity_ != 0) {
    ResizeCapacity(last_total_capacity_);
  }
}

template <typename Step>
void ClusterClient::ApplyStep(Step&& step) {
  const uint64_t idx = local_steps_seen_++;
  if (pool_->ClaimStep(idx)) {
    step();
    // Survivors absorb the share of departed nodes (and newcomers get
    // theirs): re-apply the last aggregate capacity over the new live set.
    ResplitCapacity();
  }
  RefreshAll();
}

void ClusterClient::ApplyCrash(uint32_t node) {
  ApplyStep([&] { pool_->Crash(static_cast<int>(node)); });
}

void ClusterClient::ApplyRestart(uint32_t node) {
  ApplyStep([&] {
    pool_->Restart(static_cast<int>(node));
    // Recreate our client for the wiped node before migration writes to it.
    RefreshNode(static_cast<int>(node));
    MigrateInto(node);
  });
}

void ClusterClient::ApplyLeave(uint32_t node) {
  ApplyStep([&] {
    // Remove from the ring FIRST so concurrent Sets route to the new owners,
    // then drain: the departing node stays healthy, just unrouted.
    pool_->Leave(static_cast<int>(node));
    MigrateMisplaced(static_cast<int>(node));
  });
}

void ClusterClient::ApplyJoin(uint32_t node) {
  ApplyStep([&] {
    pool_->Join(static_cast<int>(node));
    MigrateInto(node);
  });
}

void ClusterClient::MigrateInto(uint32_t node) {
  const RingEpoch* ring = pool_->ring().current();
  for (const uint32_t src : ring->live()) {
    if (src == node) {
      continue;
    }
    MigrateMisplaced(static_cast<int>(src));
  }
}

uint64_t ClusterClient::MigrateMisplaced(int src) {
  DittoClient* src_client = ClientFor(src);
  rdma::Verbs& verbs = src_client->verbs();
  ht::HashTable table(&pool_->node(src), &verbs);
  const RingEpoch* ring = pool_->ring().current();
  const uint64_t now = pool_->node(src).clock().Now();
  const uint64_t total_slots = table.num_slots();
  uint64_t moved = 0;
  // Chunk-wise table sweep. The slot metadata carries each object's full key
  // hash, so only objects whose ring owner moved pay an object READ; objects
  // are re-homed with a normal Set on the new owner (fresh policy metadata —
  // access history does not survive migration) followed by a Delete on the
  // source. A torn object READ (the object was concurrently deleted, moved,
  // or the node faulted) fails the checksum and is skipped; ReadSlots-level
  // faults skip the chunk. Racing writers are safe: Set/Delete go through the
  // CAS-published paths, and a re-scan of an already-moved slot finds it
  // empty.
  // ditto-lint: hot-path-begin(migrate-copy)
  for (uint64_t start = 0; start < total_slots; start += kMigrateChunkSlots) {
    const int count = static_cast<int>(
        std::min<uint64_t>(kMigrateChunkSlots, total_slots - start));
    verbs.ClearStatus();
    if (!table.ReadSlots(start, count, &mig_slots_) || !verbs.ok()) {
      continue;
    }
    for (const ht::SlotView& slot : mig_slots_) {
      if (!slot.IsObject()) {
        continue;
      }
      const int owner = ring->NodeFor(slot.hash);
      if (owner < 0 || owner == src) {
        continue;
      }
      const int blocks = slot.size_blocks();
      if (blocks <= 0 || blocks > dm::kMaxRunBlocks) {
        continue;
      }
      const size_t len = static_cast<size_t>(blocks) * dm::kBlockBytes;
      verbs.ClearStatus();
      verbs.Read(slot.pointer(), mig_buf_.data(), len);
      if (!verbs.ok()) {
        continue;
      }
      DecodedObject obj;
      if (!DecodeObject(mig_buf_.data(), len, &obj)) {
        continue;  // torn or stale: checksum rejected it
      }
      if (obj.ExpiredAt(now)) {
        continue;
      }
      uint64_t ttl = 0;
      if (obj.expiry_tick != 0) {
        if (obj.expiry_tick <= now) {
          continue;
        }
        ttl = obj.expiry_tick - now;
      }
      DittoClient* dst = ClientFor(owner);
      dst->verbs().ClearStatus();
      if (!dst->Set(obj.key, obj.value, ttl) || !dst->verbs().ok()) {
        continue;  // destination full or faulted: leave the source copy
      }
      src_client->Delete(obj.key);
      ++moved;
    }
  }
  // ditto-lint: hot-path-end(migrate-copy)
  pool_->AddMigrated(moved);
  return moved;
}

void ClusterClient::FlushBuffers() {
  for (const auto& client : clients_) {
    client->FlushBuffers();
  }
}

void ClusterClient::SetBatchOps(size_t ops) {
  batch_ops_ = ops;
  for (const auto& client : clients_) {
    client->SetBatchOps(ops);
  }
}

void ClusterClient::BeginPipelinedOp(uint64_t start_ns) {
  RefreshAll();
  for (const auto& client : clients_) {
    client->BeginPipelinedOp(start_ns);
  }
}

uint64_t ClusterClient::EndPipelinedOp() {
  uint64_t complete_ns = 0;
  for (const auto& client : clients_) {
    complete_ns = std::max(complete_ns, client->EndPipelinedOp());
  }
  return complete_ns;
}

DittoStats ClusterClient::stats() const {
  DittoStats total = retired_;
  for (const auto& client : clients_) {
    total += client->stats();
  }
  // Logical once-per-op counters: retried attempts and migration traffic do
  // not inflate the op mix the client actually served.
  total.gets = ops_.gets;
  total.hits = ops_.hits;
  total.misses = ops_.misses;
  total.sets = ops_.sets;
  total.deletes = ops_.deletes;
  return total;
}

void ClusterClient::ResetStats() {
  ops_ = DittoStats{};
  retired_ = DittoStats{};
  for (const auto& client : clients_) {
    client->ResetStats();
  }
}

}  // namespace ditto::core
