// CliqueMap baseline (Singhvi et al., SIGCOMM'21), reimplemented from its
// paper as the authors of Ditto did: Gets are client-side RMA (index READ +
// object READ); Sets are RPCs executed by the memory-node CPU, which also
// maintains a precise LRU list or LFU structure and evicts when the cache is
// at capacity. Clients buffer access information locally and periodically
// ship it to the server, whose CPU merges it into the caching structure
// (this merge is what saturates the weak MN CPU on read-heavy workloads).
// Replication and fault tolerance are omitted, as in the paper's comparison.
#ifndef DITTO_BASELINES_CLIQUEMAP_H_
#define DITTO_BASELINES_CLIQUEMAP_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "dm/pool.h"
#include "hashtable/hash_table.h"
#include "policies/precise.h"
#include "rdma/verbs.h"
#include "sim/client_iface.h"

namespace ditto::baselines {

enum class CmPolicy { kLru, kLfu };

struct CliqueMapConfig {
  CmPolicy policy = CmPolicy::kLru;
  uint64_t capacity_objects = 0;  // 0 = pool capacity
  int sync_every = 100;           // accesses buffered before the access-info RPC
};

// MN CPU cost of one Set (alloc+index+structure); Delete, Expire and Resize
// RPCs are charged the same.
inline constexpr double kCmSetServiceUs = 2.0;

// RPC ids (distinct from the dm:: ones).
inline constexpr uint32_t kRpcCmSet = 10;
inline constexpr uint32_t kRpcCmSync = 11;
inline constexpr uint32_t kRpcCmDelete = 12;
inline constexpr uint32_t kRpcCmExpire = 13;
// Elastic scaling: the MN CPU rewrites its capacity and — being the only
// writer of the caching structure — evicts down precisely on shrink.
inline constexpr uint32_t kRpcCmResize = 14;

// Host-side server. Owns the index layout inside the pool's arena (so client
// Gets can RMA-read it) and the precise caching structure. Construct once.
class CliqueMapServer {
 public:
  CliqueMapServer(dm::MemoryPool* pool, const CliqueMapConfig& config);

  uint64_t size() const;
  uint64_t capacity() const;
  const CliqueMapConfig& config() const { return config_; }

 private:
  friend class CliqueMapClient;

  std::string HandleSet(std::string_view request);
  std::string HandleSync(std::string_view request);
  std::string HandleDelete(std::string_view request);
  std::string HandleExpire(std::string_view request);
  std::string HandleResize(std::string_view request);

  // Precondition: mu_ held (machine-checked via REQUIRES under clang).
  void TouchLocked(uint64_t hash, uint64_t count) REQUIRES(mu_);
  void EvictOneLocked() REQUIRES(mu_);
  void EvictSpecificLocked(uint64_t hash) REQUIRES(mu_);
  uint64_t AllocBlocksLocked(int blocks) REQUIRES(mu_);
  void FreeBlocksLocked(uint64_t addr, int blocks) REQUIRES(mu_);
  std::string FinishInsertLocked(uint64_t addr, std::string_view key, std::string_view value,
                                 uint64_t hash, uint8_t fp, int blocks, uint64_t expiry_tick,
                                 uint64_t* evictions) REQUIRES(mu_);

  dm::MemoryPool* pool_;
  CliqueMapConfig config_;

  mutable Mutex mu_;
  uint64_t capacity_ GUARDED_BY(mu_);
  // hash -> (bucket slot index in table, object addr, blocks)
  struct Entry {
    uint64_t slot_addr;
    uint64_t obj_addr;
    int blocks;
  };
  std::unordered_map<uint64_t, Entry> index_ GUARDED_BY(mu_);
  policy::PreciseLru lru_ GUARDED_BY(mu_);
  policy::PreciseLfu lfu_ GUARDED_BY(mu_);
  // Host-managed heap: bump + per-run-length freelists.
  uint64_t bump_ GUARDED_BY(mu_);
  std::vector<std::vector<uint64_t>> free_runs_ GUARDED_BY(mu_);
};

class CliqueMapClient : public sim::CacheClient {
 public:
  CliqueMapClient(dm::MemoryPool* pool, CliqueMapServer* server, rdma::ClientContext* ctx);

  // Typed batch dispatch. Gets stay client-side RMA; Set/Delete/Expire are
  // RPCs to the memory-node CPU. kMultiGet runs replay as sequential RMA
  // lookups (the access-info sync is already client-buffered).
  void ExecuteBatch(std::span<const sim::CacheOp> ops, sim::CacheResult* results) override;

  rdma::ClientContext& ctx() override { return *ctx_; }
  sim::ClientCounters counters() const override { return counters_; }
  void Finish() override;
  void ResetForMeasurement() override;

  // Elastic scaling: one RPC; the server CPU evicts down precisely on shrink
  // (evictions are reported back and surface in counters()).
  bool ResizeCapacity(uint64_t capacity_objects) override;

 private:
  bool DoGet(std::string_view key, std::string* value);
  // Returns false if the server dropped the store.
  bool DoSet(std::string_view key, std::string_view value, uint64_t ttl_ticks);
  bool DoDelete(std::string_view key);
  bool DoExpire(std::string_view key, uint64_t ttl_ticks);

  void RecordAccess(uint64_t hash);
  void SyncAccessInfo();

  dm::MemoryPool* pool_;
  CliqueMapServer* server_;
  rdma::ClientContext* ctx_;
  rdma::Verbs verbs_;
  ht::HashTable table_;
  sim::ClientCounters counters_;
  std::unordered_map<uint64_t, uint64_t> access_buffer_;  // hash -> count
  int buffered_ = 0;
  std::vector<uint8_t> object_buf_;
  std::vector<ht::SlotView> bucket_buf_;
  // RPC scratch reused across ops (Set/Delete/Expire/Sync sit on the hot
  // path; steady-state RPCs reuse these buffers' capacity).
  std::string rpc_request_;
  std::string rpc_response_;
};

}  // namespace ditto::baselines

#endif  // DITTO_BASELINES_CLIQUEMAP_H_
