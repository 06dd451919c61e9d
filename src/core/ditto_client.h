// DittoClient: the public API of the cache. One instance per client thread.
//
// Get/Set execute with one-sided verbs against the memory pool, maintain the
// access metadata of the sample-friendly hash table, run the sample-based
// eviction with multiple expert algorithms, keep the lightweight eviction
// history, collect regrets, and adapt the expert weights lazily.
//
// Typical use:
//   dm::MemoryPool pool(pool_config);
//   core::DittoServer server(&pool, ditto_config);   // once, host side
//   rdma::ClientContext ctx(/*id=*/0);
//   core::DittoClient client(&pool, &server, &ctx, ditto_config);
//   client.Set("key", "value");
//   std::string value;
//   bool hit = client.Get("key", &value);
#ifndef DITTO_CORE_DITTO_CLIENT_H_
#define DITTO_CORE_DITTO_CLIENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/adaptive.h"
#include "core/fc_cache.h"
#include "core/object.h"
#include "core/stats.h"
#include "dm/allocator.h"
#include "dm/pool.h"
#include "hashtable/hash_table.h"
#include "policies/policy.h"
#include "rdma/verbs.h"

namespace ditto::core {

struct DittoConfig {
  // Expert caching algorithms. One entry disables adaptivity (Ditto-LRU /
  // Ditto-LFU in the paper are {"lru"} / {"lfu"}).
  std::vector<std::string> experts = {"lru", "lfu"};

  int num_samples = 5;            // sampled objects per eviction (Redis default)
  int fc_threshold = 10;          // FC-cache flush threshold t
  size_t fc_capacity_bytes = 10 << 20;
  // Intended staleness bound on buffered frequency deltas, counted in FC-cache
  // inserts. Scales with run length: 64 suits the scaled-down experiment
  // sizes in this repo; the paper's 10M+-request runs tolerate (and amortize)
  // far larger lags. It does not hold as a bound: a hot key's stale FIFO
  // record stalls the age flush (FcCache, ROADMAP.md "Known deviations"), so
  // entries can stay buffered far past 64 inserts.
  uint64_t fc_max_age_accesses = 64;
  double learning_rate = 0.1;     // lambda of regret minimization
  int penalty_batch = 100;        // local weight updates per lazy global flush

  // Ablation switches (paper Figure 24). All true for full Ditto.
  bool enable_sfht = true;        // metadata co-located in the hash index
  bool enable_history = true;     // lightweight (embedded) eviction history
  bool enable_fc_cache = true;    // frequency-counter cache
  bool enable_lazy_weights = true;

  // Contended-deployment switch: after publishing an insert, re-read the
  // bucket and reclaim racing duplicate copies of the key (RACE-hashing
  // style; +1 READ per insert). Required whenever multiple clients share one
  // pool with overlapping keys (RunTraceContended deployments). Off by
  // default so the single-writer-per-key engines keep the paper's insert
  // verb budget — duplicate races are structurally impossible there.
  bool validate_inserts = false;

  bool adaptive() const { return experts.size() > 1; }
};

// Host-side server state shared by all clients of one pool: installs the
// adaptive-weight controller. Construct exactly once per pool.
class DittoServer {
 public:
  DittoServer(dm::MemoryPool* pool, const DittoConfig& config)
      : controller_(pool, static_cast<int>(config.experts.size())) {}

  AdaptiveController& controller() { return controller_; }

 private:
  AdaptiveController controller_;
};

class DittoClient {
 public:
  // Throws std::invalid_argument if config.experts is empty, lists more
  // than 64 experts (history entries record their votes in a 64-bit
  // bitmap), names an unknown caching algorithm, or needs more than
  // policy::Metadata::kMaxExtensionWords extension words in total.
  DittoClient(dm::MemoryPool* pool, rdma::ClientContext* ctx, const DittoConfig& config);

  // Looks up key. On hit fills *value (may be nullptr to skip the copy) and
  // updates access metadata. On miss collects a regret if the key's history
  // entry is still live. An object past its TTL is reclaimed here (lazy
  // expiry) and reported as a miss.
  bool Get(std::string_view key, std::string* value);

  // Pipelined-op timeline control (see rdma::Verbs::BeginOp): ops run
  // between Begin/End charge their verbs to a detached cursor starting at
  // start_ns; EndPipelinedOp returns the op's completion timestamp. The
  // caller retires ops in issue order with VirtualClock::AdvanceToNs.
  void BeginPipelinedOp(uint64_t start_ns) { verbs_.BeginOp(start_ns); }
  uint64_t EndPipelinedOp() { return verbs_.EndOp(); }

  // Inserts or updates key, evicting objects if the cache is at capacity.
  // ttl_ticks > 0 arms expiry that many logical-clock ticks from now.
  // Returns false if the store had to be dropped (memory exhausted and
  // nothing evictable).
  bool Set(std::string_view key, std::string_view value, uint64_t ttl_ticks = 0);

  // Removes key. Returns true if it was cached.
  bool Delete(std::string_view key);

  // (Re)arms the TTL of a cached key (ttl_ticks == 0 clears it). Returns
  // false if the key is not cached.
  bool Expire(std::string_view key, uint64_t ttl_ticks);

  // Elastic scaling: asks the controller to rewrite the pool's capacity (the
  // kRpcResize RPC), then — on shrink — evicts down to the new capacity via
  // the same sampled multi-expert eviction path normal admissions use, so the
  // surviving working set is the one the experts would have kept. Expansion
  // takes effect immediately: the next admissions simply stop evicting.
  // Returns false if the controller rejected the resize or eviction stalled.
  bool ResizeCapacity(uint64_t capacity_objects);

  // Flushes client-side buffers (FC cache deltas, pending penalties, the
  // doorbell-batched verb chain).
  void FlushBuffers();

  // Doorbell-batches async metadata verbs every `ops` posts (0 disables).
  void SetBatchOps(size_t ops) { verbs_.SetBatchOps(ops); }

  const DittoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DittoStats{}; }
  const std::vector<double>& expert_weights() const { return adaptive_->local_weights(); }
  rdma::ClientContext& ctx() { return *ctx_; }
  rdma::Verbs& verbs() { return verbs_; }

 private:
  struct SuperblockView {
    uint64_t hist_counter;
    uint64_t object_count;
    uint64_t capacity;
    uint64_t hist_size;
  };

  // Reads the superblock's first four words (hist_counter, object_count,
  // capacity, hist_size) with one READ.
  SuperblockView ReadSuperblock();
  uint64_t NowTick();

  // CAS on a slot's atomic word, counting failures (losses to concurrent
  // clients) in stats_.cas_failures.
  bool CasSlot(uint64_t slot_addr, uint64_t expected, uint64_t desired);

  // RACE-hashing-style duplicate resolution: after publishing a new copy of
  // `hash`, re-reads the bucket and reclaims every matching object slot other
  // than the lowest-indexed one. Concurrent inserters of one key run the same
  // deterministic rule, so the bucket converges to a single live copy.
  void ResolveDuplicates(uint64_t bucket, uint64_t hash, uint8_t fp);

  // Builds policy metadata for a slot view (object sizes come from the slot's
  // block count; extension words are passed in when known).
  policy::Metadata MetadataFor(const ht::SlotView& slot, const uint64_t* ext) const;

  // Records an access on a located object (stateless WRITE + FC-cached FAA +
  // extension updates). obj may be nullptr when extensions are not needed.
  void TouchObject(uint64_t slot_addr, const ht::SlotView& slot, const DecodedObject* obj,
                   uint64_t obj_addr);

  // Evicts one cached object chosen by sample-based multi-expert eviction.
  // Returns false if no victim could be evicted (empty cache).
  bool EvictOne();

  // Allocates a run of `blocks` blocks, evicting up to 128 objects while the
  // heap is exhausted. Returns 0 if the run could not be allocated.
  uint64_t AllocEvicting(int blocks);

  // Finds a slot in the bucket to claim for a new object and CASes it.
  // Returns true on success.
  bool ClaimSlotAndPublish(uint64_t bucket, uint64_t hash, uint8_t fp, uint64_t obj_addr,
                           int blocks, uint64_t now);

  // Extra verb traffic emulating a non-embedded (external FIFO) history, used
  // when enable_history is false but adaptivity is on (ablation LWH-off).
  void ChargeExternalHistoryInsert();
  void ChargeExternalHistoryLookup();

  dm::MemoryPool* pool_;
  rdma::ClientContext* ctx_;
  DittoConfig config_;
  rdma::Verbs verbs_;
  ht::HashTable table_;
  dm::RemoteAllocator alloc_;
  std::vector<std::unique_ptr<policy::CachePolicy>> experts_;
  std::unique_ptr<AdaptiveState> adaptive_;
  std::unique_ptr<FcCache> fc_;
  int total_ext_words_ = 0;

  DittoStats stats_;
  // Per-op scratch, reused across ops so the hot path allocates nothing once
  // warm (the client is single-threaded; see RunTraceContended for the
  // one-client-per-thread contract).
  std::vector<ht::SlotView> bucket_buf_;
  std::vector<ht::SlotView> sample_buf_;
  std::vector<ht::SlotView> dedup_buf_;
  std::vector<uint8_t> object_buf_;
  std::vector<uint8_t> encode_buf_;
  struct EvictCandidate {
    ht::SlotView slot;
    uint64_t slot_addr;
    policy::Metadata meta;
  };
  std::vector<EvictCandidate> cand_buf_;
  std::vector<int> nominee_buf_;
};

}  // namespace ditto::core

#endif  // DITTO_CORE_DITTO_CLIENT_H_
