// Multi-memory-node deployments (paper §5.1: "Ditto is compatible with
// memory pools with multiple MNs as long as the memory pool offers the
// required interfaces"), fault-tolerant and with dynamic membership.
//
// ClusterPool owns N memory nodes and their Ditto servers, routes keys
// through an epoch-swapped HashRing, arms every node's FaultState so verbs
// can fail, and provides the lifecycle verbs — Crash / Restart / Leave /
// Join — that the simulated schedule applies.
//
// ClusterClient fans one client thread out across per-node DittoClients that
// share one ClientContext (one virtual clock per client thread, one NIC/CPU
// model per memory node), so adding memory nodes scales the pool's aggregate
// NIC message rate — the resource that bounds Ditto's throughput on a single
// MN. Every op, each key of a multi-get included, is routed on its own; a
// multi-get is Gets inside one doorbell chain (sim::DittoAdapterBase), and
// SetBatchOps reaches every per-node client, so each node a run touches rings
// one doorbell. On top of key routing it adds:
//   * per-op retry with exponential backoff charged to virtual time: each
//     attempt clears the QP's sticky fault status, re-routes through the
//     current ring epoch, and backs off before re-issuing; Set republish is
//     idempotent (upsert), so retries are safe on every op kind;
//   * node-generation tracking: a restarted (wiped) node bumps its generation
//     and every client lazily recreates its per-node DittoClient before the
//     next verb — stale allocator segment caches from before the wipe would
//     otherwise double-allocate heap blocks;
//   * background key migration for join/leave: the client that claims a
//     lifecycle step scans source tables chunk-wise and re-homes objects whose
//     ring owner changed, racing safely against concurrent Gets/Sets because
//     torn object reads are rejected by the object checksum and Set/Delete go
//     through the normal CAS-published paths.
//
// With an empty FaultPlan and an unchanged ring, the fault layer costs
// nothing: verb counts, NIC messages, hit rates, and virtual time are pinned
// to recorded fault-free constants by tests/cluster_test.cc.
#ifndef DITTO_CORE_CLUSTER_H_
#define DITTO_CORE_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/ditto_client.h"
#include "core/ring.h"
#include "dm/pool.h"
#include "hashtable/layout.h"
#include "rdma/fault.h"

namespace ditto::core {

struct ClusterConfig {
  int nodes = 4;
  // Seed of the ring's primary key partition (SeededPartition).
  uint64_t partition_seed = 1;
  dm::PoolConfig pool;  // per-node configuration
  DittoConfig ditto;
  // Probabilistic fault legs applied to EVERY node (crash windows are usually
  // set per node via ClusterPool::ConfigureNodeFault instead). An empty plan
  // still arms the fault layer so scheduled Crash() calls take effect, but
  // keeps verb accounting bit-identical to the fault-free build.
  rdma::FaultPlan fault;
};

// N memory nodes + their Ditto servers + the shared hash ring + lifecycle
// state. Thread-safe: lifecycle verbs and ClaimStep are serialized internally;
// routing and generation reads are lock-free.
class ClusterPool {
 public:
  // Throws std::invalid_argument unless 1 <= config.nodes <= kMaxRingNodes.
  explicit ClusterPool(const ClusterConfig& config);

  int num_nodes() const { return static_cast<int>(pools_.size()); }
  dm::MemoryPool& node(int i) { return *pools_[i]; }
  const ClusterConfig& config() const { return config_; }
  HashRing& ring() { return ring_; }
  const HashRing& ring() const { return ring_; }
  bool IsLive(int i) const { return ring_.current()->IsLive(static_cast<uint32_t>(i)); }

  // Overrides node i's fault plan (e.g. per-node crash windows). Call before
  // traffic: plans are read lock-free by the verb layer.
  void ConfigureNodeFault(int i, const rdma::FaultPlan& plan);

  // Wipe-generation of node i: bumped by Restart. Clients compare against
  // their cached value and recreate per-node state when it moved.
  uint64_t generation(int i) const {
    return generations_[static_cast<size_t>(i)].load(std::memory_order_acquire);
  }

  // --- Lifecycle verbs ------------------------------------------------------
  // Crash: the node stops answering verbs (data effectively lost) and leaves
  // the ring. Restart: the crashed node's memory is wiped cold, verbs answer
  // again, the wipe generation is bumped, and the node rejoins the ring.
  // Leave: planned departure — the node stays healthy but leaves the ring
  // (callers then drain its keys with ClusterClient migration). Join: the
  // node (re)enters the ring.
  void Crash(int i);
  void Restart(int i);
  void Leave(int i);
  void Join(int i);

  // Global-once lifecycle application: every client of the deployment calls
  // ClaimStep(step_index) when its replay crosses a scheduled step; exactly
  // one caller per index gets true and performs the step + migration.
  bool ClaimStep(uint64_t step_index);

  // Aggregate cached objects over all nodes (live and dead).
  uint64_t cached_objects() const;

  // Migration telemetry (accumulated by ClusterClient migrations).
  void AddMigrated(uint64_t objects) {
    migrated_objects_.fetch_add(objects, std::memory_order_relaxed);
  }
  uint64_t migrated_objects() const {
    return migrated_objects_.load(std::memory_order_relaxed);
  }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<dm::MemoryPool>> pools_;
  std::vector<std::unique_ptr<DittoServer>> servers_;
  HashRing ring_;
  std::unique_ptr<std::atomic<uint64_t>[]> generations_owned_;
  std::atomic<uint64_t>* generations_;  // [num_nodes]
  Mutex step_mu_;
  uint64_t steps_claimed_ GUARDED_BY(step_mu_) = 0;
  std::atomic<uint64_t> migrated_objects_{0};
};

// One client thread's view of the cluster. Single-threaded, like the
// DittoClients it wraps (one instance per ClientContext).
class ClusterClient {
 public:
  ClusterClient(ClusterPool* pool, rdma::ClientContext* ctx, const DittoConfig& config);

  bool Get(std::string_view key, std::string* value);
  bool Set(std::string_view key, std::string_view value, uint64_t ttl_ticks = 0);
  bool Delete(std::string_view key);
  bool Expire(std::string_view key, uint64_t ttl_ticks);
  // True iff the LAST single-key op exhausted its retries (or no node was
  // live); the op reported a miss/drop, and a front end should answer
  // -UNAVAILABLE rather than a silent miss.
  bool last_op_unavailable() const { return last_unavailable_; }

  // Splits an aggregate capacity over the LIVE nodes with dm::CapacityShare
  // and resizes each through its controller. Remembered and re-applied after
  // every lifecycle step, so survivors absorb a crashed node's share.
  bool ResizeCapacity(uint64_t total_capacity_objects);

  // --- Lifecycle application ----------------------------------------------
  // Applies the next scheduled lifecycle step. Every client of the deployment
  // calls this when its replay crosses the step (like ResizeCapacity); the
  // pool's step counter makes application global-once, and every caller
  // refreshes its per-node clients afterwards. The claiming client performs
  // key migration inline (Join/Restart pull misplaced keys from all live
  // nodes; Leave drains the departing node).
  void ApplyCrash(uint32_t node);
  void ApplyRestart(uint32_t node);
  void ApplyLeave(uint32_t node);
  void ApplyJoin(uint32_t node);

  void FlushBuffers();
  // Sets the doorbell-batching window of every per-node client (0 disables),
  // including clients recreated after a node wipe.
  void SetBatchOps(size_t ops);
  void BeginPipelinedOp(uint64_t start_ns);
  uint64_t EndPipelinedOp();

  // Aggregated statistics. gets/hits/misses/sets/deletes are counted once per
  // LOGICAL op (retries of a failed attempt do not inflate them); the
  // remaining counters aggregate the per-node clients, including clients
  // retired by a node wipe.
  DittoStats stats() const;
  void ResetStats();
  rdma::ClientContext& ctx() { return *ctx_; }

 private:
  // The per-node client, recreated first if the node was wiped since we last
  // touched it (stale allocator caches would double-allocate the new heap).
  DittoClient* ClientFor(int node);
  void RefreshNode(int node);
  void RefreshAll();
  // Charges the attempt's exponential backoff to virtual time.
  void Backoff(int attempt);
  // True once per logical op: runs `attempt` against the ring until a node's
  // QP reports ok. The op outcome of the successful attempt is returned;
  // exhausting retries (or an empty ring) sets last_unavailable_.
  template <typename Op>
  bool RetryLoop(uint64_t hash, Op&& attempt);
  // Claims the next schedule index; on success applies `step` and re-applies
  // the remembered capacity split. All callers refresh local clients.
  template <typename Step>
  void ApplyStep(Step&& step);
  // Moves every object on `src` whose current ring owner is a different node
  // to that owner. Returns the number of objects moved.
  uint64_t MigrateMisplaced(int src);
  // Migration sweep for a node that just (re)joined: pulls its keys from all
  // other live nodes.
  void MigrateInto(uint32_t node);
  void ResplitCapacity();

  ClusterPool* pool_;
  rdma::ClientContext* ctx_;
  DittoConfig ditto_config_;
  std::vector<std::unique_ptr<DittoClient>> clients_;
  std::vector<uint64_t> local_gen_;
  size_t batch_ops_ = 0;
  uint64_t local_steps_seen_ = 0;
  uint64_t last_total_capacity_ = 0;
  bool last_unavailable_ = false;

  // Logical (once-per-op) counters + counters inherited from clients retired
  // by node wipes.
  DittoStats ops_;
  DittoStats retired_;

  // Migration scratch, preallocated so the copy loop stays allocation-free.
  std::vector<uint8_t> mig_buf_;
  std::vector<ht::SlotView> mig_slots_;
};

}  // namespace ditto::core

#endif  // DITTO_CORE_CLUSTER_H_
