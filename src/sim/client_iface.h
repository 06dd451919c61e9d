// CacheClient: the uniform client interface the experiment runner drives.
// Ditto clients and every DM baseline implement it, so benches replay the
// identical trace against all systems.
//
// The primary entry point is ExecuteBatch over typed CacheOps (see
// cache_op.h): implementations see whole batches, which lets them run a
// kMultiGet run as Gets inside one NIC doorbell chain. The blocking
// Get/Set/Delete/Expire/MultiGet members are the convenience API over
// ExecuteBatch that tests, examples and bench::Preload use: each builds the
// batch, runs it, and unpacks the typed statuses.
#ifndef DITTO_SIM_CLIENT_IFACE_H_
#define DITTO_SIM_CLIENT_IFACE_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "rdma/node.h"
#include "sim/cache_op.h"

namespace ditto::sim {

// One step of a cluster-membership/fault schedule (mirrors ResizeStep): when
// the replay crosses `measure_begin + at_op_fraction * measured_ops`, the
// given lifecycle event is applied to `node`. Clients without a cluster
// lifecycle ignore the steps (ApplyLifecycle below defaults to a no-op).
enum class LifecycleKind : uint8_t {
  kCrash,    // node fails: data lost, ring routes around it
  kRestart,  // crashed node comes back cold (wiped) and rejoins the ring
  kLeave,    // planned departure: node leaves the ring, its keys migrate out
  kJoin,     // planned (re)join: node enters the ring, its keys migrate in
};

struct LifecycleStep {
  double at_op_fraction = 0.0;  // in [0, 1), fraction of the measured replay
  LifecycleKind kind = LifecycleKind::kCrash;
  uint32_t node = 0;
};

// The runner's per-client counters are the clients' own stats struct.
using ClientCounters = core::DittoStats;

// Shared single-op dispatch for implementations that map a CacheOp onto
// blocking per-kind primitives: runs the right callable, fills the typed
// status, and charges the op's virtual-time latency. Keeps the kind switch in
// one place so a new OpKind is added once, not once per implementation.
template <typename GetFn, typename SetFn, typename DeleteFn, typename ExpireFn>
void DispatchSingleOp(rdma::ClientContext& ctx, const CacheOp& op, CacheResult* result,
                      GetFn&& get, SetFn&& set, DeleteFn&& del, ExpireFn&& expire) {
  const uint64_t begin_ns = ctx.clock().busy_ns();
  switch (op.kind) {
    case OpKind::kGet:
    case OpKind::kMultiGet:  // a lone kMultiGet degenerates to a Get
      result->status = get(op.key, op.want_value ? &result->value : nullptr)
                           ? OpStatus::kHit
                           : OpStatus::kMiss;
      break;
    case OpKind::kSet:
      result->status = set(op.key, op.value, op.ttl_ticks) ? OpStatus::kStored
                                                           : OpStatus::kDropped;
      break;
    case OpKind::kDelete:
      result->status = del(op.key) ? OpStatus::kDeleted : OpStatus::kNotFound;
      break;
    case OpKind::kExpire:
      result->status = expire(op.key, op.ttl_ticks) ? OpStatus::kStored : OpStatus::kNotFound;
      break;
  }
  result->latency_us = static_cast<double>(ctx.clock().busy_ns() - begin_ns) / 1000.0;
}

class CacheClient {
 public:
  virtual ~CacheClient() = default;

  // Executes `ops` in order, writing ops.size() results to `results`.
  // Consecutive kMultiGet ops form one pipelined multi-key lookup: per-key
  // Gets whose async metadata verbs batching-capable clients chain behind a
  // single doorbell per memory node.
  virtual void ExecuteBatch(std::span<const CacheOp> ops, CacheResult* results) = 0;

  // --- Blocking convenience API over ExecuteBatch ---------------------------
  bool Get(std::string_view key, std::string* value) {
    const CacheOp op = CacheOp::Get(key, /*want_value=*/value != nullptr);
    CacheResult r;
    ExecuteBatch({&op, 1}, &r);
    if (value != nullptr && r.hit()) {
      *value = std::move(r.value);
    }
    return r.hit();
  }
  // Returns false if the store was dropped (memory exhausted, nothing
  // evictable).
  bool Set(std::string_view key, std::string_view value, uint64_t ttl_ticks = 0) {
    const CacheOp op = CacheOp::Set(key, value, ttl_ticks);
    CacheResult r;
    ExecuteBatch({&op, 1}, &r);
    return r.status == OpStatus::kStored;
  }
  bool Delete(std::string_view key) {
    const CacheOp op = CacheOp::Delete(key);
    CacheResult r;
    ExecuteBatch({&op, 1}, &r);
    return r.status == OpStatus::kDeleted;
  }
  bool Expire(std::string_view key, uint64_t ttl_ticks) {
    const CacheOp op = CacheOp::Expire(key, ttl_ticks);
    CacheResult r;
    ExecuteBatch({&op, 1}, &r);
    return r.status == OpStatus::kStored;
  }
  // Pipelined lookup of `keys`; results->at(i) corresponds to keys[i].
  // Returns the number of hits.
  size_t MultiGet(std::span<const std::string_view> keys, std::vector<CacheResult>* results) {
    std::vector<CacheOp> ops;
    ops.reserve(keys.size());
    for (const std::string_view key : keys) {
      ops.push_back(CacheOp::MultiGet(key));
    }
    results->assign(keys.size(), CacheResult{});
    ExecuteBatch(ops, results->data());
    size_t hits = 0;
    for (const CacheResult& r : *results) {
      hits += r.hit() ? 1 : 0;
    }
    return hits;
  }

  // Pipelined issue, the path of every single op the replay runner and the
  // RESP front end issue: the op executes immediately (memory effects in
  // issue order — cache behaviour is identical to ExecuteBatch), but its
  // virtual-time cost accrues on a detached per-op timeline starting at
  // start_ns instead of blocking the client clock. Returns the op's
  // completion timestamp; the caller keeps up to K completions in flight and
  // retires them in issue order (sim::PipelineWindow; K = 1 is blocking
  // issue). Clients without a per-op timeline fall back to blocking
  // execution and return the clock, so they behave as at depth 1 at any K.
  virtual uint64_t ExecutePipelined(const CacheOp& op, CacheResult* result,
                                    uint64_t start_ns) {
    // A chained op may start in the future (e.g. a miss penalty offsets the
    // set_on_miss re-insert): block until then, exactly as depth-1 would.
    ctx().clock().AdvanceToNs(start_ns);
    ExecuteBatch({&op, 1}, result);
    return ctx().clock().busy_ns();
  }

  virtual rdma::ClientContext& ctx() = 0;
  virtual ClientCounters counters() const = 0;

  // Elastic scaling: changes this client's view of the cache's capacity (in
  // objects) at run time, evicting down before returning when shrinking.
  // Implementations sharing server-side state (a pool superblock, a
  // directory, a CliqueMap server) make this idempotent, so every client of
  // one deployment may apply the same step. Clients without a resize path
  // ignore the call and return false.
  virtual bool ResizeCapacity(uint64_t capacity_objects) {
    (void)capacity_objects;
    return false;
  }

  // Applies one cluster-lifecycle step (crash/restart/leave/join of a
  // backing node). Cluster deployments apply the step once globally (the
  // shared pool de-duplicates, so every client of one deployment may call
  // this, like ResizeCapacity) and run any key migration before returning.
  // Single-node clients and baselines ignore the call.
  virtual void ApplyLifecycle(const LifecycleStep& step) { (void)step; }

  // Flushes client-side buffers at the end of a run.
  virtual void Finish() {}
  // Clears counters/latency at the warmup/measurement boundary.
  virtual void ResetForMeasurement() = 0;
  // Enables doorbell batching of async metadata verbs every `ops` posts
  // (0 disables). Clients without batching support ignore it.
  virtual void SetBatchOps(size_t ops) { (void)ops; }
};

}  // namespace ditto::sim

#endif  // DITTO_SIM_CLIENT_IFACE_H_
