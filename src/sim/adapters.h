// Adapters making core::DittoClient / core::ClusterClient drivable by the
// experiment runner through the typed CacheOp protocol.
//
// Both adapters share DittoAdapterBase, which implements the whole
// CacheClient surface once: typed batch dispatch (a run of consecutive
// kMultiGet ops is Gets inside one doorbell chain), the counters, and the
// measurement-boundary reset.
// The cluster adapter adds unavailability reporting and lifecycle steps.
#ifndef DITTO_SIM_ADAPTERS_H_
#define DITTO_SIM_ADAPTERS_H_

#include <limits>
#include <type_traits>

#include "core/cluster.h"
#include "core/ditto_client.h"
#include "sim/client_iface.h"

namespace ditto::sim {

template <typename ClientT>
class DittoAdapterBase : public CacheClient {
 public:
  void ExecuteBatch(std::span<const CacheOp> ops, CacheResult* results) override {
    size_t i = 0;
    while (i < ops.size()) {
      if (ops[i].kind != OpKind::kMultiGet) {
        ExecuteSingle(ops[i], &results[i]);
        ++i;
        continue;
      }
      // A run of kMultiGets is Gets inside one doorbell chain: each node the
      // run touches rings one doorbell for its async metadata verbs. When
      // the caller already enabled windowed batching, its window stands.
      const bool chain = batch_ops_ == 0;
      if (chain) {
        client_.SetBatchOps(std::numeric_limits<size_t>::max());
      }
      for (; i < ops.size() && ops[i].kind == OpKind::kMultiGet; ++i) {
        ExecuteSingle(ops[i], &results[i]);
      }
      if (chain) {
        client_.SetBatchOps(0);  // flushes the chain
      }
    }
  }

  // Pipelined issue: run the op on a detached timeline (see
  // rdma::Verbs::BeginOp). The op's verbs, allocator traffic, and metadata
  // updates all execute now — only their time lands on the op cursor — so
  // the cache's behaviour is bit-identical to blocking execution at any depth.
  uint64_t ExecutePipelined(const CacheOp& op, CacheResult* result,
                            uint64_t start_ns) override {
    client_.BeginPipelinedOp(start_ns);
    ExecuteSingle(op, result);
    const uint64_t complete_ns = client_.EndPipelinedOp();
    result->latency_us = static_cast<double>(complete_ns - start_ns) / 1000.0;
    return complete_ns;
  }

  rdma::ClientContext& ctx() override { return *ctx_; }

  ClientCounters counters() const override { return client_.stats(); }

  void Finish() override { client_.FlushBuffers(); }

  void ResetForMeasurement() override {
    client_.ResetStats();
    ctx_->op_hist().Reset();
  }

  void SetBatchOps(size_t ops) override {
    batch_ops_ = ops;
    client_.SetBatchOps(ops);
  }

  bool ResizeCapacity(uint64_t capacity_objects) override {
    return client_.ResizeCapacity(capacity_objects);
  }

 protected:
  template <typename PoolT>
  DittoAdapterBase(PoolT* pool, rdma::ClientContext* ctx, const core::DittoConfig& config)
      : ctx_(ctx), client_(pool, ctx, config) {}

  rdma::ClientContext* ctx_;
  ClientT client_;

 private:
  // Cluster clients report an op that exhausted its retries (or found no
  // live node) as a miss/drop plus an unavailability flag; the adapter turns
  // that into OpStatus::kUnavailable so a front end can tell "the cluster
  // says miss" from "the cluster cannot answer". Stamped here, in the one
  // dispatch every entry point (ExecuteBatch, ExecutePipelined) shares.
  static constexpr bool kReportsUnavailable = std::is_same_v<ClientT, core::ClusterClient>;

  void ExecuteSingle(const CacheOp& op, CacheResult* result) {
    DispatchSingleOp(
        *ctx_, op, result,
        [this](std::string_view key, std::string* value) { return client_.Get(key, value); },
        [this](std::string_view key, std::string_view value, uint64_t ttl) {
          return client_.Set(key, value, ttl);
        },
        [this](std::string_view key) { return client_.Delete(key); },
        [this](std::string_view key, uint64_t ttl) { return client_.Expire(key, ttl); });
    if constexpr (kReportsUnavailable) {
      if (client_.last_op_unavailable()) {
        result->status = OpStatus::kUnavailable;
      }
    }
  }

  size_t batch_ops_ = 0;  // the value SetBatchOps last received
};

class DittoCacheClient : public DittoAdapterBase<core::DittoClient> {
 public:
  DittoCacheClient(dm::MemoryPool* pool, rdma::ClientContext* ctx,
                   const core::DittoConfig& config)
      : DittoAdapterBase(pool, ctx, config) {}

  core::DittoClient& ditto() { return client_; }
};

// Adapter for multi-memory-node (cluster) deployments. The base dispatch
// stamps OpStatus::kUnavailable onto ops whose retries were exhausted.
// Lifecycle steps from the replay schedule are forwarded to the cluster
// client, which applies them globally-once and migrates keys.
class ClusterCacheClient : public DittoAdapterBase<core::ClusterClient> {
 public:
  ClusterCacheClient(core::ClusterPool* pool, rdma::ClientContext* ctx,
                     const core::DittoConfig& config)
      : DittoAdapterBase(pool, ctx, config) {}

  void ApplyLifecycle(const LifecycleStep& step) override {
    switch (step.kind) {
      case LifecycleKind::kCrash:
        client_.ApplyCrash(step.node);
        break;
      case LifecycleKind::kRestart:
        client_.ApplyRestart(step.node);
        break;
      case LifecycleKind::kLeave:
        client_.ApplyLeave(step.node);
        break;
      case LifecycleKind::kJoin:
        client_.ApplyJoin(step.node);
        break;
    }
  }

  core::ClusterClient& cluster() { return client_; }
};

}  // namespace ditto::sim

#endif  // DITTO_SIM_ADAPTERS_H_
