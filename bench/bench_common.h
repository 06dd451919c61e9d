// Shared deployment and reporting helpers for the per-figure bench binaries.
//
// Every bench prints a header naming the paper figure it regenerates, the
// cost-model parameters, and tab-separated data rows suitable for plotting.
// Request counts are scaled down from the paper's 10M-request runs so the
// full suite finishes in minutes; pass --scale=N (default 1) to multiply all
// workload sizes.
#ifndef DITTO_BENCH_BENCH_COMMON_H_
#define DITTO_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/cliquemap.h"
#include "baselines/shard_lru.h"
#include "common/flags.h"
#include "core/cluster.h"
#include "core/ditto_client.h"
#include "dm/pool.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/synthetic_traces.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace ditto::bench {

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("# %s\n# %s\n", figure, what);
  std::printf("# cost model: READ/WRITE rtt 2.0us, ATOMIC 2.5us, NIC 75 Mmsg/s, "
              "RPC 1.2us/op/core\n");
}

// Escapes `"` and `\` so no bench/label string can corrupt the one-line
// BENCH_JSON stream (control characters never appear in bench labels).
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// Host wall-clock stopwatch for bench-local sections that do not go through
// a replay engine (preload phases, legacy comparison loops). Engine runs
// carry their own measurement in RunResult::wall_mops.
class WallTimer {
 public:
  WallTimer() : begin_(std::chrono::steady_clock::now()) {}
  void Reset() { begin_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin_).count();
  }
  double Mops(uint64_t ops) const {
    const double s = Seconds();
    return s > 0.0 ? static_cast<double>(ops) / (s * 1e6) : 0.0;
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

// Machine-readable result row: scripts/run_benches.sh collects every
// BENCH_JSON line of a bench's stdout into bench/out/BENCH_<name>.json
// (grouped by each row's own "bench" field), so CI and future PRs can diff
// ops / hit rate / nearest-rank p50/p99 without parsing the human tables.
// wall_mops is the measured host wall-clock replay rate — the number that
// moves when the replay hot path itself gets faster (the virtual-time
// throughput_mops only reflects the modeled network). It defaults to the
// engine's own measurement (RunResult::wall_mops); pass wall_mops >= 0 only
// when the bench timed a wider section itself (e.g. with WallTimer).
inline void EmitBenchJson(const char* bench, const char* label, const sim::RunResult& r,
                          double wall_mops = -1.0) {
  const std::string bench_esc = JsonEscape(bench);
  const std::string label_esc = JsonEscape(label);
  const double wall = wall_mops >= 0.0 ? wall_mops : r.wall_mops;
  const int threads = r.threads > 0 ? r.threads : 1;
  std::printf("BENCH_JSON {\"bench\": \"%s\", \"label\": \"%s\", \"ops\": %llu, "
              "\"throughput_mops\": %.6f, \"hit_rate\": %.6f, \"p50_us\": %.3f, "
              "\"p99_us\": %.3f, \"cas_failures\": %llu, \"insert_retries\": %llu, "
              "\"wall_mops\": %.6f, \"threads\": %d, \"ops_per_core_mops\": %.6f}\n",
              bench_esc.c_str(), label_esc.c_str(),
              static_cast<unsigned long long>(r.ops), r.throughput_mops,
              r.hit_rate, r.p50_us, r.p99_us,
              static_cast<unsigned long long>(r.cas_failures),
              static_cast<unsigned long long>(r.insert_retries),
              wall, threads, wall / static_cast<double>(threads));
}

inline dm::PoolConfig MakePoolConfig(uint64_t capacity_objects, int controller_cores = 1,
                                     bool costed = true) {
  dm::PoolConfig config;
  // Size the table at ~4 slots per cached object (objects + history slack)
  // and the heap generously; capacity is enforced in objects.
  config.num_buckets = 1;
  while (config.num_buckets * 8 < capacity_objects * 4) {
    config.num_buckets *= 2;
  }
  config.memory_bytes =
      std::max<size_t>(size_t{32} << 20, capacity_objects * 1024 + (size_t{8} << 20));
  config.capacity_objects = capacity_objects;
  config.controller_cores = controller_cores;
  if (!costed) {
    config.cost = rdma::CostModel::Disabled();
  }
  return config;
}

// A Ditto deployment: pool + server + n clients, driven through the runner.
struct DittoDeployment {
  std::unique_ptr<dm::MemoryPool> pool;
  std::unique_ptr<core::DittoServer> server;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> clients;
  std::vector<sim::CacheClient*> raw;

  void Resize(int num_clients, const core::DittoConfig& config) {
    while (static_cast<int>(clients.size()) > num_clients) {
      clients.pop_back();
      ctxs.pop_back();
      raw.pop_back();
    }
    // A client added mid-experiment joins at the current virtual time, not
    // at t=0 (otherwise it would observe all previously accumulated NIC work
    // as queueing backlog).
    uint64_t now_ns = 0;
    for (const auto& ctx : ctxs) {
      now_ns = std::max(now_ns, ctx->clock().busy_ns());
    }
    while (static_cast<int>(clients.size()) < num_clients) {
      const auto id = static_cast<uint32_t>(ctxs.size());
      ctxs.push_back(std::make_unique<rdma::ClientContext>(id));
      ctxs.back()->clock().AdvanceNs(now_ns);
      clients.push_back(
          std::make_unique<sim::DittoCacheClient>(pool.get(), ctxs.back().get(), config));
      raw.push_back(clients.back().get());
    }
  }
};

inline DittoDeployment MakeDitto(const dm::PoolConfig& pool_config,
                                 const core::DittoConfig& config, int num_clients) {
  DittoDeployment d;
  d.pool = std::make_unique<dm::MemoryPool>(pool_config);
  d.server = std::make_unique<core::DittoServer>(d.pool.get(), config);
  d.Resize(num_clients, config);
  return d;
}

// A sharded-engine deployment for sim::RunTraceSharded: the memory nodes
// and their servers come from a ClusterPool, with one context and Ditto
// client per shard bound directly to its node, so every shard's cache state
// (and virtual-time accounting) is private to the worker thread driving it.
struct ShardedEngineDeployment {
  std::unique_ptr<core::ClusterPool> pool;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> shards;
  std::vector<sim::CacheClient*> raw;
  std::vector<rdma::RemoteNode*> nodes;
};

inline ShardedEngineDeployment MakeShardedEngine(const dm::PoolConfig& per_node_config,
                                                 const core::DittoConfig& config,
                                                 int num_shards) {
  ShardedEngineDeployment d;
  // The pool's ring is unused here: RunTraceSharded assigns requests to
  // shards with sim::ShardForKey(options.partition_seed). The pool's
  // always-armed fault state draws no randomness under the empty plan.
  core::ClusterConfig cluster_config;
  cluster_config.nodes = num_shards;
  cluster_config.pool = per_node_config;
  cluster_config.ditto = config;
  d.pool = std::make_unique<core::ClusterPool>(cluster_config);
  for (int i = 0; i < num_shards; ++i) {
    d.ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
    d.shards.push_back(
        std::make_unique<sim::DittoCacheClient>(&d.pool->node(i), d.ctxs.back().get(), config));
    d.raw.push_back(d.shards.back().get());
    d.nodes.push_back(&d.pool->node(i).node());
  }
  return d;
}

// A fault-tolerant cluster deployment: N memory nodes behind a hash ring,
// driven by retrying ClusterCacheClients (see core/cluster.h). Lifecycle
// steps come from RunOptions::lifecycle_schedule.
struct ClusterDeployment {
  std::unique_ptr<core::ClusterPool> pool;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::ClusterCacheClient>> clients;
  std::vector<sim::CacheClient*> raw;
  std::vector<rdma::RemoteNode*> nodes;
};

inline ClusterDeployment MakeCluster(const core::ClusterConfig& config, int num_clients) {
  ClusterDeployment d;
  d.pool = std::make_unique<core::ClusterPool>(config);
  for (int i = 0; i < num_clients; ++i) {
    d.ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
    d.clients.push_back(std::make_unique<sim::ClusterCacheClient>(d.pool.get(),
                                                                  d.ctxs.back().get(),
                                                                  config.ditto));
    d.raw.push_back(d.clients.back().get());
  }
  for (int i = 0; i < d.pool->num_nodes(); ++i) {
    d.nodes.push_back(&d.pool->node(i).node());
  }
  return d;
}

// A CliqueMap deployment.
struct CmDeployment {
  std::unique_ptr<dm::MemoryPool> pool;
  std::unique_ptr<baselines::CliqueMapServer> server;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<baselines::CliqueMapClient>> clients;
  std::vector<sim::CacheClient*> raw;
};

inline CmDeployment MakeCliqueMap(const dm::PoolConfig& pool_config,
                                  const baselines::CliqueMapConfig& config, int num_clients) {
  CmDeployment d;
  d.pool = std::make_unique<dm::MemoryPool>(pool_config);
  d.server = std::make_unique<baselines::CliqueMapServer>(d.pool.get(), config);
  for (int i = 0; i < num_clients; ++i) {
    d.ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
    d.clients.push_back(std::make_unique<baselines::CliqueMapClient>(d.pool.get(),
                                                                     d.server.get(),
                                                                     d.ctxs.back().get()));
    d.raw.push_back(d.clients.back().get());
  }
  return d;
}

// A Shard-LRU (or KVC/KVC-S/KVS) deployment.
struct ShardDeployment {
  std::unique_ptr<dm::MemoryPool> pool;
  std::unique_ptr<baselines::ShardLruDirectory> dir;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<baselines::ShardLruClient>> clients;
  std::vector<sim::CacheClient*> raw;
};

inline ShardDeployment MakeShardLru(const dm::PoolConfig& pool_config,
                                    const baselines::ShardLruConfig& config, int num_clients) {
  ShardDeployment d;
  d.pool = std::make_unique<dm::MemoryPool>(pool_config);
  d.dir = std::make_unique<baselines::ShardLruDirectory>(d.pool.get(), config);
  for (int i = 0; i < num_clients; ++i) {
    d.ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
    d.clients.push_back(std::make_unique<baselines::ShardLruClient>(d.pool.get(), d.dir.get(),
                                                                    d.ctxs.back().get()));
    d.raw.push_back(d.clients.back().get());
  }
  return d;
}

// Preloads all distinct keys of a trace so a subsequent read phase has no
// cold misses (the paper's "no cache miss" throughput experiments).
inline void Preload(const std::vector<sim::CacheClient*>& clients, const workload::Trace& trace,
                    size_t value_bytes) {
  const std::string value(value_bytes, 'v');
  std::vector<bool> seen;
  uint64_t max_key = 0;
  for (const auto& r : trace) {
    max_key = std::max(max_key, r.key);
  }
  seen.assign(max_key + 1, false);
  size_t i = 0;
  for (const auto& r : trace) {
    if (!seen[r.key]) {
      seen[r.key] = true;
      clients[i % clients.size()]->Set(workload::KeyString(r.key), value);
      ++i;
    }
  }
}

}  // namespace ditto::bench

#endif  // DITTO_BENCH_BENCH_COMMON_H_
