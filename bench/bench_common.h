// Shared deployment, figure-cell and reporting helpers for the bench
// binaries.
//
// Every bench prints a header naming the paper figure it regenerates, the
// cost-model parameters, and tab-separated data rows suitable for plotting.
// Request counts are scaled down from the paper's 10M-request runs so the
// full suite finishes in minutes; pass a larger --requests to run longer.
//
// Adding a figure: build the trace, then run one cell per system and size:
//
//   sim::RunOptions options;
//   options.miss_penalty_us = 500.0;
//   for (const char* name : {"ditto", "ditto-lru", "cm-lru"}) {
//     const sim::RunResult r = bench::RunSystem(bench::ParseSystem(name), trace,
//                                               bench::MakePoolConfig(capacity),
//                                               clients, options);
//     std::printf(" %10.4f", r.hit_rate);
//   }
//
// ParseSystem takes the names the figures print (see its comment) and
// returns a System whose configs a figure may edit first (an ablation
// switch, the FC-cache size). A cell that needs the deployment itself — to
// replay several phases against one cache, or to set the history size —
// passes a generic lambda to WithSystem. Only experiments outside the
// system x workload x size grid (Figure 13's live resizing, the engines'
// sweeps, the cluster benches) build a Deployment with the Make* helpers.
#ifndef DITTO_BENCH_BENCH_COMMON_H_
#define DITTO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/cliquemap.h"
#include "baselines/shard_lru.h"
#include "common/flags.h"
#include "core/cluster.h"
#include "core/ditto_client.h"
#include "dm/pool.h"
#include "policies/policy.h"
#include "rdma/cost_model.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/synthetic_traces.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace ditto::bench {

// Ranges of the integer flags the benches share; every Flags::GetInt read
// states its range. Replays index a trace with 32 bits, so trace lengths and
// the key, footprint and capacity counts sized with them stay below 2^32.
inline constexpr uint64_t kMaxCount = std::numeric_limits<uint32_t>::max();
// Simulated clients of one replay (the figures sweep up to 512).
inline constexpr int kMaxClients = 1024;
// Memory nodes of one deployment: the ring's live-node mask has 64 bits.
inline constexpr int kMaxNodes = static_cast<int>(core::kMaxRingNodes);
// Doorbell chain lengths, multi-get widths and pipeline depths.
inline constexpr int kMaxBatch = 1024;
// Host threads one binary starts (engine workers, contending clients,
// server reactors).
inline constexpr int kMaxThreads = 64;

// The cost-model line prints rdma::CostModel's defaults.
inline void PrintHeader(const char* figure, const char* what) {
  constexpr rdma::CostModel kCost{};
  static_assert(kCost.read_rtt_us == kCost.write_rtt_us, "one READ/WRITE rtt is printed");
  std::printf("# %s\n# %s\n", figure, what);
  std::printf("# cost model: READ/WRITE rtt %.1fus, ATOMIC %.1fus, NIC %.0f Mmsg/s, "
              "RPC %.1fus/op/core\n",
              kCost.read_rtt_us, kCost.atomic_rtt_us, kCost.nic_mops, kCost.rpc_service_us);
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

// Machine-readable result row of the modelled columns only: virtual-time
// throughput, hit rate, nearest-rank virtual p50/p99, contention and NIC
// counts (plus recovery_ops for the cluster lifecycle rows). Each is exact
// for a seed and a build, so `scripts/bench_report.py check` compares fresh
// rows to the committed BENCH_<bench>.json files value for value; host wall
// rates come from perfbench/ only.
inline void EmitBenchJson(const char* bench, const char* label, const sim::RunResult& r,
                          std::optional<uint64_t> recovery_ops = std::nullopt) {
  std::printf("BENCH_JSON {\"bench\": \"%s\", \"label\": \"%s\", \"ops\": %llu, "
              "\"throughput_mops\": %.6f, \"hit_rate\": %.6f, \"p50_us\": %.3f, "
              "\"p99_us\": %.3f, \"cas_failures\": %llu, \"insert_retries\": %llu, "
              "\"nic_messages\": %llu, \"nic_doorbells\": %llu",
              JsonEscape(bench).c_str(), JsonEscape(label).c_str(),
              static_cast<unsigned long long>(r.ops), r.throughput_mops, r.hit_rate, r.p50_us,
              r.p99_us, static_cast<unsigned long long>(r.cas_failures),
              static_cast<unsigned long long>(r.insert_retries),
              static_cast<unsigned long long>(r.nic_messages),
              static_cast<unsigned long long>(r.nic_doorbells));
  if (recovery_ops.has_value()) {
    std::printf(", \"recovery_ops\": %llu", static_cast<unsigned long long>(*recovery_ops));
  }
  std::printf("}\n");
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

// The memory nodes whose NIC/CPU horizons bound a replay on `pool`.
inline std::vector<rdma::RemoteNode*> NodesOf(dm::MemoryPool& pool) { return {&pool.node()}; }
inline std::vector<rdma::RemoteNode*> NodesOf(core::ClusterPool& pool) {
  std::vector<rdma::RemoteNode*> nodes;
  for (int i = 0; i < pool.num_nodes(); ++i) {
    nodes.push_back(&pool.node(i).node());
  }
  return nodes;
}

// Host-side state of a deployment that has none (a ClusterPool builds its
// own Ditto controllers).
struct NoHost {};

// A deployment: the memory side (one dm::MemoryPool, or a core::ClusterPool
// of nodes), the host-side state its clients share (the Ditto controller,
// CliqueMap's server CPU, Shard-LRU's lock directory), and N typed clients
// with one context each. `raw` is the runner's view of the clients and
// `nodes` is NodesOf(*pool).
template <typename PoolT, typename HostT, typename ClientT>
struct Deployment {
  // Builds client `index` on its context.
  using ClientFactory = std::function<std::unique_ptr<ClientT>(int index, rdma::ClientContext*)>;

  Deployment() = default;
  Deployment(std::unique_ptr<PoolT> memory, std::unique_ptr<HostT> host_state,
             ClientFactory factory, int num_clients)
      : pool(std::move(memory)),
        host(std::move(host_state)),
        nodes(NodesOf(*pool)),
        make_client(std::move(factory)) {
    Resize(num_clients);
  }

  // Grows or shrinks the client set (Figure 13's compute elasticity). A
  // client added mid-experiment joins at the current virtual time, not at
  // t=0 (otherwise it would observe all previously accumulated NIC work as
  // queueing backlog).
  void Resize(int num_clients) {
    while (static_cast<int>(clients.size()) > num_clients) {
      clients.pop_back();
      ctxs.pop_back();
      raw.pop_back();
    }
    uint64_t now_ns = 0;
    for (const auto& ctx : ctxs) {
      now_ns = std::max(now_ns, ctx->clock().busy_ns());
    }
    while (static_cast<int>(clients.size()) < num_clients) {
      const auto index = static_cast<int>(ctxs.size());
      ctxs.push_back(std::make_unique<rdma::ClientContext>(static_cast<uint32_t>(index)));
      ctxs.back()->clock().AdvanceNs(now_ns);
      clients.push_back(make_client(index, ctxs.back().get()));
      raw.push_back(clients.back().get());
    }
  }

  std::unique_ptr<PoolT> pool;
  std::unique_ptr<HostT> host;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<ClientT>> clients;
  std::vector<sim::CacheClient*> raw;
  std::vector<rdma::RemoteNode*> nodes;
  ClientFactory make_client;
};

using DittoDeployment = Deployment<dm::MemoryPool, core::DittoServer, sim::DittoCacheClient>;
using ClusterDeployment = Deployment<core::ClusterPool, NoHost, sim::ClusterCacheClient>;
using ShardedEngineDeployment = Deployment<core::ClusterPool, NoHost, sim::DittoCacheClient>;
using CmDeployment =
    Deployment<dm::MemoryPool, baselines::CliqueMapServer, baselines::CliqueMapClient>;
using ShardDeployment =
    Deployment<dm::MemoryPool, baselines::ShardLruDirectory, baselines::ShardLruClient>;

// Ditto on one memory node: pool + controller + n clients.
inline DittoDeployment MakeDitto(const dm::PoolConfig& pool_config,
                                 const core::DittoConfig& config, int num_clients) {
  auto pool = std::make_unique<dm::MemoryPool>(pool_config);
  auto server = std::make_unique<core::DittoServer>(pool.get(), config);
  dm::MemoryPool* memory = pool.get();
  return DittoDeployment(std::move(pool), std::move(server),
                         [memory, config](int, rdma::ClientContext* ctx) {
                           return std::make_unique<sim::DittoCacheClient>(memory, ctx, config);
                         },
                         num_clients);
}

// The sharded engine's deployment (sim::RunTraceSharded): one memory node
// per shard from a ClusterPool, with shard i's client bound directly to node
// i, so every shard's cache state and virtual-time accounting is private to
// the worker thread driving it. The pool's ring is unused: RunTraceSharded
// assigns requests with sim::ShardForKey(options.partition_seed), and the
// always-armed fault state draws no randomness under the empty plan.
inline ShardedEngineDeployment MakeShardedEngine(const dm::PoolConfig& per_node_config,
                                                 const core::DittoConfig& config,
                                                 int num_shards) {
  core::ClusterConfig cluster_config;
  cluster_config.nodes = num_shards;
  cluster_config.pool = per_node_config;
  cluster_config.ditto = config;
  auto pool = std::make_unique<core::ClusterPool>(cluster_config);
  core::ClusterPool* memory = pool.get();
  return ShardedEngineDeployment(std::move(pool), nullptr,
                                 [memory, config](int shard, rdma::ClientContext* ctx) {
                                   return std::make_unique<sim::DittoCacheClient>(
                                       &memory->node(shard), ctx, config);
                                 },
                                 num_shards);
}

// A fault-tolerant cluster: N memory nodes behind a hash ring, driven by
// retrying ClusterCacheClients (see core/cluster.h). Lifecycle steps come
// from RunOptions::lifecycle_schedule.
inline ClusterDeployment MakeCluster(const core::ClusterConfig& config, int num_clients) {
  auto pool = std::make_unique<core::ClusterPool>(config);
  core::ClusterPool* memory = pool.get();
  return ClusterDeployment(std::move(pool), nullptr,
                           [memory, ditto = config.ditto](int, rdma::ClientContext* ctx) {
                             return std::make_unique<sim::ClusterCacheClient>(memory, ctx, ditto);
                           },
                           num_clients);
}

inline CmDeployment MakeCliqueMap(const dm::PoolConfig& pool_config,
                                  const baselines::CliqueMapConfig& config, int num_clients) {
  auto pool = std::make_unique<dm::MemoryPool>(pool_config);
  auto server = std::make_unique<baselines::CliqueMapServer>(pool.get(), config);
  dm::MemoryPool* memory = pool.get();
  baselines::CliqueMapServer* host = server.get();
  return CmDeployment(std::move(pool), std::move(server),
                      [memory, host](int, rdma::ClientContext* ctx) {
                        return std::make_unique<baselines::CliqueMapClient>(memory, host, ctx);
                      },
                      num_clients);
}

// Shard-LRU and its Figure 2 variants (KVC, KVC-S, KVS).
inline ShardDeployment MakeShardLru(const dm::PoolConfig& pool_config,
                                    const baselines::ShardLruConfig& config, int num_clients) {
  auto pool = std::make_unique<dm::MemoryPool>(pool_config);
  auto dir = std::make_unique<baselines::ShardLruDirectory>(pool.get(), config);
  dm::MemoryPool* memory = pool.get();
  baselines::ShardLruDirectory* host = dir.get();
  return ShardDeployment(std::move(pool), std::move(dir),
                         [memory, host](int, rdma::ClientContext* ctx) {
                           return std::make_unique<baselines::ShardLruClient>(memory, host, ctx);
                         },
                         num_clients);
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

// MakeYcsbTrace for a bench whose --workload flag names the workload: sets
// config->workload from the flag, which must be exactly A, B, C or D;
// anything else prints the error and exits 2.
inline workload::Trace MakeYcsbTraceOrExit(const char* bench, std::string_view workload_flag,
                                           workload::YcsbConfig* config, uint64_t count,
                                           uint64_t seed) {
  if (workload_flag.size() == 1 && std::string_view("ABCD").find(workload_flag[0]) !=
                                       std::string_view::npos) {
    config->workload = workload_flag[0];
    return workload::MakeYcsbTrace(*config, count, seed);
  }
  std::fprintf(stderr, "%s: unknown YCSB workload '%.*s' (expected A, B, C or D)\n", bench,
               static_cast<int>(workload_flag.size()), workload_flag.data());
  std::exit(2);
}

// A system a figure compares. ParseSystem accepts:
//   ditto                adaptive Ditto (LRU + LFU experts)
//   ditto-lru, ditto-lfu one-expert Ditto (the paper's Ditto-LRU/-LFU)
//   <policy>             any policy::AllPolicyNames() entry as a one-expert Ditto
//   cm-lru, cm-lfu       CliqueMap with the given server-side policy
//   shard-lru, kvc-s     Shard-LRU: 32 lock-protected LRU lists
//   kvc                  one lock-protected LRU list
//   kvs                  no caching structure
// and throws std::invalid_argument for anything else.
struct System {
  enum class Kind { kDitto, kCliqueMap, kShardLru };

  std::string name;
  Kind kind = Kind::kDitto;
  core::DittoConfig ditto;
  baselines::CliqueMapConfig cliquemap;
  baselines::ShardLruConfig shard_lru;
};

inline System ParseSystem(std::string_view name) {
  System system;
  system.name = std::string(name);
  if (name == "ditto") {
    system.ditto.experts = {"lru", "lfu"};
  } else if (name == "ditto-lru" || name == "ditto-lfu") {
    system.ditto.experts = {std::string(name.substr(6))};
  } else if (name == "cm-lru" || name == "cm-lfu") {
    system.kind = System::Kind::kCliqueMap;
    system.cliquemap.policy =
        name == "cm-lru" ? baselines::CmPolicy::kLru : baselines::CmPolicy::kLfu;
  } else if (name == "shard-lru" || name == "kvc-s" || name == "kvc" || name == "kvs") {
    system.kind = System::Kind::kShardLru;
    system.shard_lru.num_shards = name == "kvc" ? 1 : 32;
    system.shard_lru.maintain_list = name != "kvs";
  } else if (policy::MakePolicy(system.name) != nullptr) {
    system.ditto.experts = {system.name};
  } else {
    throw std::invalid_argument("unknown system: " + system.name);
  }
  return system;
}

// Deploys `system` on a fresh pool with `num_clients` clients and returns
// fn(deployment); fn is generic over the deployment's client type.
template <typename Fn>
auto WithSystem(const System& system, const dm::PoolConfig& pool_config, int num_clients,
                Fn&& fn) {
  switch (system.kind) {
    case System::Kind::kCliqueMap: {
      CmDeployment d = MakeCliqueMap(pool_config, system.cliquemap, num_clients);
      return fn(d);
    }
    case System::Kind::kShardLru: {
      ShardDeployment d = MakeShardLru(pool_config, system.shard_lru, num_clients);
      return fn(d);
    }
    case System::Kind::kDitto:
      break;
  }
  DittoDeployment d = MakeDitto(pool_config, system.ditto, num_clients);
  return fn(d);
}

// One figure cell: replays `trace` against a fresh deployment of `system`.
// With `preload`, every distinct key is written first (options.value_bytes
// values), so the replay measures a cache with no cold misses.
inline sim::RunResult RunSystem(const System& system, const workload::Trace& trace,
                                const dm::PoolConfig& pool_config, int num_clients,
                                const sim::RunOptions& options, bool preload = false) {
  return WithSystem(system, pool_config, num_clients, [&](auto& d) {
    if (preload) {
      Preload(d.raw, trace, options.value_bytes);
    }
    return sim::RunTrace(d.raw, trace, d.nodes, options);
  });
}

}  // namespace ditto::bench

#endif  // DITTO_BENCH_BENCH_COMMON_H_
