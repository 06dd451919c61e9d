// One Ditto deployment built directly from the public pieces: a MemoryPool,
// its DittoServer, and one DittoCacheClient per client, each wrapped in a
// TracedClient. Every workload of the benchmark runs on one of these.
#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "core/ditto_client.h"
#include "dm/pool.h"
#include "rdma/node.h"
#include "sim/adapters.h"
#include "traced_client.h"

namespace perfbench {

// Pool sizing used by the repo's deployments (ditto_server, the figure
// benches): a table of ~4 slots per cached object and a generous heap;
// capacity is enforced in objects. `table_objects` (default: the capacity)
// sizes the table, so a capacity that varies with the seed can keep one
// table geometry.
inline ditto::dm::PoolConfig PoolFor(uint64_t capacity_objects, uint64_t table_objects = 0) {
  ditto::dm::PoolConfig config;
  const uint64_t table = std::max(table_objects, capacity_objects);
  config.num_buckets = 1;
  while (config.num_buckets * 8 < table * 4) {
    config.num_buckets *= 2;
  }
  config.memory_bytes =
      std::max<size_t>(size_t{32} << 20, capacity_objects * 1024 + (size_t{8} << 20));
  config.capacity_objects = capacity_objects;
  return config;
}

struct Deployment {
  std::unique_ptr<ditto::dm::MemoryPool> pool;
  std::unique_ptr<ditto::core::DittoServer> server;
  std::vector<std::unique_ptr<ditto::rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<ditto::sim::DittoCacheClient>> inner;
  std::vector<std::unique_ptr<TracedClient>> traced;
  std::vector<ditto::sim::CacheClient*> clients;  // the decorators

  // `recorders` holds one recorder per client, or a single one all clients
  // share (clients driven by one thread).
  Deployment(const ditto::dm::PoolConfig& pool_config, const ditto::core::DittoConfig& config,
             int num_clients, const std::vector<Recorder*>& recorders,
             const std::atomic<int>* phase) {
    pool = std::make_unique<ditto::dm::MemoryPool>(pool_config);
    server = std::make_unique<ditto::core::DittoServer>(pool.get(), config);
    for (int i = 0; i < num_clients; ++i) {
      ctxs.push_back(std::make_unique<ditto::rdma::ClientContext>(static_cast<uint32_t>(i)));
      inner.push_back(
          std::make_unique<ditto::sim::DittoCacheClient>(pool.get(), ctxs.back().get(), config));
      Recorder* rec = recorders[recorders.size() == 1 ? 0 : static_cast<size_t>(i)];
      traced.push_back(std::make_unique<TracedClient>(inner.back().get(), rec,
                                                      static_cast<uint32_t>(i), phase));
      clients.push_back(traced.back().get());
    }
  }

  ditto::rdma::RemoteNode& node() { return pool->node(); }

  // Sum of every client's counters; only while no client thread runs.
  ClientSnapshot SumSnapshots() {
    ClientSnapshot sum;
    sum.valid = true;
    for (auto& t : traced) {
      Accumulate(&sum, t->Snapshot(), +1);
    }
    return sum;
  }

  // Adds (sign = +1) or subtracts (sign = -1) b into *a.
  static void Accumulate(ClientSnapshot* a, const ClientSnapshot& b, int sign) {
    auto add = [sign](uint64_t* x, uint64_t y) { *x = sign > 0 ? *x + y : *x - y; };
    ditto::core::DittoStats& s = a->stats;
    const ditto::core::DittoStats& t = b.stats;
    const std::pair<uint64_t*, uint64_t> fields[] = {
        {&s.gets, t.gets},         {&s.sets, t.sets},
        {&s.hits, t.hits},         {&s.misses, t.misses},
        {&s.deletes, t.deletes},   {&s.evictions, t.evictions},
        {&s.expired, t.expired},   {&s.regrets, t.regrets},
        {&s.set_retries, t.set_retries}, {&s.cas_failures, t.cas_failures},
        {&s.insert_retries, t.insert_retries}, {&s.dup_resolved, t.dup_resolved},
        {&a->reads, b.reads},      {&a->writes, b.writes},
        {&a->atomics, b.atomics},  {&a->rpcs, b.rpcs},
        {&a->busy_ns, b.busy_ns}};
    for (const auto& [x, y] : fields) {
      add(x, y);
    }
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
