// Trace replay tool: run Ditto (or a single fixed algorithm) over a trace
// file and report hit rate and penalized throughput. Useful for evaluating
// the adaptive cache on real production traces (Twitter cache-trace format
// and simple "OP,key" CSVs are auto-detected; see workloads/trace_file.h).
//
//   ./examples/replay_trace --trace=/path/to/trace.csv
//       [--cache_frac=0.1] [--clients=16] [--experts=lru,lfu]
//       [--penalty_us=500] [--warmup=0.3]
//
// Without --trace, a demonstration webmail-like synthetic trace is used.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "core/ditto_client.h"
#include "dm/pool.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/synthetic_traces.h"
#include "workloads/trace_file.h"

namespace {

std::vector<std::string> SplitExperts(const std::string& list) {
  std::vector<std::string> experts;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      experts.push_back(list.substr(start));
      break;
    }
    experts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return experts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"cache_frac", "clients", "experts", "penalty_us", "trace", "warmup"});
  const std::string path = flags.GetString("trace", "");
  const double cache_frac = flags.GetDouble("cache_frac", 0.1);
  const int num_clients = flags.GetInt<int>("clients", 16, 1, 1024);
  const double penalty_us = flags.GetDouble("penalty_us", 500.0);
  const double warmup = flags.GetDouble("warmup", 0.3);
  const std::vector<std::string> experts = SplitExperts(flags.GetString("experts", "lru,lfu"));

  workload::Trace trace;
  if (path.empty()) {
    std::printf("no --trace given; generating a demo webmail-like trace\n");
    trace = workload::MakeNamedTrace("webmail", 150000, 20000, 1);
  } else {
    workload::TraceFileStats stats;
    trace = workload::LoadTraceFile(path, &stats);
    if (trace.empty()) {
      std::fprintf(stderr, "failed to load any requests from %s\n", path.c_str());
      return 1;
    }
    std::printf("loaded %llu requests (%llu distinct keys, %llu lines skipped)\n",
                static_cast<unsigned long long>(stats.parsed),
                static_cast<unsigned long long>(stats.distinct_keys),
                static_cast<unsigned long long>(stats.skipped));
  }

  const uint64_t footprint = workload::Footprint(trace);
  const auto capacity =
      std::max<uint64_t>(64, static_cast<uint64_t>(cache_frac * static_cast<double>(footprint)));

  dm::PoolConfig pool_config;
  pool_config.num_buckets = 1;
  while (pool_config.num_buckets * 8 < capacity * 4) {
    pool_config.num_buckets *= 2;
  }
  pool_config.memory_bytes =
      std::max<size_t>(size_t{64} << 20, capacity * 1024 + (size_t{8} << 20));
  pool_config.capacity_objects = capacity;
  dm::MemoryPool pool(pool_config);

  core::DittoConfig config;
  config.experts = experts;
  core::DittoServer server(&pool, config);

  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<sim::DittoCacheClient>> clients;
  std::vector<sim::CacheClient*> raw;
  try {
    for (int i = 0; i < num_clients; ++i) {
      ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
      clients.push_back(
          std::make_unique<sim::DittoCacheClient>(&pool, ctxs.back().get(), config));
      raw.push_back(clients.back().get());
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "replay_trace: %s\n", e.what());
    return 2;
  }

  std::printf("replaying: footprint=%llu capacity=%llu clients=%d experts=%s penalty=%.0fus\n",
              static_cast<unsigned long long>(footprint),
              static_cast<unsigned long long>(capacity), num_clients,
              flags.GetString("experts", "lru,lfu").c_str(), penalty_us);

  sim::RunOptions options;
  options.miss_penalty_us = penalty_us;
  options.warmup_fraction = warmup;
  const sim::RunResult r = sim::RunTrace(raw, trace, &pool.node(), options);

  std::printf("\nresults (measured after %.0f%% warmup):\n", warmup * 100.0);
  std::printf("  hit rate              : %.4f\n", r.hit_rate);
  std::printf("  penalized throughput  : %.4f Mops\n", r.throughput_mops);
  std::printf("  latency p50 / p99     : %.1f / %.1f us\n", r.p50_us, r.p99_us);
  if (config.adaptive()) {
    std::printf("  final expert weights  :");
    for (size_t e = 0; e < experts.size(); ++e) {
      std::printf(" %s=%.3f", experts[e].c_str(), clients[0]->ditto().expert_weights()[e]);
    }
    std::printf("\n");
  }
  return 0;
}
