// Contended multi-client engine bench: N client threads share ONE memory
// pool with overlapping key ranges, exercising the CAS/retry paths the paper
// depends on (clients execute the cache logic, so they race on slots).
//
// A --clients x --overlap sweep through sim::RunTraceContended: overlap
// 1.0 = all clients replay one shared key window (maximum racing), 0.0 =
// disjoint windows (contention only via shared freelists and global
// counters). Window sizes shrink as overlap falls so the aggregate
// footprint — and with it the expected hit rate — stays roughly constant.
// Real races decide CAS winners, so rows with clients > 1 differ from run
// to run and the bench prints a table only (no BENCH_JSON rows).
//
// Flags:
//   --keys=N        shared-universe key count          (default 8192)
//   --requests=N    trace length                       (default 300000)
//   --clients=N     fix the client sweep to one value  (default 1,2,4,8)
//   --overlap=F     fix the overlap sweep to one value (default 0,0.5,1)
//   --workload=X    YCSB core workload                 (default A)
//   --theta=F       YCSB zipf skew                     (default 1.1)
//   --seed=N        trace seed                         (default 42)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace ditto;

// Remaps the trace for an overlap level in [0, 1]: client c of n owns the key
// window [start_c, start_c + W) with start_c = c*(1-overlap)*W, and W chosen
// so the last window ends at `keys` — the aggregate footprint stays ~constant
// across overlap levels while the shared fraction of any two windows is
// `overlap`. Request i belongs to client i % n (the contended engine's
// striding), so its key is folded into that client's window.
workload::Trace RemapForOverlap(const workload::Trace& trace, uint64_t keys, int clients,
                                double overlap) {
  const double span = 1.0 + (clients - 1) * (1.0 - overlap);
  const uint64_t window = std::max<uint64_t>(1, static_cast<uint64_t>(
                                                    static_cast<double>(keys) / span));
  workload::Trace out = trace;
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t c = i % static_cast<size_t>(clients);
    const uint64_t start = static_cast<uint64_t>(
        std::llround(static_cast<double>(c) * (1.0 - overlap) * static_cast<double>(window)));
    out[i].key = start + out[i].key % window;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"clients", "keys", "overlap", "requests", "seed", "theta", "workload"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 8192, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 300000, 1, bench::kMaxCount);
  const uint64_t seed = flags.GetInt<uint64_t>("seed", 42, 0, UINT64_MAX);
  const std::string workload_name = flags.GetString("workload", "A");
  const double theta = flags.GetDouble("theta", 1.1);
  const uint64_t capacity = std::max<uint64_t>(1, keys / 4);
  std::vector<int> client_counts = {1, 2, 4, 8};
  if (flags.Has("clients")) {
    client_counts = {flags.GetInt<int>("clients", 1, 1, bench::kMaxThreads)};
  }
  std::vector<double> overlaps = {0.0, 0.5, 1.0};
  if (flags.Has("overlap")) {
    overlaps = {flags.GetDouble("overlap", 1.0)};
  }

  bench::PrintHeader("contended-engine",
                     "multi-client replay against ONE shared pool: clients x overlap sweep");

  workload::YcsbConfig ycsb;
  ycsb.num_keys = keys;
  // A hot head (theta > 1) plus a 4x-over-subscribed capacity keeps the
  // update-CAS and eviction/victim races busy; that contention is what this
  // bench exists to measure.
  ycsb.zipf_theta = theta;
  const workload::Trace trace =
      bench::MakeYcsbTraceOrExit("contended_engine", workload_name, &ycsb, requests, seed);

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  config.validate_inserts = true;  // shared pool: insert races possible

  std::printf("# workload=YCSB-%c keys=%llu requests=%llu sweep_capacity=%llu\n",
              ycsb.workload, static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(capacity));
  std::printf("%-8s %8s %12s %8s %14s %14s\n", "clients", "overlap", "tput_mops", "hit_pct",
              "cas_failures", "insert_retries");
  for (const int clients : client_counts) {
    for (const double overlap : overlaps) {
      const workload::Trace contended = RemapForOverlap(trace, keys, clients, overlap);
      bench::DittoDeployment d =
          bench::MakeDitto(bench::MakePoolConfig(capacity), config, clients);
      sim::RunOptions options;
      options.value_bytes = 128;
      options.warmup_fraction = 0.2;
      const sim::RunResult r = sim::RunTraceContended(d.raw, contended, d.nodes, options);
      std::printf("%-8d %8.2f %12.3f %8.2f %14llu %14llu\n", clients, overlap,
                  r.throughput_mops, r.hit_rate * 100.0,
                  static_cast<unsigned long long>(r.cas_failures),
                  static_cast<unsigned long long>(r.insert_retries));
    }
  }
  std::printf("\n# expected shape: cas_failures grow with clients and overlap.\n");
  return 0;
}
