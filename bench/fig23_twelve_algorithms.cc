// Figure 23 + Table 3: all twelve caching algorithms run as single-expert
// Ditto configurations on the webmail-like workload with variable object
// sizes (64..960-byte values) and a byte-bounded cache, so the size-aware
// algorithms (SIZE, GDS, GDSF) have a real size signal to exploit. Reports
// penalized throughput, hit rate, and the integration effort (lines of
// priority/update code) per algorithm.
#include <cstdio>
#include <map>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"cache_frac", "clients", "footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 40000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 16, 1, bench::kMaxClients);
  const double cache_frac = flags.GetDouble("cache_frac", 0.15);

  const workload::Trace trace = workload::MakeNamedTrace("webmail", requests, footprint, 23);
  const uint64_t fp = workload::Footprint(trace);

  // Byte-bounded pool: the heap is the cache budget; the object-count gate is
  // effectively disabled so evictions trigger on allocator exhaustion.
  const size_t avg_object_bytes = 576;  // header + 17-B key + ~512-B value, padded
  const auto heap_budget =
      static_cast<size_t>(cache_frac * static_cast<double>(fp) * avg_object_bytes);
  const uint64_t approx_objects = heap_budget / avg_object_bytes;
  dm::PoolConfig pool_config;
  pool_config.num_buckets = 1;
  while (pool_config.num_buckets * 8 < approx_objects * 4) {
    pool_config.num_buckets *= 2;
  }
  pool_config.segment_bytes = 8 << 10;
  pool_config.memory_bytes =
      dm::kSuperblockBytes + pool_config.num_buckets * 8 * 40 + heap_budget;
  pool_config.capacity_objects = uint64_t{1} << 40;  // byte-gated, not count-gated

  sim::RunOptions options;
  options.value_bytes = 64;
  options.value_bytes_max = 960;
  options.miss_penalty_us = 500.0;
  options.warmup_fraction = 0.3;

  // Lines of priority/update code in src/policies/algorithms.h per
  // algorithm (this repo), next to the paper's Table 3 counts.
  const std::map<std::string, std::pair<int, int>> loc = {
      {"lru", {3, 9}},       {"lfu", {4, 9}},        {"mru", {3, 9}},
      {"gds", {12, 14}},     {"lirs", {10, 12}},     {"fifo", {3, 9}},
      {"size", {3, 9}},      {"gdsf", {15, 14}},     {"lrfu", {14, 17}},
      {"lruk", {9, 23}},     {"lfuda", {12, 14}},    {"hyperbolic", {7, 11}}};

  bench::PrintHeader("Figure 23 + Table 3",
                     "12 caching algorithms, variable-size objects, byte-bounded cache");
  std::printf("%-12s %12s %10s %10s %12s\n", "algorithm", "tput_mops", "hit_rate",
              "loc(ours)", "loc(paper)");
  for (const std::string& name : policy::AllPolicyNames()) {
    const sim::RunResult r = bench::WithSystem(
        bench::ParseSystem(name), pool_config, clients, [&](auto& d) {
          // The history is sized by the byte budget's object count, not the
          // disabled object-count gate.
          d.pool->SetHistorySize(approx_objects);
          return sim::RunTrace(d.raw, trace, d.nodes, options);
        });
    std::printf("%-12s %12.4f %10.4f %10d %12d\n", name.c_str(), r.throughput_mops,
                r.hit_rate, loc.at(name).first, loc.at(name).second);
  }
  std::printf("\n# expected shape: size-aware algorithms (SIZE/GDS/GDSF) lead under the\n"
              "# byte budget (paper: SIZE best, MRU worst); every algorithm integrates in\n"
              "# ~a dozen lines of priority/update code.\n");
  return 0;
}
