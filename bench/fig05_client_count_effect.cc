// Figure 5: the effect of concurrent clients on hit rates.
//   (a) CDF of the relative hit-rate change (h_max - h_min)/h_max across a
//       74-workload suite when the client count varies from 1 to 512;
//   (b) an example trace where LFU wins at low client counts but loses to
//       LRU as concurrency grows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workloads/synthetic_traces.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"footprint", "requests", "workloads"});
  const int num_workloads = flags.GetInt<int>("workloads", 74, 1, 1024);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 80000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 8000, 1, bench::kMaxCount);
  const std::vector<int> client_counts = {1, 8, 64, 512};
  const sim::RunOptions options;
  const auto hit_rate = [&](const workload::Trace& t, size_t cap,
                            policy::PrecisePolicyKind kind, int clients) {
    return sim::ReplayExact(t, kind, cap, options, clients).hit_rate;
  };

  std::printf("# Figure 5a: CDF of relative hit-rate change across %d workloads\n",
              num_workloads);
  std::vector<double> lru_changes;
  std::vector<double> lfu_changes;
  int best_changes = 0;
  for (int w = 0; w < num_workloads; ++w) {
    const workload::Trace trace = workload::MakeSuiteWorkload(w, requests, footprint, 11);
    const size_t capacity = footprint / 10;
    lru_changes.push_back(sim::RelativeHitRateChange(trace, capacity,
                                                     policy::PrecisePolicyKind::kLru,
                                                     client_counts));
    lfu_changes.push_back(sim::RelativeHitRateChange(trace, capacity,
                                                     policy::PrecisePolicyKind::kLfu,
                                                     client_counts));
    // Does the better algorithm flip with the client count?
    int lru_best = 0;
    int lfu_best = 0;
    for (const int clients : client_counts) {
      const double lru = hit_rate(trace, capacity, policy::PrecisePolicyKind::kLru, clients);
      const double lfu = hit_rate(trace, capacity, policy::PrecisePolicyKind::kLfu, clients);
      (lru >= lfu ? lru_best : lfu_best)++;
    }
    if (lru_best != 0 && lfu_best != 0) {
      best_changes++;
    }
  }
  std::sort(lru_changes.begin(), lru_changes.end());
  std::sort(lfu_changes.begin(), lfu_changes.end());
  std::printf("%-10s %12s %12s\n", "percentile", "lru_change", "lfu_change");
  for (const double p : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    const auto idx = std::min(lru_changes.size() - 1,
                              static_cast<size_t>(p * static_cast<double>(lru_changes.size())));
    std::printf("%-10.1f %12.4f %12.4f\n", p, lru_changes[idx], lfu_changes[idx]);
  }
  std::printf("# workloads whose best algorithm changes with client count: %d/%d "
              "(paper: 36%%)\n",
              best_changes, num_workloads);

  std::printf("\n# Figure 5b: example trace whose best algorithm flips with concurrency\n");
  // Pick the first suite workload where the winner at 1 client differs from
  // the winner at 512 clients (the paper's example FIU trace behaves so).
  int example_index = 7;
  for (int w = 0; w < num_workloads; ++w) {
    const workload::Trace t = workload::MakeSuiteWorkload(w, requests, footprint, 11);
    const size_t cap = footprint / 10;
    const bool lfu_at_1 = hit_rate(t, cap, policy::PrecisePolicyKind::kLfu, 1) >
                          hit_rate(t, cap, policy::PrecisePolicyKind::kLru, 1);
    const bool lfu_at_512 = hit_rate(t, cap, policy::PrecisePolicyKind::kLfu, 512) >
                            hit_rate(t, cap, policy::PrecisePolicyKind::kLru, 512);
    if (lfu_at_1 != lfu_at_512) {
      example_index = w;
      break;
    }
  }
  std::printf("# suite workload %d\n", example_index);
  std::printf("%-10s %10s %10s %8s\n", "clients", "lru_hit", "lfu_hit", "best");
  const workload::Trace example =
      workload::MakeSuiteWorkload(example_index, requests * 2, footprint, 11);
  for (const int clients : {1, 4, 16, 64, 256, 512}) {
    const double lru = hit_rate(example, footprint / 10, policy::PrecisePolicyKind::kLru, clients);
    const double lfu = hit_rate(example, footprint / 10, policy::PrecisePolicyKind::kLfu, clients);
    std::printf("%-10d %10.4f %10.4f %8s\n", clients, lru, lfu, lru >= lfu ? "LRU" : "LFU");
  }
  return 0;
}
