// Figure 18: box plot of the hit rates of Ditto, max(Ditto-LRU, Ditto-LFU)
// and min(Ditto-LRU, Ditto-LFU), each normalized over random eviction, on a
// 33-workload suite (IBM/CloudPhysics-like). Prints box statistics
// (min/q1/median/q3/max).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace {

struct Box {
  double min, q1, median, q3, max;
};

Box BoxOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) { return v[static_cast<size_t>(q * (v.size() - 1))]; };
  return Box{v.front(), at(0.25), at(0.5), at(0.75), v.back()};
}

void PrintBox(const char* label, const Box& b) {
  std::printf("%-22s %8.3f %8.3f %8.3f %8.3f %8.3f\n", label, b.min, b.q1, b.median, b.q3,
              b.max);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "footprint", "requests", "workloads"});
  const int num_workloads = flags.GetInt<int>("workloads", 33, 1, 1024);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 60000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 8000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 8, 1, bench::kMaxClients);

  bench::PrintHeader("Figure 18",
                     "relative hit rates (normalized over random eviction), 33 workloads");

  sim::RunOptions options;
  options.warmup_fraction = 0.3;
  std::vector<double> ditto_rel;
  std::vector<double> best_rel;
  std::vector<double> worst_rel;
  for (int w = 0; w < num_workloads; ++w) {
    const workload::Trace trace = workload::MakeSuiteWorkload(w, requests, footprint, 23);
    const uint64_t capacity = workload::Footprint(trace) / 10;
    const double random_rate =
        sim::ReplayExact(trace, policy::PrecisePolicyKind::kRandom, capacity, options).hit_rate;
    const double base = std::max(random_rate, 1e-3);
    auto hit_rate = [&](const char* system) {
      return bench::RunSystem(bench::ParseSystem(system), trace, bench::MakePoolConfig(capacity),
                              clients, options)
          .hit_rate;
    };
    const double ditto = hit_rate("ditto");
    const double lru = hit_rate("ditto-lru");
    const double lfu = hit_rate("ditto-lfu");
    ditto_rel.push_back(ditto / base);
    best_rel.push_back(std::max(lru, lfu) / base);
    worst_rel.push_back(std::min(lru, lfu) / base);
  }

  std::printf("%-22s %8s %8s %8s %8s %8s\n", "series", "min", "q1", "median", "q3", "max");
  PrintBox("ditto", BoxOf(ditto_rel));
  PrintBox("max(lru,lfu)", BoxOf(best_rel));
  PrintBox("min(lru,lfu)", BoxOf(worst_rel));

  int above_worst = 0;
  for (int i = 0; i < num_workloads; ++i) {
    if (ditto_rel[i] >= worst_rel[i] - 0.02) {
      above_worst++;
    }
  }
  std::printf("\n# ditto >= min(lru,lfu) on %d/%d workloads "
              "(paper: ditto's box approaches max(lru,lfu))\n",
              above_worst, num_workloads);
  return 0;
}
