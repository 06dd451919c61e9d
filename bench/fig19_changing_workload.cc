// Figure 19: penalized throughput and hit rate on the LeCaR-style synthetic
// changing workload (four phases alternating LFU- and LRU-friendly). Only
// adaptive Ditto can follow the switches: its expert weights flip each phase
// (reported below), so it tracks the per-phase winner while each fixed
// algorithm loses half the phases.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "footprint", "phase_len"});
  const uint64_t phase_len = flags.GetInt<uint64_t>("phase_len", 120000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 10000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 16, 1, bench::kMaxClients);
  constexpr int kPhases = 4;

  const workload::Trace trace =
      workload::MakeChangingWorkload(kPhases, phase_len, footprint, 19);
  // Size the cache at half the hot core of the LFU-friendly phases so the
  // frequency signal matters (the LeCaR setup).
  const uint64_t capacity = footprint / 4;

  bench::PrintHeader("Figure 19", "changing workload (4 phases LFU/LRU-friendly alternating)");

  std::printf("%-12s", "system");
  for (int p = 0; p < kPhases; ++p) {
    std::printf("   phase%d_hit", p);
  }
  std::printf("  overall_hit  ptput_mops\n");

  std::vector<workload::Trace> phases;
  for (int p = 0; p < kPhases; ++p) {
    phases.emplace_back(trace.begin() + p * phase_len, trace.begin() + (p + 1) * phase_len);
  }
  sim::RunOptions options;
  options.miss_penalty_us = 500.0;
  // Replay phase by phase against one persistent deployment so adaptation
  // carries across phase switches (as in the paper's time series).
  const auto replay_phases = [&](auto& d) {
    std::vector<sim::RunResult> results;
    for (const workload::Trace& phase : phases) {
      results.push_back(sim::RunTrace(d.raw, phase, d.nodes, options));
    }
    return results;
  };
  for (const char* system : {"ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu"}) {
    double total_hits = 0.0;
    double total_gets = 0.0;
    double total_tput = 0.0;
    std::printf("%-12s", system);
    for (const sim::RunResult& r : bench::WithSystem(
             bench::ParseSystem(system), bench::MakePoolConfig(capacity), clients, replay_phases)) {
      std::printf("   %10.4f", r.hit_rate);
      total_hits += r.hit_rate * static_cast<double>(r.gets);
      total_gets += static_cast<double>(r.gets);
      total_tput += r.throughput_mops;
    }
    std::printf("   %10.4f  %10.4f\n", total_hits / total_gets, total_tput / kPhases);
  }
  std::printf("\n# expected shape: ditto tracks the per-phase winner (LFU in even phases,\n"
              "# LRU in odd phases) and leads both fixed experts overall.\n");
  return 0;
}
