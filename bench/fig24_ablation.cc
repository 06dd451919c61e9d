// Figure 24: contribution of each technique, measured by disabling them one
// at a time on the webmail-like workload (no miss penalty):
//   SFHT - sample-friendly hash table (metadata co-located with slots)
//   LWH  - lightweight (embedded) eviction history
//   LWU  - lazy weight updates
//   FC   - frequency-counter cache
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"clients", "footprint", "requests"});
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 150000, 1, bench::kMaxCount);
  const uint64_t footprint = flags.GetInt<uint64_t>("footprint", 16000, 1, bench::kMaxCount);
  // Enough clients to put the MN RNIC near saturation: the techniques save
  // messages, so their contribution shows when the message rate binds.
  const int clients = flags.GetInt<int>("clients", 128, 1, bench::kMaxClients);

  const workload::Trace trace = workload::MakeNamedTrace("webmail", requests, footprint, 24);
  const uint64_t capacity = workload::Footprint(trace) / 10;

  bench::PrintHeader("Figure 24", "ablation: disable one technique at a time (webmail-like)");
  std::printf("%-22s %12s %10s %10s %12s\n", "configuration", "tput_mops", "hit_rate",
              "p99_us", "vs_full");

  sim::RunOptions options;
  options.warmup_fraction = 0.3;
  auto run = [&](const char* label, auto mutate, double full_tput) -> double {
    bench::System system = bench::ParseSystem("ditto");
    mutate(system.ditto);
    const sim::RunResult r =
        bench::RunSystem(system, trace, bench::MakePoolConfig(capacity), clients, options);
    const double rel = full_tput > 0.0 ? r.throughput_mops / full_tput : 1.0;
    std::printf("%-22s %12.4f %10.4f %10.1f %11.1f%%\n", label, r.throughput_mops,
                r.hit_rate, r.p99_us, rel * 100.0);
    return r.throughput_mops;
  };

  const double full = run("ditto (full)", [](core::DittoConfig&) {}, 0.0);
  run("- SFHT", [](core::DittoConfig& c) { c.enable_sfht = false; }, full);
  run("- LWH", [](core::DittoConfig& c) { c.enable_history = false; }, full);
  run("- LWU", [](core::DittoConfig& c) { c.enable_lazy_weights = false; }, full);
  run("- FC cache", [](core::DittoConfig& c) { c.enable_fc_cache = false; }, full);
  run("- all four", [](core::DittoConfig& c) {
    c.enable_sfht = false;
    c.enable_history = false;
    c.enable_lazy_weights = false;
    c.enable_fc_cache = false;
  }, full);

  std::printf("\n# expected shape (paper): SFHT contributes ~42%% throughput, LWH ~13%%,\n"
              "# LWU+FC ~4%%; each ablation lands below the full configuration.\n");
  return 0;
}
