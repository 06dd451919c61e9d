// Figure 1: throughput and tail latency of a sharded Redis cluster while
// scaling 32 -> 64 -> 32 nodes under YCSB-C (10M 256-B pairs).
//
// Reproduces the paper's observations: migration takes minutes, throughput
// dips and p99 rises while migrating, and resource reclamation after the
// shrink is delayed by the reverse migration.
#include <cstdio>

#include "baselines/redis_model.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv, {"keys", "shards"});

  baselines::RedisModelConfig config;
  config.initial_shards = flags.GetInt<int>("shards", 32, 1, bench::kMaxNodes);
  config.num_keys = flags.GetInt<uint64_t>("keys", 10'000'000, 1, bench::kMaxCount);
  baselines::RedisModel model(config);

  std::printf("# Figure 1: Redis elasticity under YCSB-C (%llu keys, 256B)\n",
              static_cast<unsigned long long>(config.num_keys));
  std::printf("# scale-out to 64 at t=180s; scale-in to 32 at 180s after cutover\n");
  std::printf("%8s %8s %10s %9s %9s %10s %7s\n", "time_s", "shards", "tput_mops", "p50_us",
              "p99_us", "migrating", "target");

  const double dt = 15.0;
  bool scaled_out = false;
  bool scaled_in = false;
  double stable_since = -1.0;
  double scale_out_start = 0.0;
  double scale_out_done = 0.0;
  double scale_in_start = 0.0;
  double scale_in_done = 0.0;

  for (double t = 0.0; t <= 1500.0; t += dt) {
    if (!scaled_out && t >= 180.0) {
      model.Resize(64);
      scaled_out = true;
      scale_out_start = t;
    }
    const baselines::RedisSample s = model.Tick(dt);
    if (scaled_out && scale_out_done == 0.0 && s.active_shards == 64) {
      scale_out_done = s.time_s;
      stable_since = s.time_s;
    }
    if (scaled_out && !scaled_in && stable_since > 0.0 && s.time_s >= stable_since + 180.0) {
      model.Resize(32);
      scaled_in = true;
      scale_in_start = s.time_s;
    }
    if (scaled_in && scale_in_done == 0.0 && s.active_shards == 32) {
      scale_in_done = s.time_s;
    }
    std::printf("%8.0f %8d %10.3f %9.1f %9.1f %10s %7d\n", s.time_s, s.active_shards,
                s.throughput_mops, s.p50_us, s.p99_us, s.migrating ? "yes" : "no",
                s.target_shards);
  }

  std::printf("\n# summary\n");
  std::printf("scale-out migration: %.1f s (paper: 5.3 min = 318 s)\n",
              scale_out_done - scale_out_start);
  std::printf("scale-in  reclamation delay: %.1f s (paper: 5.6 min = 336 s)\n",
              scale_in_done - scale_in_start);
  std::printf("steady tput 32 shards: %.2f Mops, 64 shards: %.2f Mops\n",
              model.SteadyThroughputMops(32), model.SteadyThroughputMops(64));
  return 0;
}
