// RedisModel: a performance model of a sharded monolithic-server caching
// cluster (ElastiCache-style Redis deployment) used by the elasticity
// experiments (paper Figures 1, 13 and 15).
//
// Each Redis node is one CPU core serving one data shard; keys are hashed to
// shards. Under a skewed workload, the cluster's throughput is bounded by
// its hottest shard. Scaling the node count triggers resharding: keys move
// at a bounded migration rate, consuming CPU and network on the involved
// shards, which reproduces the paper's measured throughput dip, latency
// bump, and minutes-long delay before the new capacity (or reclaimed
// resources) takes effect.
#ifndef DITTO_BASELINES_REDIS_MODEL_H_
#define DITTO_BASELINES_REDIS_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ditto::baselines {

struct RedisModelConfig {
  int initial_shards = 32;
  double per_shard_mops = 0.16;       // single Redis core service rate
  uint64_t num_keys = 10'000'000;
  double zipf_theta = 0.99;
  size_t object_bytes = 256;
  // Redis slot migration is key-rate bound (per-key RESTORE round trips),
  // not bandwidth bound: ~500 keys/s per participating shard reproduces the
  // paper's ~5-minute migration of 5M moved 256-B pairs across 32 shards.
  double migration_keys_per_s_per_shard = 500.0;
  double migration_cpu_overhead = 0.10;  // CPU fraction consumed while migrating
  double base_p99_us = 180.0;
  double base_p50_us = 85.0;
};

struct RedisSample {
  double time_s;
  double throughput_mops;
  double p50_us;
  double p99_us;
  bool migrating;
  int active_shards;   // shards currently serving (old count until cutover)
  int target_shards;
};

class RedisModel {
 public:
  explicit RedisModel(const RedisModelConfig& config);

  // Requests a scale-out/in to `shards` nodes. Migration starts immediately;
  // the new shard map takes effect when migration completes.
  void Resize(int shards);

  // Capacity-oriented resize: a monolithic cluster scales memory by adding
  // or removing whole nodes, so a capacity target in objects maps to the
  // nearest whole shard count (ceil; at least one shard) and pays the same
  // migration before the new capacity takes effect.
  void ResizeToCapacityObjects(uint64_t capacity_objects, uint64_t objects_per_shard);

  // Advances the model by dt seconds and returns the interval's metrics.
  RedisSample Tick(double dt);

  // Seconds of migration remaining (0 when stable).
  double migration_remaining_s() const { return migration_remaining_s_; }
  int active_shards() const { return active_shards_; }

  // Steady-state cluster throughput with `shards` nodes under the skewed
  // workload (bounded by the hottest shard).
  double SteadyThroughputMops(int shards) const;

 private:
  // Fraction of total traffic hitting the hottest of `shards` shards.
  double HottestShardLoad(int shards) const;

  RedisModelConfig config_;
  int active_shards_;
  int target_shards_;
  double migration_remaining_s_ = 0.0;
  double time_s_ = 0.0;
  std::vector<double> top_key_weights_;  // zipf weights of the hottest keys
  double tail_weight_;                   // aggregate weight of all other keys
};

}  // namespace ditto::baselines

#endif  // DITTO_BASELINES_REDIS_MODEL_H_
