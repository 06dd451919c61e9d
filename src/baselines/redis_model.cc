#include "baselines/redis_model.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace ditto::baselines {
namespace {
// Number of head keys whose Zipf weights are tracked exactly; the remainder
// is treated as uniformly spread tail traffic.
constexpr int kTrackedKeys = 4096;
}  // namespace

RedisModel::RedisModel(const RedisModelConfig& config)
    : config_(config), active_shards_(config.initial_shards), target_shards_(config.initial_shards) {
  // Zipf weight of rank r is 1/r^theta / zeta(n). Approximate zeta(n) with
  // the head sum plus the integral of the tail.
  double head = 0.0;
  top_key_weights_.resize(kTrackedKeys);
  for (int r = 1; r <= kTrackedKeys; ++r) {
    top_key_weights_[r - 1] = 1.0 / std::pow(static_cast<double>(r), config.zipf_theta);
    head += top_key_weights_[r - 1];
  }
  const double n = static_cast<double>(config.num_keys);
  const double tail_integral =
      (std::pow(n, 1.0 - config.zipf_theta) - std::pow(static_cast<double>(kTrackedKeys),
                                                       1.0 - config.zipf_theta)) /
      (1.0 - config.zipf_theta);
  const double zeta = head + tail_integral;
  for (double& w : top_key_weights_) {
    w /= zeta;
  }
  tail_weight_ = tail_integral / zeta;
}

double RedisModel::HottestShardLoad(int shards) const {
  // Hash the tracked hot keys to shards; add the uniform tail share.
  std::vector<double> load(shards, tail_weight_ / static_cast<double>(shards));
  for (int r = 0; r < kTrackedKeys; ++r) {
    const int shard = static_cast<int>(Mix64(static_cast<uint64_t>(r) + 0x5bd1e995) %
                                       static_cast<uint64_t>(shards));
    load[shard] += top_key_weights_[r];
  }
  return *std::max_element(load.begin(), load.end());
}

double RedisModel::SteadyThroughputMops(int shards) const {
  // The hottest shard saturates first: total_tput * hottest_load = shard rate.
  return config_.per_shard_mops / HottestShardLoad(shards);
}

void RedisModel::Resize(int shards) {
  if (shards == target_shards_) {
    return;
  }
  target_shards_ = shards;
  // Fraction of keys that change shards under consistent rehashing.
  const int from = active_shards_;
  const double moved_frac =
      std::abs(shards - from) / static_cast<double>(std::max(shards, from));
  const double moved_keys = moved_frac * static_cast<double>(config_.num_keys);
  // Migration proceeds in parallel across the participating shards but is
  // key-rate bound on each of them.
  const double movers = static_cast<double>(std::min(shards, from));
  migration_remaining_s_ = moved_keys / (config_.migration_keys_per_s_per_shard * movers);
}

void RedisModel::ResizeToCapacityObjects(uint64_t capacity_objects,
                                         uint64_t objects_per_shard) {
  objects_per_shard = std::max<uint64_t>(1, objects_per_shard);
  const uint64_t shards =
      std::max<uint64_t>(1, (capacity_objects + objects_per_shard - 1) / objects_per_shard);
  Resize(static_cast<int>(shards));
}

RedisSample RedisModel::Tick(double dt) {
  time_s_ += dt;
  const bool migrating = migration_remaining_s_ > 0.0;
  if (migrating) {
    migration_remaining_s_ = std::max(0.0, migration_remaining_s_ - dt);
    if (migration_remaining_s_ == 0.0) {
      active_shards_ = target_shards_;  // cutover: new shard map live
    }
  }

  double tput = SteadyThroughputMops(active_shards_);
  double p99 = config_.base_p99_us;
  double p50 = config_.base_p50_us;
  if (migrating) {
    // CPU/network spent moving data: throughput dips, tail latency grows.
    tput *= 1.0 - config_.migration_cpu_overhead * 0.7;
    p99 *= 1.21;
    p50 *= 1.05;
  }
  return RedisSample{time_s_, tput, p50, p99, migrating, active_shards_, target_shards_};
}

}  // namespace ditto::baselines
