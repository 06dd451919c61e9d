// End-to-end reproduction checks of the paper's core claims, scaled down to
// test sizes:
//   1. Ditto's sampled single-policy variants track their exact counterparts.
//   2. Adaptive Ditto approaches max(Ditto-LRU, Ditto-LFU) on workloads with
//      a clear algorithm affinity.
//   3. On phase-changing workloads, adaptive Ditto beats BOTH fixed experts.
//   4. The cache keeps functioning across runtime capacity changes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"

namespace ditto {
namespace {

bench::DittoDeployment MakeDeployment(uint64_t capacity, const std::vector<std::string>& experts,
                                      int num_clients) {
  dm::PoolConfig pool_config;
  pool_config.memory_bytes = 64 << 20;
  // ~4 slots per cached object so samples are dense.
  pool_config.num_buckets = 1;
  while (pool_config.num_buckets * 8 < capacity * 4) {
    pool_config.num_buckets *= 2;
  }
  pool_config.capacity_objects = capacity;
  pool_config.cost = rdma::CostModel::Disabled();
  core::DittoConfig config;
  config.experts = experts;
  return bench::MakeDitto(pool_config, config, num_clients);
}

constexpr double kWarmup = 0.3;

double RunHitRate(const workload::Trace& trace, uint64_t capacity,
                  const std::vector<std::string>& experts, int num_clients = 2,
                  double warmup = kWarmup) {
  bench::DittoDeployment d = MakeDeployment(capacity, experts, num_clients);
  sim::RunOptions options;
  options.warmup_fraction = warmup;
  const sim::RunResult result = sim::RunTrace(d.raw, trace, d.nodes, options);
  return result.hit_rate;
}

// Exact-policy hit rate over the same measured region as RunHitRate's.
double ExactHitRate(const workload::Trace& trace, uint64_t capacity,
                    policy::PrecisePolicyKind kind) {
  sim::RunOptions options;
  options.warmup_fraction = kWarmup;
  return sim::ReplayExact(trace, kind, capacity, options).hit_rate;
}

constexpr uint64_t kRequests = 120000;
constexpr uint64_t kFootprint = 8000;
constexpr uint64_t kCapacity = 1000;

TEST(IntegrationTest, SampledLruTracksExactLru) {
  const workload::Trace trace =
      workload::MakeShiftingHotSet(kRequests, kFootprint, kFootprint / 10, kRequests / 50,
                                   kFootprint / 20, 3);
  const double sampled = RunHitRate(trace, kCapacity, {"lru"}, 1);
  const double exact = ExactHitRate(trace, kCapacity, policy::PrecisePolicyKind::kLru);
  EXPECT_NEAR(sampled, exact, 0.10) << "5-sample LRU approximates exact LRU";
}

TEST(IntegrationTest, SampledLfuTracksExactLfu) {
  const workload::Trace trace = workload::MakeStationaryZipf(kRequests, kFootprint, 1.0, 3);
  const double sampled = RunHitRate(trace, kCapacity, {"lfu"}, 1);
  const double exact = ExactHitRate(trace, kCapacity, policy::PrecisePolicyKind::kLfu);
  EXPECT_NEAR(sampled, exact, 0.10);
}

TEST(IntegrationTest, AdaptiveApproachesBestExpertOnLfuFriendly) {
  const workload::Trace trace =
      workload::MakeLfuFriendly(kRequests, kFootprint / 2, 0.99, 0.3, 5);
  const double lru = RunHitRate(trace, kCapacity, {"lru"});
  const double lfu = RunHitRate(trace, kCapacity, {"lfu"});
  const double adaptive = RunHitRate(trace, kCapacity, {"lru", "lfu"});
  ASSERT_GT(lfu, lru) << "precondition: the workload must be LFU-friendly";
  const double best = std::max(lru, lfu);
  const double worst = std::min(lru, lfu);
  EXPECT_GT(adaptive, worst + (best - worst) * 0.5)
      << "adaptive must close most of the gap to the better expert";
}

TEST(IntegrationTest, AdaptiveApproachesBestExpertOnLruFriendly) {
  const workload::Trace trace =
      workload::MakeShiftingHotSet(kRequests, kFootprint, kFootprint / 10, kRequests / 60,
                                   kFootprint / 16, 5);
  const double lru = RunHitRate(trace, kCapacity, {"lru"});
  const double lfu = RunHitRate(trace, kCapacity, {"lfu"});
  ASSERT_GT(lru, lfu) << "precondition: the workload must be LRU-friendly";
  const double adaptive = RunHitRate(trace, kCapacity, {"lru", "lfu"});
  const double best = std::max(lru, lfu);
  const double worst = std::min(lru, lfu);
  EXPECT_GT(adaptive, worst + (best - worst) * 0.5);
}

TEST(IntegrationTest, AdaptiveBeatsBothOnChangingWorkload) {
  const workload::Trace trace =
      workload::MakeChangingWorkload(4, kRequests / 4, kFootprint, 5);
  const double lru = RunHitRate(trace, kCapacity, {"lru"}, 2, 0.1);
  const double lfu = RunHitRate(trace, kCapacity, {"lfu"}, 2, 0.1);
  const double adaptive = RunHitRate(trace, kCapacity, {"lru", "lfu"}, 2, 0.1);
  EXPECT_GT(adaptive, std::min(lru, lfu))
      << "adaptive must never be pinned to the losing expert";
  // The paper's Figure 19 claim: on phase-switching workloads the adaptive
  // cache outperforms (or at worst matches) both fixed algorithms.
  EXPECT_GE(adaptive, std::max(lru, lfu) - 0.03);
}

TEST(IntegrationTest, CapacityGrowthImprovesHitRate) {
  const workload::Trace trace = workload::MakeStationaryZipf(kRequests, kFootprint, 0.9, 7);
  const double small = RunHitRate(trace, 500, {"lru", "lfu"});
  const double large = RunHitRate(trace, 4000, {"lru", "lfu"});
  EXPECT_GT(large, small + 0.05);
}

TEST(IntegrationTest, RuntimeCapacityShrinkTakesEffect) {
  bench::DittoDeployment d = MakeDeployment(2000, {"lru", "lfu"}, 1);
  auto& client = *d.clients[0];
  for (int i = 0; i < 2000; ++i) {
    client.Set(workload::KeyString(i), "v");
  }
  const uint64_t count_before = d.pool->cached_objects();
  EXPECT_GT(count_before, 1500u);
  // Shrink the cache at runtime; continued inserts must drain it toward the
  // new capacity.
  d.pool->SetCapacityObjects(500);
  for (int i = 2000; i < 4500; ++i) {
    client.Set(workload::KeyString(i), "v");
  }
  EXPECT_LT(d.pool->cached_objects(), 700u);
}

TEST(IntegrationTest, MultiClientAdaptiveConvergesLikeSingle) {
  const workload::Trace trace = workload::MakeStationaryZipf(kRequests, kFootprint, 1.05, 9);
  const double single = RunHitRate(trace, kCapacity, {"lru", "lfu"}, 1);
  const double multi = RunHitRate(trace, kCapacity, {"lru", "lfu"}, 8);
  EXPECT_NEAR(single, multi, 0.12)
      << "distributed weight updates must not derail adaptivity";
}

TEST(IntegrationTest, TwelveAlgorithmsRunEndToEnd) {
  const workload::Trace trace = workload::MakeNamedTrace("webmail", 20000, 2000, 11);
  for (const std::string& name : policy::AllPolicyNames()) {
    bench::DittoDeployment d = MakeDeployment(300, {name}, 1);
    sim::RunOptions options;
    options.warmup_fraction = 0.2;
    const sim::RunResult result = sim::RunTrace(d.raw, trace, d.nodes, options);
    EXPECT_GT(result.ops, 0u) << name;
    EXPECT_GE(result.hit_rate, 0.0) << name;
    EXPECT_GT(d.clients[0]->ditto().stats().evictions, 0u) << name;
  }
}

// Every system name a figure prints parses to the configuration the paper
// names and replays end to end through the figure cell.
TEST(FigureCellTest, EveryFigureSystemParsesAndRuns) {
  std::vector<std::string> names = {"ditto", "ditto-lru", "ditto-lfu", "cm-lru", "cm-lfu",
                                    "kvs",   "kvc",       "kvc-s",     "shard-lru"};
  const std::vector<std::string>& policies = policy::AllPolicyNames();
  names.insert(names.end(), policies.begin(), policies.end());
  const workload::Trace trace = workload::MakeNamedTrace("webmail", 4000, 1000, 3);
  sim::RunOptions options;
  options.warmup_fraction = 0.2;
  for (const std::string& name : names) {
    const bench::System system = bench::ParseSystem(name);
    EXPECT_EQ(system.name, name);
    const sim::RunResult r =
        bench::RunSystem(system, trace, bench::MakePoolConfig(100, 1, /*costed=*/false), 2,
                         options, /*preload=*/true);
    EXPECT_GT(r.gets, 0u) << name;
    EXPECT_GT(r.hits, 0u) << name;
  }
}

TEST(FigureCellTest, SystemNamesMapToThePaperConfigurations) {
  using Kind = bench::System::Kind;
  EXPECT_EQ(bench::ParseSystem("ditto").ditto.experts, (std::vector<std::string>{"lru", "lfu"}));
  EXPECT_EQ(bench::ParseSystem("ditto-lfu").ditto.experts, std::vector<std::string>{"lfu"});
  EXPECT_EQ(bench::ParseSystem("gdsf").ditto.experts, std::vector<std::string>{"gdsf"});
  const bench::System cm = bench::ParseSystem("cm-lfu");
  EXPECT_EQ(cm.kind, Kind::kCliqueMap);
  EXPECT_EQ(cm.cliquemap.policy, baselines::CmPolicy::kLfu);
  const bench::System kvc = bench::ParseSystem("kvc");
  EXPECT_EQ(kvc.kind, Kind::kShardLru);
  EXPECT_EQ(kvc.shard_lru.num_shards, 1);
  EXPECT_EQ(bench::ParseSystem("kvc-s").shard_lru.num_shards, 32);
  EXPECT_FALSE(bench::ParseSystem("kvs").shard_lru.maintain_list);
  EXPECT_TRUE(bench::ParseSystem("shard-lru").shard_lru.maintain_list);
}

TEST(FigureCellTest, UnknownSystemThrows) {
  for (const char* name : {"", "bogus", "ditto-", "ditto-fifo", "cm-fifo", "KVS"}) {
    EXPECT_THROW(bench::ParseSystem(name), std::invalid_argument) << name;
  }
}

}  // namespace
}  // namespace ditto
