#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>

#include "bench_common.h"
#include "sim/adapters.h"
#include "sim/runner.h"
#include "workloads/synthetic_traces.h"
#include "workloads/ycsb.h"

namespace ditto::sim {
namespace {

using policy::PrecisePolicyKind;

double ExactLruHitRate(const workload::Trace& trace, uint64_t capacity, int clients = 1) {
  return ReplayExact(trace, PrecisePolicyKind::kLru, capacity, RunOptions{}, clients).hit_rate;
}

TEST(HitRateSimTest, CapacityMonotonicity) {
  const workload::Trace t = workload::MakeStationaryZipf(50000, 5000, 0.99, 1);
  const double small = ExactLruHitRate(t, 100);
  const double medium = ExactLruHitRate(t, 500);
  const double large = ExactLruHitRate(t, 2500);
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
}

TEST(HitRateSimTest, FullCapacityMeansOnlyColdMisses) {
  const workload::Trace t = workload::MakeStationaryZipf(20000, 1000, 0.99, 1);
  const double rate = ExactLruHitRate(t, 1000);
  // Footprint fits: only compulsory misses.
  EXPECT_GT(rate, 0.9);
}

TEST(HitRateSimTest, InterleavingShiftsHitRate) {
  // A drifting workload is order-sensitive: concurrent-client interleaving
  // must change the measured hit rate (the Figure 5 effect).
  const workload::Trace t =
      workload::MakeShiftingHotSet(100000, 10000, 1000, 2000, 500, 1);
  const double h1 = ExactLruHitRate(t, 800, 1);
  const double h64 = ExactLruHitRate(t, 800, 64);
  EXPECT_NE(h1, h64);
}

TEST(HitRateSimTest, RelativeChangeIsNonNegativeAndBounded) {
  const workload::Trace t =
      workload::MakeShiftingHotSet(50000, 5000, 500, 1000, 250, 1);
  const double change =
      RelativeHitRateChange(t, 400, PrecisePolicyKind::kLru, {1, 8, 64});
  EXPECT_GE(change, 0.0);
  EXPECT_LE(change, 1.0);
}

workload::Trace YcsbCTrace(uint64_t keys, uint64_t requests, uint64_t seed) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = keys;
  return workload::MakeYcsbTrace(ycsb, requests, seed);
}

// Integer counts recorded from the three exact replays ReplayExact replaced:
// the motivation study's interleaved hit-rate replay, the warm and
// cold-restart LRU oracle of the elasticity bench, and the windowed
// cold-restart oracle of the lifecycle bench. Any change to the interleave
// (its seed or burst model), the schedule arithmetic or the window cut shows
// up here.
TEST(ExactReplayTest, MatchesRecordedCounts) {
  const workload::Trace suite = workload::MakeSuiteWorkload(7, 20000, 2000, 11);
  const struct {
    PrecisePolicyKind kind;
    uint64_t hits[3];  // at 1, 8 and 512 clients
  } expected[] = {{PrecisePolicyKind::kLru, {7534, 7388, 6974}},
                  {PrecisePolicyKind::kLfu, {8331, 8393, 8615}},
                  {PrecisePolicyKind::kFifo, {6779, 6589, 6235}},
                  {PrecisePolicyKind::kRandom, {6792, 6644, 6187}}};
  const int clients[] = {1, 8, 512};
  for (const auto& row : expected) {
    for (size_t i = 0; i < 3; ++i) {
      const RunResult r = ReplayExact(suite, row.kind, 200, RunOptions{}, clients[i]);
      EXPECT_EQ(r.gets, suite.size());
      EXPECT_EQ(r.hits, row.hits[i]) << static_cast<int>(row.kind) << " x" << clients[i];
      EXPECT_EQ(r.hits + r.misses, r.gets);
    }
  }

  // elastic_scaling's shape: 20% warmup, shrink to a third at 25% of the
  // measured replay, restore at 62.5%.
  const workload::Trace trace = YcsbCTrace(4000, 40000, 13);
  RunOptions elastic;
  elastic.warmup_fraction = 0.2;
  elastic.resize_schedule = {{0.25, 333}, {0.625, 1000}};
  const uint64_t phase_gets[] = {8000, 12000, 12000};
  const uint64_t warm_hits[] = {6813, 7745, 10009};
  const uint64_t cold_hits[] = {6813, 7662, 9781};
  for (const bool cold : {false, true}) {
    const RunResult r =
        ReplayExact(trace, PrecisePolicyKind::kLru, 1000, elastic, /*num_clients=*/1, cold);
    ASSERT_EQ(r.phases.size(), 3u);
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(r.phases[p].gets, phase_gets[p]) << "cold=" << cold << " phase " << p;
      EXPECT_EQ(r.phases[p].hits, (cold ? cold_hits : warm_hits)[p])
          << "cold=" << cold << " phase " << p;
    }
  }

  // cluster_lifecycle's shape: one crash at 50% of the measured replay; the
  // resize step at 0 keeps the capacity, so only the crash restarts the cache.
  RunOptions crash;
  crash.warmup_fraction = 0.2;
  crash.resize_schedule = {{0.0, 1000}};
  crash.lifecycle_schedule = {{0.5, LifecycleKind::kCrash, 3}};
  crash.recovery_window_ops = 2000;
  const uint64_t window_hits[] = {1686, 1710, 1717, 1700, 1684, 1697, 1685, 1701,
                                  1308, 1650, 1709, 1682, 1695, 1699, 1699, 1721};
  const RunResult r = ReplayExact(trace, PrecisePolicyKind::kLru, 1000, crash);
  ASSERT_EQ(r.recovery.size(), std::size(window_hits));
  for (size_t w = 0; w < r.recovery.size(); ++w) {
    EXPECT_EQ(r.recovery[w].gets, 2000u) << "window " << w;
    EXPECT_EQ(r.recovery[w].hits, window_hits[w]) << "window " << w;
  }
}

// On a pure-Get trace RunTrace and ReplayExact resolve one RunOptions into
// the same measured region, phases and recovery windows, so an exact
// baseline can be read phase for phase and window for window against a run.
TEST(ExactReplayTest, PhasesAlignWithRunTrace) {
  const workload::Trace trace = YcsbCTrace(3000, 30000, 5);
  RunOptions options;
  options.warmup_fraction = 0.25;
  options.resize_schedule = {{0.3, 400}, {0.7, 900}};
  options.recovery_window_ops = 1500;

  dm::PoolConfig pool;
  pool.memory_bytes = 32 << 20;
  pool.num_buckets = 4096;
  pool.capacity_objects = 900;
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  bench::DittoDeployment d = bench::MakeDitto(pool, config, 4);
  const RunResult run = RunTrace(d.raw, trace, d.nodes, options);
  const RunResult exact = ReplayExact(trace, PrecisePolicyKind::kLru, 900, options, 4);

  ASSERT_EQ(run.phases.size(), 3u);
  ASSERT_EQ(exact.phases.size(), run.phases.size());
  for (size_t p = 0; p < run.phases.size(); ++p) {
    EXPECT_EQ(exact.phases[p].capacity_objects, run.phases[p].capacity_objects) << p;
    EXPECT_EQ(exact.phases[p].ops, run.phases[p].ops) << p;
  }
  EXPECT_EQ(exact.ops, run.ops);
  ASSERT_EQ(exact.recovery.size(), run.recovery.size());
  for (size_t w = 0; w < run.recovery.size(); ++w) {
    EXPECT_EQ(exact.recovery[w].gets, run.recovery[w].gets) << "window " << w;
  }
}

class RunnerTest : public ::testing::Test {
 protected:
  static dm::PoolConfig PoolFor(uint64_t capacity) {
    dm::PoolConfig config;
    config.memory_bytes = 32 << 20;
    config.num_buckets = 8192;
    config.capacity_objects = capacity;
    return config;  // cost model ON: the runner is about timing
  }
};

TEST_F(RunnerTest, ThroughputAndHitRateReported) {
  dm::MemoryPool pool(PoolFor(20000));
  core::DittoConfig config;
  config.experts = {"lru"};
  core::DittoServer server(&pool, config);

  constexpr int kClients = 4;
  std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
  std::vector<std::unique_ptr<DittoCacheClient>> clients;
  std::vector<CacheClient*> raw;
  for (int i = 0; i < kClients; ++i) {
    ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
    clients.push_back(std::make_unique<DittoCacheClient>(&pool, ctxs.back().get(), config));
    raw.push_back(clients.back().get());
  }

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 5000;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, 20000, 1);

  RunOptions options;
  options.warmup_fraction = 0.25;
  const RunResult result = RunTrace(raw, trace, &pool.node(), options);

  EXPECT_GT(result.ops, 10000u);
  EXPECT_GT(result.throughput_mops, 0.0);
  EXPECT_GT(result.hit_rate, 0.5) << "after warmup most zipf traffic hits";
  EXPECT_GT(result.p50_us, 1.0) << "a Get costs at least two RTTs";
  EXPECT_LE(result.p50_us, result.p99_us);
  EXPECT_GT(result.nic_messages, result.ops) << "every op issues multiple verbs";
}

TEST_F(RunnerTest, MissPenaltyCrushesThroughput) {
  dm::MemoryPool pool(PoolFor(500));
  core::DittoConfig config;
  config.experts = {"lru"};
  core::DittoServer server(&pool, config);

  rdma::ClientContext ctx(0);
  DittoCacheClient client(&pool, &ctx, config);
  std::vector<CacheClient*> raw = {&client};

  // Footprint 10x capacity: most Gets miss and pay 500us.
  const workload::Trace trace = workload::MakeStationaryZipf(5000, 5000, 0.2, 1);
  RunOptions options;
  options.miss_penalty_us = 500.0;
  const RunResult result = RunTrace(raw, trace, &pool.node(), options);
  EXPECT_LT(result.hit_rate, 0.5);
  EXPECT_LT(result.throughput_mops, 0.01) << "500us penalties dominate";
}

TEST_F(RunnerTest, ReplayIsDeterministic) {
  // Identical deployments replaying the same trace must produce bit-identical
  // results: the runner interleaves clients with a seeded model in virtual
  // time, so nothing depends on host scheduling.
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 3000;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, 15000, 3);

  const auto run_once = [&] {
    dm::MemoryPool pool(PoolFor(1000));
    core::DittoConfig config;
    config.experts = {"lru", "lfu"};
    core::DittoServer server(&pool, config);
    std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
    std::vector<std::unique_ptr<DittoCacheClient>> clients;
    std::vector<CacheClient*> raw;
    for (int i = 0; i < 8; ++i) {
      ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
      clients.push_back(std::make_unique<DittoCacheClient>(&pool, ctxs.back().get(), config));
      raw.push_back(clients.back().get());
    }
    RunOptions options;
    options.warmup_fraction = 0.2;
    options.miss_penalty_us = 500.0;
    return RunTrace(raw, trace, &pool.node(), options);
  };

  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.sets, b.sets);
  EXPECT_EQ(a.nic_messages, b.nic_messages);
  EXPECT_DOUBLE_EQ(a.throughput_mops, b.throughput_mops);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
}

TEST_F(RunnerTest, VariableValueSizesAreDeterministicPerKey) {
  RunOptions options;
  options.value_bytes = 64;
  options.value_bytes_max = 960;
  std::set<size_t> sizes;
  for (uint64_t key = 0; key < 200; ++key) {
    const size_t a = options.ValueBytesFor(key);
    EXPECT_EQ(a, options.ValueBytesFor(key)) << "size must be a pure function of the key";
    EXPECT_GE(a, options.value_bytes);
    EXPECT_LE(a, options.value_bytes_max);
    sizes.insert(a);
  }
  EXPECT_GT(sizes.size(), 50u) << "sizes must actually vary across keys";
}

TEST_F(RunnerTest, MoreClientsMoreThroughputUntilNicBound) {
  dm::MemoryPool pool(PoolFor(20000));
  core::DittoConfig config;
  config.experts = {"lru"};
  core::DittoServer server(&pool, config);

  workload::YcsbConfig ycsb;
  ycsb.workload = 'C';
  ycsb.num_keys = 5000;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, 30000, 1);

  auto run_with = [&](int n) {
    std::vector<std::unique_ptr<rdma::ClientContext>> ctxs;
    std::vector<std::unique_ptr<DittoCacheClient>> clients;
    std::vector<CacheClient*> raw;
    for (int i = 0; i < n; ++i) {
      ctxs.push_back(std::make_unique<rdma::ClientContext>(i));
      clients.push_back(std::make_unique<DittoCacheClient>(&pool, ctxs.back().get(), config));
      raw.push_back(clients.back().get());
    }
    RunOptions options;
    options.warmup_fraction = 0.2;
    return RunTrace(raw, trace, &pool.node(), options).throughput_mops;
  };
  const double t1 = run_with(1);
  const double t8 = run_with(8);
  EXPECT_GT(t8, t1 * 3.0) << "throughput must scale with clients before the NIC saturates";
}

}  // namespace
}  // namespace ditto::sim
