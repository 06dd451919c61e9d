// Verb pipeline tests.
//
// 1. Timeline unit tests: ops on detached per-op timelines charge their
//    verbs to the op cursor, overlapping ops drain at the NIC message rate,
//    and the shared in-flight window retires in issue order.
// 2. Replay equivalence: depth-1 replay is bit-identical (hit rate, verb
//    counts, virtual time) to a recorded blocking run; hit rate is invariant
//    across depths 1/4/16; throughput at depth 8 is at least 2x depth 1 at
//    identical hit rate; a client without a per-op timeline pays every miss
//    penalty.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/shard_lru.h"
#include "bench_common.h"
#include "sim/adapters.h"
#include "sim/pipeline_window.h"
#include "sim/runner.h"
#include "workloads/ycsb.h"

namespace ditto {
namespace {

using rdma::ClientContext;
using rdma::CostModel;
using rdma::RemoteNode;
using rdma::Verbs;

// ---------------------------------------------------------------------------
// Per-op timeline unit tests
// ---------------------------------------------------------------------------

TEST(PipelinedOpTest, DetachedTimelineChargesCursorNotClock) {
  const CostModel cost;
  RemoteNode node(1 << 20, cost);
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);

  verbs.BeginOp(/*start_ns=*/5000);
  EXPECT_TRUE(verbs.in_op());
  uint64_t dst = 0;
  verbs.Read(64, &dst, 8);  // blocking verb: waits on the op cursor
  EXPECT_EQ(ctx.clock().busy_ns(), 0u) << "waits inside an op land on the cursor";
  const uint64_t complete_ns = verbs.EndOp();
  EXPECT_FALSE(verbs.in_op());
  // An uncontended READ completes one RTT (plus 8 B of wire time, sub-ns
  // here) after the op's start cursor.
  EXPECT_EQ(complete_ns, 5000u + static_cast<uint64_t>(cost.read_rtt_us * 1000.0));
  EXPECT_EQ(ctx.clock().busy_ns(), 0u) << "EndOp never touches the real clock";
}

TEST(PipelinedOpTest, OverlappingOpsChargeNicOccupancy) {
  const CostModel cost;
  RemoteNode node(1 << 20, cost);
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);

  // All ops start at client time 0, so the i-th one's READ observes i
  // message-slots of NIC backlog: completions are spaced by exactly the NIC
  // per-message service time — a deep pipeline drains at the NIC rate, not
  // infinitely fast.
  constexpr int kOps = 32;
  const auto service_ns = static_cast<uint64_t>(cost.NicServiceNs(1.0));
  uint64_t prev_ns = 0;
  for (int i = 0; i < kOps; ++i) {
    verbs.BeginOp(0);
    uint64_t dst = 0;
    verbs.Read(64, &dst, 8);
    const uint64_t complete_ns = verbs.EndOp();
    if (i > 0) {
      EXPECT_EQ(complete_ns - prev_ns, service_ns)
          << "completion spacing == NIC per-message service time";
    }
    prev_ns = complete_ns;
  }
  EXPECT_EQ(ctx.clock().busy_ns(), 0u) << "detached ops never touch the real clock";
}

// The in-flight window retires in issue order: a full window blocks the
// next issue until its oldest op completes, and an op that completes before
// the clock has already passed it costs nothing more.
TEST(PipelineWindowTest, RetiresOldestFirstAndEndsAtLatestCompletion) {
  VirtualClock clock;
  sim::PipelineWindow window(2);
  EXPECT_EQ(window.Admit(clock), 0u);
  window.Push(500);
  EXPECT_EQ(window.Admit(clock), 0u) << "room left: the clock does not move";
  window.Push(300);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.Admit(clock), 500u) << "full: the oldest (issue order) retires";
  EXPECT_EQ(window.size(), 1u);
  window.Push(900);
  EXPECT_EQ(window.Admit(clock), 500u) << "the next oldest completed at 300, already past";
  window.Push(700);
  window.RetireAll(clock);
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(clock.busy_ns(), 900u) << "drained: the clock is at the latest completion";

  // The ring wraps without losing order.
  for (uint64_t t = 1000; t < 1100; t += 10) {
    window.Admit(clock);
    window.Push(t);
  }
  window.RetireAll(clock);
  EXPECT_EQ(clock.busy_ns(), 1090u);
}

// ---------------------------------------------------------------------------
// Replay equivalence
// ---------------------------------------------------------------------------

bench::DittoDeployment MakeDeployment(uint64_t capacity, int num_clients) {
  dm::PoolConfig pool_config;
  pool_config.memory_bytes = 32 << 20;
  pool_config.num_buckets = 4096;
  pool_config.capacity_objects = capacity;  // cost model ON: timing matters here
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  return bench::MakeDitto(pool_config, config, num_clients);
}

uint64_t TotalVerbs(const bench::DittoDeployment& d) {
  uint64_t total = 0;
  for (const auto& ctx : d.ctxs) {
    total += ctx->reads + ctx->writes + ctx->atomics + ctx->rpcs;
  }
  return total;
}

workload::Trace TestTrace(char workload, uint64_t requests) {
  workload::YcsbConfig ycsb;
  ycsb.workload = workload;
  ycsb.num_keys = 3000;
  const uint64_t seed = 7;
  return workload::MakeYcsbTrace(ycsb, requests, seed);
}

class PipelineReplayTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kCapacity = 800;
  static constexpr int kClients = 3;

  struct Run {
    sim::RunResult result;
    uint64_t verbs = 0;
  };

  static Run Replay(const workload::Trace& trace, const sim::RunOptions& options) {
    bench::DittoDeployment d = MakeDeployment(kCapacity, kClients);
    Run run;
    run.result = sim::RunTrace(d.raw, trace, d.nodes, options);
    run.verbs = TotalVerbs(d);
    return run;
  }
};

// Depth 1 is blocking replay: a window of one retires each op right before
// the next issues. The constants were recorded from the blocking replay loop
// the pipelined window replaced (same trace, deployment, and cost model), so
// depth 1 must reproduce it op for op, verb for verb, nanosecond for
// nanosecond.
TEST_F(PipelineReplayTest, Depth1BitIdenticalToRecordedBlockingRun) {
  const workload::Trace trace = TestTrace('A', 40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.1;
  options.miss_penalty_us = 50.0;

  const Run depth1 = Replay(trace, options);

  EXPECT_EQ(depth1.result.ops, 36000u);
  EXPECT_EQ(depth1.result.hits, 15483u);
  EXPECT_EQ(depth1.result.misses, 2524u);
  EXPECT_EQ(depth1.result.gets, 18007u);
  EXPECT_EQ(depth1.result.sets, 20517u);
  EXPECT_EQ(depth1.result.evictions, 5183u);
  EXPECT_EQ(depth1.verbs, 412652u) << "identical verb counts";
  EXPECT_EQ(depth1.result.nic_messages, 386378u);
  EXPECT_EQ(depth1.result.nic_doorbells, 386372u);
  EXPECT_DOUBLE_EQ(depth1.result.hit_rate, 0.85983228744377183);
  // Virtual time is identical, not merely close.
  EXPECT_DOUBLE_EQ(depth1.result.elapsed_s, 0.27853776899999999);
  EXPECT_DOUBLE_EQ(depth1.result.p50_us, 6.9783058485986631);
  EXPECT_DOUBLE_EQ(depth1.result.p99_us, 205.35250264571462);
  EXPECT_DOUBLE_EQ(depth1.result.throughput_mops, 0.12924638597216595);
}

TEST_F(PipelineReplayTest, HitRateInvariantAcrossDepths) {
  const workload::Trace trace = TestTrace('A', 40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.1;
  options.miss_penalty_us = 50.0;

  options.pipeline_depth = 1;
  const Run d1 = Replay(trace, options);
  options.pipeline_depth = 4;
  const Run d4 = Replay(trace, options);
  options.pipeline_depth = 16;
  const Run d16 = Replay(trace, options);

  // Pipelining overlaps virtual time only; cache state evolution — and with
  // it every counter — is identical at any depth.
  EXPECT_EQ(d4.result.hits, d1.result.hits);
  EXPECT_EQ(d16.result.hits, d1.result.hits);
  EXPECT_EQ(d4.result.misses, d1.result.misses);
  EXPECT_EQ(d16.result.misses, d1.result.misses);
  EXPECT_EQ(d4.result.evictions, d1.result.evictions);
  EXPECT_EQ(d16.result.evictions, d1.result.evictions);
  EXPECT_EQ(d4.result.hit_rate, d1.result.hit_rate);
  EXPECT_EQ(d16.result.hit_rate, d1.result.hit_rate);
  EXPECT_EQ(d4.verbs, d1.verbs);
  EXPECT_EQ(d16.verbs, d1.verbs);
  EXPECT_EQ(d4.result.nic_messages, d1.result.nic_messages);
  EXPECT_EQ(d16.result.nic_messages, d1.result.nic_messages);
}

TEST_F(PipelineReplayTest, Depth8AtLeastTwiceDepth1Throughput) {
  const workload::Trace trace = TestTrace('C', 40000);
  sim::RunOptions options;
  options.warmup_fraction = 0.1;

  options.pipeline_depth = 1;
  const Run d1 = Replay(trace, options);
  options.pipeline_depth = 8;
  const Run d8 = Replay(trace, options);

  EXPECT_EQ(d8.result.hit_rate, d1.result.hit_rate);
  EXPECT_GE(d8.result.throughput_mops, 2.0 * d1.result.throughput_mops)
      << "8 in-flight ops must at least double simulated throughput";
  EXPECT_GT(d1.result.throughput_mops, 0.0);
}

TEST_F(PipelineReplayTest, BaselineClientsDegradeToDepth1IncludingMissPenalty) {
  // Baselines have no per-op timeline: at any depth the fallback
  // ExecutePipelined must reproduce depth-1 behaviour exactly — including
  // the miss penalty, which the issue loop encodes as the chained
  // re-insert's start offset (regression: the fallback used to ignore
  // start_ns, silently dropping every penalty from elapsed time). Depth 1
  // runs through the same fallback, so comparing depths alone cannot see a
  // dropped penalty: the lone client's elapsed time must cover them all.
  const workload::Trace trace = TestTrace('C', 20000);
  auto run = [&](size_t depth) {
    dm::PoolConfig pool_config;
    pool_config.memory_bytes = 16 << 20;
    pool_config.num_buckets = 1024;
    pool_config.capacity_objects = 500;
    auto pool = std::make_unique<dm::MemoryPool>(pool_config);
    baselines::ShardLruConfig config;
    auto dir = std::make_unique<baselines::ShardLruDirectory>(pool.get(), config);
    ClientContext ctx(0);
    baselines::ShardLruClient client(pool.get(), dir.get(), &ctx);
    sim::RunOptions options;
    options.miss_penalty_us = 500.0;
    options.pipeline_depth = depth;
    return sim::RunTrace({&client}, trace, &pool->node(), options);
  };
  const sim::RunResult d1 = run(1);
  const sim::RunResult d8 = run(8);
  EXPECT_EQ(d8.hit_rate, d1.hit_rate);
  EXPECT_EQ(d8.elapsed_s, d1.elapsed_s) << "no per-op timeline: no overlap, penalties included";
  EXPECT_EQ(d8.p99_us, d1.p99_us);
  ASSERT_GT(d1.misses, 0u);
  EXPECT_GE(d1.elapsed_s, static_cast<double>(d1.misses) * 500e-6)
      << "every miss pays its 500 us penalty";
}

TEST_F(PipelineReplayTest, ShardedEngineDepthInvariantAcrossThreadCounts) {
  // The pipelined issue loop lives in the per-shard OpDispatcher, so the
  // sharded engine's thread-count invariance must survive pipelining.
  const workload::Trace trace = TestTrace('B', 30000);
  auto run_sharded = [&](int threads) {
    constexpr int kShards = 4;
    dm::PoolConfig pool_config;
    pool_config.memory_bytes = 16 << 20;
    pool_config.num_buckets = 1024;
    pool_config.capacity_objects = 200;
    core::DittoConfig config;
    config.experts = {"lru"};
    bench::ShardedEngineDeployment d = bench::MakeShardedEngine(pool_config, config, kShards);
    sim::RunOptions options;
    options.threads = threads;
    options.pipeline_depth = 8;
    return sim::RunTraceSharded(d.raw, trace, d.nodes, options);
  };
  const sim::RunResult t1 = run_sharded(1);
  const sim::RunResult t4 = run_sharded(4);
  EXPECT_EQ(t1.hits, t4.hits);
  EXPECT_EQ(t1.misses, t4.misses);
  EXPECT_EQ(t1.hit_rate, t4.hit_rate);
}

}  // namespace
}  // namespace ditto
