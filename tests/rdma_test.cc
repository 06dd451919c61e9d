#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "rdma/arena.h"
#include "rdma/nic_model.h"
#include "rdma/node.h"
#include "rdma/verbs.h"

namespace ditto::rdma {
namespace {

TEST(ArenaTest, ReadWriteRoundTrip) {
  MemoryArena arena(4096);
  const std::string data = "hello disaggregated world";
  arena.Write(128, data.data(), data.size());
  std::string out(data.size(), '\0');
  arena.Read(128, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(ArenaTest, UnalignedEdgesPreserveNeighbors) {
  MemoryArena arena(64);
  uint8_t full[16];
  std::memset(full, 0xAA, sizeof(full));
  arena.Write(0, full, sizeof(full));
  // Write 3 bytes at offset 5 (inside the first word, crossing into none).
  const uint8_t patch[3] = {1, 2, 3};
  arena.Write(5, patch, 3);
  uint8_t out[16];
  arena.Read(0, out, sizeof(out));
  EXPECT_EQ(out[4], 0xAA);
  EXPECT_EQ(out[5], 1);
  EXPECT_EQ(out[6], 2);
  EXPECT_EQ(out[7], 3);
  EXPECT_EQ(out[8], 0xAA);
}

TEST(ArenaTest, CompareSwapSemantics) {
  MemoryArena arena(64);
  arena.WriteU64(8, 100);
  EXPECT_EQ(arena.CompareSwap(8, 100, 200), 100u);  // success returns expected
  EXPECT_EQ(arena.ReadU64(8), 200u);
  EXPECT_EQ(arena.CompareSwap(8, 100, 300), 200u);  // failure returns observed
  EXPECT_EQ(arena.ReadU64(8), 200u);
}

TEST(ArenaTest, FetchAddReturnsPrior) {
  MemoryArena arena(64);
  arena.WriteU64(0, 41);
  EXPECT_EQ(arena.FetchAdd(0, 1), 41u);
  EXPECT_EQ(arena.ReadU64(0), 42u);
}

TEST(ArenaTest, FetchAddNegativeDeltaWraps) {
  MemoryArena arena(64);
  arena.WriteU64(0, 10);
  arena.FetchAdd(0, ~uint64_t{0});  // -1 in two's complement
  EXPECT_EQ(arena.ReadU64(0), 9u);
}

TEST(ArenaTest, ConcurrentFetchAddIsExact) {
  MemoryArena arena(64);
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena] {
      for (int i = 0; i < kIters; ++i) {
        arena.FetchAdd(16, 1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(arena.ReadU64(16), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ArenaTest, ConcurrentCasExactlyOneWinnerPerRound) {
  MemoryArena arena(64);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, &winners, t] {
      if (arena.CompareSwap(0, 0, static_cast<uint64_t>(t) + 1) == 0) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(winners.load(), 1);
}

// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ArenaTest, CommitsMemoryOnlyWhereTouched) {
  constexpr size_t kBytes = size_t{1} << 30;
  const size_t before = ResidentBytes();
  MemoryArena arena(kBytes);
  arena.WriteU64(0, 1);
  arena.WriteU64(kBytes - 8, 2);
  const size_t after = ResidentBytes();
  EXPECT_LT(after, before + (size_t{32} << 20))
      << "resident set grew from " << before << " to " << after << " bytes";
  EXPECT_EQ(arena.ReadU64(0), 1u);
  EXPECT_EQ(arena.ReadU64(kBytes - 8), 2u);
  EXPECT_EQ(arena.ReadU64(8), 0u);
  EXPECT_EQ(arena.ReadU64(kBytes - 16), 0u);
  uint64_t middle[40];
  arena.Read(kBytes / 2, middle, sizeof(middle));
  for (const uint64_t word : middle) {
    EXPECT_EQ(word, 0u);
  }
}

TEST(ArenaTest, SizeRoundsUpToWholeCells) {
  EXPECT_EQ(MemoryArena(1).size(), 8u);
  EXPECT_EQ(MemoryArena(8).size(), 8u);
  EXPECT_EQ(MemoryArena(13).size(), 16u);
  EXPECT_EQ(MemoryArena(0).size(), 0u);
  MemoryArena arena(13);
  arena.WriteU64(8, 7);  // the rounded-up last cell is usable
  EXPECT_EQ(arena.ReadU64(8), 7u);
}

TEST(ArenaDeathTest, ReadingTheWordAtSizeDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // One page-multiple size and two that end inside a page: the cells end
  // at the guard page either way.
  for (const size_t bytes : {size_t{8}, size_t{4096}, size_t{4096 + 24}}) {
    MemoryArena arena(bytes);
    EXPECT_DEATH(
        {
          const volatile uint64_t word = arena.ReadU64(arena.size());
          (void)word;
        },
        "")
        << bytes << "-byte arena";
  }
  MemoryArena empty(0);
  EXPECT_DEATH(
      {
        const volatile uint64_t word = empty.ReadU64(0);
        (void)word;
      },
      "");
}

TEST(ArenaTest, ConcurrentFaaAndCasOnSharedCellsGiveExactTotals) {
  MemoryArena arena(4096);
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  constexpr uint64_t kFaaCell = 0;
  constexpr uint64_t kCasCell = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena] {
      uint64_t last[2] = {0, 0};
      for (int i = 0; i < kIters; ++i) {
        arena.FetchAdd(kFaaCell, 1);
        uint64_t seen = arena.ReadU64(kCasCell);
        for (uint64_t prior; (prior = arena.CompareSwap(kCasCell, seen, seen + 1)) != seen;) {
          seen = prior;
        }
        // A bulk READ of both cells sees each one only grow.
        uint64_t now[2];
        arena.Read(kFaaCell, now, sizeof(now));
        EXPECT_GE(now[0], last[0]);
        EXPECT_GE(now[1], last[1]);
        std::copy(now, now + 2, last);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const uint64_t total = static_cast<uint64_t>(kThreads) * kIters;
  EXPECT_EQ(arena.ReadU64(kFaaCell), total);
  EXPECT_EQ(arena.ReadU64(kCasCell), total);
}

TEST(QueueingServerTest, UnloadedServerHasNoDelay) {
  QueueingServer server;
  EXPECT_EQ(server.Charge(1000, 100), 0u);
  EXPECT_EQ(server.next_free_ns(), 100u) << "work-sum advances by the service time";
}

TEST(QueueingServerTest, BacklogDelaysRequestsBehindIt) {
  QueueingServer server;
  server.Charge(0, 100);                         // W = 100
  const uint64_t delay = server.Charge(0, 100);  // arrives at t=0 behind 100ns of work
  EXPECT_EQ(delay, 100u);
  EXPECT_EQ(server.next_free_ns(), 200u);
}

TEST(QueueingServerTest, DrainedBacklogCausesNoDelay) {
  QueueingServer server;
  server.Charge(0, 100);
  EXPECT_EQ(server.Charge(5000, 100), 0u) << "by t=5000 the 100ns of work has drained";
  EXPECT_EQ(server.next_free_ns(), 200u) << "work-sum is load, not wall time";
}

TEST(NicModelTest, ThroughputCapsAtMessageRate) {
  CostModel cost;
  cost.nic_mops = 10.0;  // 100ns per message
  NicModel nic(cost);
  NicTally* tally = nic.AcquireTally();
  for (int i = 0; i < 1000; ++i) {
    nic.ChargeMessage(tally, 0, 1.0);
  }
  EXPECT_EQ(nic.messages(), 1000u);
  EXPECT_EQ(nic.busy_horizon_ns(), 100000u);  // 1000 msgs x 100ns
}

TEST(NicModelTest, AtomicsCostMoreSlots) {
  CostModel cost;
  cost.nic_mops = 10.0;
  cost.atomic_msg_cost = 3.0;
  NicModel nic(cost);
  nic.ChargeMessage(nic.AcquireTally(), 0, cost.atomic_msg_cost);
  EXPECT_EQ(nic.busy_horizon_ns(), 300u);
}

TEST(NicModelTest, DisabledCostSkipsTimeAccounting) {
  NicModel nic(CostModel::Disabled());
  EXPECT_EQ(nic.ChargeMessage(nic.AcquireTally(), 0, 1.0), 0u);
  EXPECT_EQ(nic.busy_horizon_ns(), 0u);
  EXPECT_EQ(nic.messages(), 1u);  // counters still work
}

TEST(NicModelTest, PerQpTalliesSumExactlyAcrossThreadsAndOutliveTheirQps) {
  // Each thread posts through its own Verbs, so each writes only its own
  // tally block; the node's totals must still be exact, also after the
  // Verbs are gone, and Reset() must zero every block.
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  RemoteNode node(1 << 20, CostModel{});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&node, t] {
      ClientContext ctx(static_cast<uint32_t>(t));
      Verbs verbs(&node, &ctx);
      const uint64_t base = static_cast<uint64_t>(t) * 4096;
      uint8_t buf[64];
      uint64_t word = 1;
      for (int i = 0; i < kRounds; ++i) {
        verbs.Read(base, buf, sizeof(buf));  // 1 message, 1 doorbell, 64 B
        verbs.WriteAsync(base + 64, &word, 8);  // 1, 1, 8 B
        verbs.FetchAdd(base + 128, 1);  // 1, 1, 8 B
      }
      verbs.SetBatchOps(4);
      for (int i = 0; i < 4; ++i) {
        verbs.FetchAddAsync(base + 256 + 8 * static_cast<uint64_t>(i), 1);
      }  // one chain: 4 messages, 1 doorbell, 32 B
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const uint64_t messages = uint64_t{kThreads} * (3 * kRounds + 4);
  const uint64_t doorbells = uint64_t{kThreads} * (3 * kRounds + 1);
  const uint64_t bytes = uint64_t{kThreads} * (80 * kRounds + 32);
  EXPECT_EQ(node.nic().messages(), messages);
  EXPECT_EQ(node.nic().doorbells(), doorbells);
  EXPECT_EQ(node.nic().bytes(), bytes);

  // A later QP reuses a released block and adds to its counts.
  ClientContext ctx(99);
  Verbs verbs(&node, &ctx);
  uint8_t buf[16];
  verbs.Read(0, buf, sizeof(buf));
  EXPECT_EQ(node.nic().messages(), messages + 1);
  EXPECT_EQ(node.nic().doorbells(), doorbells + 1);
  EXPECT_EQ(node.nic().bytes(), bytes + 16);

  node.nic().Reset();
  EXPECT_EQ(node.nic().messages(), 0u);
  EXPECT_EQ(node.nic().doorbells(), 0u);
  EXPECT_EQ(node.nic().bytes(), 0u);
  EXPECT_EQ(node.nic().busy_horizon_ns(), 0u);
  verbs.Read(0, buf, sizeof(buf));
  EXPECT_EQ(node.nic().messages(), 1u) << "a live QP keeps counting after Reset";
}

TEST(CpuModelTest, MoreCoresServeFaster) {
  CostModel cost;
  CpuModel one(cost, 1);
  CpuModel four(cost, 4);
  for (int i = 0; i < 100; ++i) {
    one.ChargeRpc(0, 1.0);
    four.ChargeRpc(0, 1.0);
  }
  EXPECT_EQ(one.busy_horizon_ns(), 100000u);
  EXPECT_EQ(four.busy_horizon_ns(), 25000u);
}

TEST(VerbsTest, ReadChargesRttAndBytes) {
  CostModel cost;
  RemoteNode node(4096, cost);
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  uint8_t buf[256];
  verbs.Read(0, buf, sizeof(buf));
  // 2us RTT + 256/12500 us wire time.
  EXPECT_NEAR(ctx.clock().busy_us(), 2.0 + 256.0 / 12500.0, 0.01);
  EXPECT_EQ(ctx.reads, 1u);
  EXPECT_EQ(node.nic().messages(), 1u);
}

TEST(VerbsTest, AsyncWriteChargesOnlyPostOverhead) {
  CostModel cost;
  RemoteNode node(4096, cost);
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  uint64_t v = 7;
  verbs.WriteAsync(64, &v, 8);
  EXPECT_NEAR(ctx.clock().busy_us(), cost.async_post_us, 1e-9);
  // The data still lands.
  EXPECT_EQ(node.arena().ReadU64(64), 7u);
  // And the NIC still counts the message.
  EXPECT_EQ(node.nic().messages(), 1u);
}

TEST(VerbsTest, RpcRunsHandlerAndChargesCpu) {
  CostModel cost;
  RemoteNode node(4096, cost, /*controller_cores=*/1);
  node.RegisterRpc(99, [](std::string_view req, std::string* response) {
    response->assign(req);
    response->append("-pong");
  });
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  EXPECT_EQ(verbs.Rpc(99, "ping"), "ping-pong");
  EXPECT_EQ(node.cpu().ops(), 1u);
  std::string reused;
  verbs.Rpc(99, "ping", &reused);
  EXPECT_EQ(reused, "ping-pong") << "caller-buffer overload returns the same payload";
  EXPECT_EQ(node.cpu().ops(), 2u) << "both overloads charge the controller CPU";
  EXPECT_GT(ctx.clock().busy_us(), cost.rpc_service_us);
}

TEST(VerbsTest, SleepAdvancesOnlyClientClock) {
  RemoteNode node(4096, CostModel{});
  ClientContext ctx(0);
  Verbs verbs(&node, &ctx);
  verbs.Sleep(500.0);
  EXPECT_NEAR(ctx.clock().busy_us(), 500.0, 1e-9);
  EXPECT_EQ(node.nic().messages(), 0u);
}

TEST(VerbsTest, SaturatedNicInflatesLatency) {
  CostModel cost;
  cost.nic_mops = 1.0;  // 1us per message: very slow NIC
  RemoteNode node(4096, cost);
  ClientContext a(0);
  ClientContext b(1);
  Verbs va(&node, &a);
  Verbs vb(&node, &b);
  uint64_t buf;
  // Client a floods the NIC at virtual time 0.
  for (int i = 0; i < 1000; ++i) {
    va.Read(0, &buf, 8);
  }
  // Client b arrives at virtual time 0 and must queue behind a's traffic in
  // proportion to the backlog.
  vb.Read(0, &buf, 8);
  EXPECT_GT(b.clock().busy_us(), 100.0);
}

}  // namespace
}  // namespace ditto::rdma
