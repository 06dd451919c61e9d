#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>
#include <vector>

#include "common/rand.h"
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

// The single shared counter QueueingServer replaced: every charge a locked
// fetch_add on one word.
class FetchAddQueue {
 public:
  uint64_t Charge(uint64_t now_ns, uint64_t service_ns) {
    const uint64_t backlog = work_ns_.fetch_add(service_ns, std::memory_order_relaxed);
    return backlog > now_ns ? backlog - now_ns : 0;
  }

 private:
  std::atomic<uint64_t> work_ns_{0};
};

TEST(QueueingServerTest, OneThreadMatchesASharedFetchAddCounter) {
  // With one posting thread the shards must be invisible: a seeded run of
  // arrivals that alternates queueing and idle stretches sees exactly the
  // delays of the shared counter.
  QueueingServer server;
  FetchAddQueue reference;
  Rng rng(42);
  uint64_t now = 0;
  uint64_t total = 0;
  for (int i = 0; i < 100000; ++i) {
    now += rng.NextBelow(i % 1000 < 500 ? 20 : 400);
    const uint64_t service = 1 + rng.NextBelow(200);
    total += service;
    ASSERT_EQ(server.Charge(now, service), reference.Charge(now, service)) << "charge " << i;
  }
  EXPECT_EQ(server.next_free_ns(), total);
}

// Each of `threads` threads charges `rounds` seeded service times; returns
// their sum. Every thread makes its first charge before any goes on, so all
// of them hold a shard (or the overflow shard) at once.
uint64_t ChargeFromThreads(QueueingServer* server, int threads, int rounds) {
  std::vector<std::thread> workers;
  std::vector<uint64_t> charged(static_cast<size_t>(threads), 0);
  std::atomic<int> arrived{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([server, threads, rounds, t, &charged, &arrived] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      uint64_t sum = 0;
      for (int i = 0; i < rounds; ++i) {
        const uint64_t service = 1 + rng.NextBelow(100);
        server->Charge(static_cast<uint64_t>(i) * 10, service);
        sum += service;
        if (i == 0) {
          arrived.fetch_add(1);
          while (arrived.load() < threads) {
            std::this_thread::yield();
          }
        }
      }
      charged[static_cast<size_t>(t)] = sum;
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  uint64_t total = 0;
  for (uint64_t sum : charged) {
    total += sum;
  }
  return total;
}

TEST(QueueingServerTest, ConcurrentThreadsConserveTotalWork) {
  QueueingServer server;
  const uint64_t total = ChargeFromThreads(&server, 4, 20000);
  EXPECT_EQ(server.next_free_ns(), total);
  EXPECT_EQ(server.charges(), 4u * 20000u);
  // A second wave takes the slots the first freed and carries on from the
  // work their shards hold.
  const uint64_t second = ChargeFromThreads(&server, 4, 20000);
  EXPECT_EQ(server.next_free_ns(), total + second);
  EXPECT_EQ(server.charges(), 8u * 20000u);
}

TEST(QueueingServerTest, MoreThreadsThanShardsConserveTotalWork) {
  // Threads past the last shard share the overflow shard.
  QueueingServer server;
  const uint64_t total = ChargeFromThreads(&server, 3 * QueueingServer::kShards, 2000);
  EXPECT_EQ(server.next_free_ns(), total);
  EXPECT_EQ(server.charges(), 3u * QueueingServer::kShards * 2000u);
  // This thread sees all of it as backlog, whichever shard it holds.
  EXPECT_EQ(server.Charge(0, 1), total);
}

TEST(QueueingServerTest, ServerRebuiltAtTheSameAddressStartsFresh) {
  // Every perfbench repetition destroys its deployment and often builds the
  // next one at the same address, on the same thread. The rebuilt model
  // must start from zero work, whatever this thread charged to the last.
  CostModel cost;
  cost.nic_mops = 10.0;  // 100 ns per message
  alignas(NicModel) unsigned char storage[sizeof(NicModel)];
  auto run = [](NicModel* nic) {
    NicTally* tally = nic->AcquireTally();
    std::vector<uint64_t> delays;
    for (int i = 0; i < 50; ++i) {
      delays.push_back(nic->ChargeMessage(tally, static_cast<uint64_t>(i) * 40, /*atomic=*/false));
    }
    delays.push_back(nic->busy_horizon_ns());
    delays.push_back(nic->messages());
    return delays;
  };
  NicModel fresh(cost);
  const std::vector<uint64_t> expected = run(&fresh);
  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    auto* nic = new (storage) NicModel(cost);
    EXPECT_EQ(run(nic), expected) << "rebuild " << rebuild;
    // A second thread charging beside this one loses none of either's
    // work in the rebuilt model.
    constexpr int kRounds = 200000;
    std::atomic<bool> go{false};
    std::thread helper([nic, &go] {
      NicTally* tally = nic->AcquireTally();
      while (!go.load()) {
      }
      for (int i = 0; i < kRounds; ++i) {
        nic->ChargeMessage(tally, 0, /*atomic=*/false);
      }
    });
    NicTally* tally = nic->AcquireTally();
    go.store(true);
    for (int i = 0; i < kRounds; ++i) {
      nic->ChargeMessage(tally, 0, /*atomic=*/false);
    }
    helper.join();
    EXPECT_EQ(nic->busy_horizon_ns(), expected[50] + 2 * 100 * uint64_t{kRounds})
        << "rebuild " << rebuild;
    nic->~NicModel();
  }
}

TEST(NicModelTest, ThroughputCapsAtMessageRate) {
  CostModel cost;
  cost.nic_mops = 10.0;  // 100ns per message
  NicModel nic(cost);
  NicTally* tally = nic.AcquireTally();
  for (int i = 0; i < 1000; ++i) {
    nic.ChargeMessage(tally, 0, /*atomic=*/false);
  }
  EXPECT_EQ(nic.messages(), 1000u);
  EXPECT_EQ(nic.busy_horizon_ns(), 100000u);  // 1000 msgs x 100ns
}

TEST(NicModelTest, AtomicsCostMoreSlots) {
  CostModel cost;
  cost.nic_mops = 10.0;
  cost.atomic_msg_cost = 3.0;
  NicModel nic(cost);
  nic.ChargeMessage(nic.AcquireTally(), 0, /*atomic=*/true);
  EXPECT_EQ(nic.busy_horizon_ns(), 300u);
}

TEST(NicModelTest, DisabledCostSkipsTimeAccounting) {
  NicModel nic(CostModel::Disabled());
  EXPECT_EQ(nic.ChargeMessage(nic.AcquireTally(), 0, /*atomic=*/false), 0u);
  EXPECT_EQ(nic.busy_horizon_ns(), 0u);
  EXPECT_EQ(nic.messages(), 1u);  // counters still work
}

TEST(NicModelTest, PerQpTalliesSumExactlyAcrossThreadsAndOutliveTheirQps) {
  // Each thread posts through its own Verbs, so each writes only its own
  // tally block; the node's totals must still be exact, also after the
  // Verbs are gone.
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
