// End-to-end tests of the RESP front end over real loopback sockets.
//
// The load-bearing test is replay fidelity: a trace replayed through
// ditto_server's network path (net::Server + net::RunLoadgen, one connection
// at depth 1) must produce hit rates, verb counts, and NIC message counts
// identical to the in-process sim::RunTrace of the same trace on an
// identical deployment. The rest pins the overload contract: connections
// past max_conns are answered `-ERR max connections reached` and closed,
// commands past the shed watermark are answered `-LOADSHED` (never stalled
// or crashed), malformed frames get a RESP error and a close, QUIT closes
// after the flush, and a cluster-backed front end answers `-UNAVAILABLE`
// (never a silent nil) when the backing nodes are crashed. Commands rejected
// by validation count no executed op. Socket-free tests drive a
// net::Connection directly and pin batch pipelining: a pipelined batch
// answers and mutates exactly like one-command batches, costs what
// sim::RunTrace charges at the same depth, and a one-command batch is
// blocking execution. Runs in the ASan/TSan CI matrix.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/connection.h"
#include "net/loadgen.h"
#include "net/resp.h"
#include "net/ring_buffer.h"
#include "net/server.h"

namespace ditto {
namespace {

dm::PoolConfig TestPool(uint64_t capacity_objects) {
  dm::PoolConfig config;
  config.memory_bytes = 32 << 20;
  config.num_buckets = 1024;
  config.capacity_objects = capacity_objects;
  config.cost = rdma::CostModel::Disabled();
  return config;
}

// One pool + server + n clients, one client per reactor; reactors sharing
// the pool validate their inserts.
bench::DittoDeployment Served(const dm::PoolConfig& pool_config, core::DittoConfig config,
                              int num_clients) {
  config.validate_inserts = config.validate_inserts || num_clients > 1;
  return bench::MakeDitto(pool_config, config, num_clients);
}

workload::Trace TestTrace(uint64_t requests) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 2048;
  ycsb.zipf_theta = 0.99;
  workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, /*seed=*/42);
  // Exercise DEL and EXPIRE on the wire too (MultiGet stays out: the
  // in-process engine fuses adjacent MultiGets into pipelined runs, which
  // the one-command-at-a-time wire protocol intentionally does not).
  workload::OpMix mix;
  mix.delete_fraction = 0.05;
  mix.expire_fraction = 0.05;
  workload::ApplyOpMix(&trace, mix);
  return trace;
}

// Blocking loopback connection with a receive timeout, for the raw-socket
// overload tests.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~RawConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool ok() const { return fd_ >= 0; }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
      if (n <= 0) {
        return false;
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  // Reads `count` complete replies, returning each as its raw first line
  // rendering ("+PONG", "-LOADSHED ...", ":3", "$value", "(nil)", "*2").
  std::vector<std::string> ReadReplies(size_t count) {
    std::vector<std::string> out;
    std::string error;
    while (out.size() < count) {
      net::RespReply reply;
      std::vector<net::RespReply> elems;
      const net::ParseStatus st = net::ParseReply(&in_, &reply, &elems, &error);
      if (st == net::ParseStatus::kOk) {
        out.push_back(Render(reply));
        continue;
      }
      if (st == net::ParseStatus::kError || !FillFromSocket()) {
        break;
      }
    }
    return out;
  }

  // Reads until the peer closes; returns everything received.
  std::string ReadUntilEof() {
    std::string out(in_.view());
    in_.Clear();
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  static std::string Render(const net::RespReply& reply) {
    switch (reply.type) {
      case net::RespReply::Type::kSimple:
        return "+" + std::string(reply.text);
      case net::RespReply::Type::kError:
        return "-" + std::string(reply.text);
      case net::RespReply::Type::kInteger:
        return ":" + std::to_string(reply.integer);
      case net::RespReply::Type::kBulk:
        return "$" + std::string(reply.text);
      case net::RespReply::Type::kNil:
        return "(nil)";
      case net::RespReply::Type::kArray:
        return "*" + std::to_string(reply.count);
    }
    return "?";
  }

  bool FillFromSocket() {
    char* dst = in_.Reserve(4096);
    const ssize_t n = ::read(fd_, dst, 4096);
    if (n <= 0) {
      return false;
    }
    in_.Commit(static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  net::RingBuffer in_;
};

// A trace served over the socket path must be indistinguishable — hit for
// hit, verb for verb, NIC message for NIC message — from the in-process
// replay of the same trace on an identical deployment. Both sides take the
// same sim::RequestPolicy; the cases vary its per-key value sizing and its
// miss re-insert decision.
TEST(ServerFidelityTest, ServedReplayMatchesInProcessRunTrace) {
  const workload::Trace trace = TestTrace(20000);
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};

  struct Case {
    const char* name;
    size_t value_bytes_max;
    bool set_on_miss;
  };
  const Case cases[] = {
      {"fixed value size", 0, true},
      {"per-key value sizes", 200, true},
      {"no miss re-insert", 0, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sim::RequestPolicy policy;
    policy.value_bytes = 64;
    policy.value_bytes_max = c.value_bytes_max;
    policy.set_on_miss = c.set_on_miss;

    // In-process side.
    bench::DittoDeployment in_process = Served(TestPool(512), config, 1);
    sim::RunOptions options;
    static_cast<sim::RequestPolicy&>(options) = policy;
    const uint64_t expected_bytes_before = in_process.pool->node().nic().bytes();
    const sim::RunResult expected =
        sim::RunTrace(in_process.raw, trace, in_process.nodes, options);
    const uint64_t expected_bytes = in_process.pool->node().nic().bytes() - expected_bytes_before;

    // Served side: fresh deployment, one reactor, one connection at depth 1
    // (both sides then execute the trace in its original order).
    bench::DittoDeployment served = Served(TestPool(512), config, 1);
    served.raw[0]->ResetForMeasurement();
    const uint64_t nic_before = served.pool->node().nic().messages();
    const uint64_t bytes_before = served.pool->node().nic().bytes();
    net::Server server(served.raw, net::ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    net::LoadgenOptions lg;
    static_cast<sim::RequestPolicy&>(lg) = policy;
    lg.port = server.port();
    lg.connections = 1;
    lg.depth = 1;
    const net::LoadgenResult r = net::RunLoadgen(trace, lg);
    server.Stop();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.ops, trace.size());

    // Wire-observed counts match the in-process result...
    EXPECT_EQ(r.gets, expected.gets);
    EXPECT_EQ(r.hits, expected.hits);
    EXPECT_EQ(r.misses, expected.misses);
    EXPECT_EQ(r.sets, expected.sets);
    // The wire counts DEL round trips; the client counts successful deletions.
    size_t trace_deletes = 0;
    for (const workload::Request& req : trace) {
      trace_deletes += req.op == workload::Op::kDelete ? 1 : 0;
    }
    EXPECT_EQ(r.deletes, trace_deletes);

    // ...and so do the cache client's own counters and the NIC message count
    // (the strongest equivalence: the server issued the identical verbs).
    const sim::ClientCounters counters = served.raw[0]->counters();
    EXPECT_EQ(counters.gets, expected.gets);
    EXPECT_EQ(counters.hits, expected.hits);
    EXPECT_EQ(counters.misses, expected.misses);
    EXPECT_EQ(counters.sets, expected.sets);
    EXPECT_EQ(counters.deletes, expected.deletes);
    EXPECT_EQ(counters.evictions, expected.evictions);
    EXPECT_EQ(counters.expired, expected.expired);
    EXPECT_EQ(served.pool->node().nic().messages() - nic_before, expected.nic_messages);
    // Equal wire bytes: every stored value had the size the policy gave it.
    EXPECT_EQ(served.pool->node().nic().bytes() - bytes_before, expected_bytes);
  }
}

// More connections and reactors still serve every request exactly once
// (counts sum correctly on the wire even though the interleaving differs).
TEST(ServerFidelityTest, MultiConnectionReplayServesEveryRequest) {
  const workload::Trace trace = TestTrace(20000);
  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  config.validate_inserts = true;
  bench::DittoDeployment d = Served(TestPool(512), config, 2);
  net::Server server(d.raw, net::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  net::LoadgenOptions lg;
  lg.port = server.port();
  lg.connections = 8;
  lg.depth = 4;
  lg.value_bytes = 64;
  const net::LoadgenResult r = net::RunLoadgen(trace, lg);
  server.Stop();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ops, trace.size());
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.hits, 0u);

  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.live_conns, 0u);
  EXPECT_GE(stats.commands, trace.size());
}

TEST(ServerOverloadTest, ConnCapAnswersErrorAndCloses) {
  core::DittoConfig config;
  bench::DittoDeployment d = Served(TestPool(256), config, 1);
  net::ServerOptions options;
  options.max_conns = 2;
  net::Server server(d.raw, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn first(server.port());
  RawConn second(server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // A round trip on each guarantees both are admitted before the third
  // connection arrives.
  ASSERT_TRUE(first.Send("PING\r\n"));
  ASSERT_TRUE(second.Send("PING\r\n"));
  EXPECT_EQ(first.ReadReplies(1), std::vector<std::string>{"+PONG"});
  EXPECT_EQ(second.ReadReplies(1), std::vector<std::string>{"+PONG"});

  RawConn third(server.port());
  ASSERT_TRUE(third.ok());  // TCP accept succeeds; rejection is in-protocol
  const std::string rejection = third.ReadUntilEof();
  EXPECT_EQ(rejection, "-ERR max connections reached\r\n");

  // The admitted connections keep working.
  ASSERT_TRUE(first.Send("PING\r\n"));
  EXPECT_EQ(first.ReadReplies(1), std::vector<std::string>{"+PONG"});
  EXPECT_GE(server.stats().rejected_conns, 1u);
  server.Stop();
}

TEST(ServerOverloadTest, ShedWatermarkAnswersLoadshedNotStall) {
  core::DittoConfig config;
  bench::DittoDeployment d = Served(TestPool(256), config, 1);
  net::ServerOptions options;
  options.shed_watermark = 4;
  net::Server server(d.raw, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  // One write of 256 pipelined GETs: only the watermark's worth of each
  // arriving batch may execute; the rest must be answered (with -LOADSHED),
  // never dropped or stalled.
  std::string burst;
  for (int i = 0; i < 256; ++i) {
    burst += "GET key" + std::to_string(i) + "\r\n";
  }
  ASSERT_TRUE(conn.Send(burst));
  const std::vector<std::string> replies = conn.ReadReplies(256);
  ASSERT_EQ(replies.size(), 256u);
  size_t served = 0;
  size_t shed = 0;
  for (const std::string& reply : replies) {
    if (reply == "(nil)" || reply[0] == '$') {
      ++served;
    } else if (reply.rfind("-LOADSHED", 0) == 0) {
      ++shed;
    } else {
      FAIL() << "unexpected reply: " << reply;
    }
  }
  EXPECT_EQ(served + shed, 256u);
  EXPECT_GT(shed, 0u);  // 256 commands cannot all fit under watermark 4
  EXPECT_GT(served, 0u);
  EXPECT_EQ(server.stats().shed_ops, shed);

  // The connection is still healthy after shedding.
  ASSERT_TRUE(conn.Send("PING\r\n"));
  EXPECT_EQ(conn.ReadReplies(1), std::vector<std::string>{"+PONG"});
  server.Stop();
}

TEST(ServerProtocolTest, MalformedFrameGetsErrorThenClose) {
  core::DittoConfig config;
  bench::DittoDeployment d = Served(TestPool(256), config, 1);
  net::Server server(d.raw, net::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send("*2\r\n$4\r\nPING\r\n#bad\r\n"));
  const std::string reply = conn.ReadUntilEof();  // error reply, then close
  EXPECT_EQ(reply.rfind("-ERR Protocol error", 0), 0u) << reply;
  server.Stop();
}

TEST(ServerProtocolTest, QuitFlushesPipelinedRepliesThenCloses) {
  core::DittoConfig config;
  bench::DittoDeployment d = Served(TestPool(256), config, 1);
  net::Server server(d.raw, net::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send("SET k v\r\nGET k\r\nQUIT\r\n"));
  const std::string replies = conn.ReadUntilEof();
  EXPECT_EQ(replies, "+OK\r\n$1\r\nv\r\n+OK\r\n");

  RawConn again(server.port());
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.Send("GET k\r\n"));  // state survives the closed conn
  EXPECT_EQ(again.ReadReplies(1), std::vector<std::string>{"$v"});
  server.Stop();
}

// A cluster-backed front end answers -UNAVAILABLE when no backing node can
// serve the op — a silent nil would read as "key absent" and poison negative
// caches. While any node is live, keys re-route through the ring and the wire
// stays fully functional.
TEST(ServerClusterTest, CrashedClusterAnswersUnavailableOnWire) {
  core::ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  cluster_config.pool = TestPool(256);
  bench::ClusterDeployment d = bench::MakeCluster(cluster_config, 1);
  net::Server server(d.raw, net::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send("SET k v\r\nGET k\r\n"));
  EXPECT_EQ(conn.ReadReplies(2), (std::vector<std::string>{"+OK", "$v"}));

  // Crash 1 of 2 nodes: keys re-route to the survivor, the wire stays up.
  // (Round trips order each crash strictly before the next command batch.)
  d.pool->Crash(0);
  ASSERT_TRUE(conn.Send("SET k2 w\r\nGET k2\r\n"));
  EXPECT_EQ(conn.ReadReplies(2), (std::vector<std::string>{"+OK", "$w"}));

  // Crash the survivor: every data command answers -UNAVAILABLE; PING (no
  // cache op) still answers, and the connection stays open.
  d.pool->Crash(1);
  ASSERT_TRUE(conn.Send(
      "GET k\r\nSET k v\r\nDEL k\r\nEXPIRE k 5\r\nTTL k\r\nMGET a b\r\nPING\r\n"));
  const std::vector<std::string> replies = conn.ReadReplies(7);
  ASSERT_EQ(replies.size(), 7u);
  for (size_t i = 0; i + 1 < replies.size(); ++i) {
    EXPECT_EQ(replies[i].rfind("-UNAVAILABLE", 0), 0u) << replies[i];
  }
  EXPECT_EQ(replies.back(), "+PONG");
  server.Stop();
}

TEST(ServerProtocolTest, UnknownCommandAndArityErrorsKeepConnectionOpen) {
  core::DittoConfig config;
  bench::DittoDeployment d = Served(TestPool(256), config, 1);
  net::Server server(d.raw, net::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send("FLUSHALL\r\nGET\r\nPING\r\n"));
  const std::vector<std::string> replies = conn.ReadReplies(3);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("-ERR unknown command", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1].rfind("-ERR wrong number of arguments", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2], "+PONG");
  server.Stop();
}

// Commands that validation rejects never reach the client: they take no
// in-flight budget and count no executed op.
TEST(ServerProtocolTest, RejectedCommandsCountNoOps) {
  core::DittoConfig config;
  bench::DittoDeployment d = Served(TestPool(256), config, 1);
  net::ServerOptions options;
  options.shed_watermark = 1;  // one op in flight: a charged reject would shed the GET
  net::Server server(d.raw, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send("SET k\r\nSET k v EX notanint\r\nEXPIRE k notanint\r\n"
                        "SET k v extra\r\nGET\r\nGET k\r\n"));
  const std::vector<std::string> replies = conn.ReadReplies(6);
  ASSERT_EQ(replies.size(), 6u);
  EXPECT_EQ(replies[0].rfind("-ERR wrong number of arguments for 'set'", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1], "-ERR value is not an integer or out of range");
  EXPECT_EQ(replies[2], "-ERR value is not an integer or out of range");
  EXPECT_EQ(replies[3], "-ERR syntax error");
  EXPECT_EQ(replies[4].rfind("-ERR wrong number of arguments for 'get'", 0), 0u) << replies[4];
  EXPECT_EQ(replies[5], "(nil)");  // admitted: the rejects held no budget
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.commands, 6u);
  EXPECT_EQ(stats.ops, 1u);
  EXPECT_EQ(stats.shed_ops, 0u);
  server.Stop();
}

// --- Socket-free Connection pipelining --------------------------------------

// Serves a Connection without sockets or a reactor: one client, an unlimited
// in-flight budget, and the server's command/op accounting.
class TestHost : public net::ConnectionHost {
 public:
  explicit TestHost(sim::CacheClient* client) : client_(client) {}
  bool AcquireOps(size_t) override { return true; }
  void ReleaseOps(size_t) override {}
  sim::CacheClient* client() override { return client_; }
  void FormatInfo(std::string* out) override { out->clear(); }
  void OnCommands(uint64_t commands, uint64_t ops, uint64_t) override {
    this->commands += commands;
    this->ops += ops;
  }
  const net::RespLimits& limits() override { return limits_; }

  uint64_t commands = 0;
  uint64_t ops = 0;

 private:
  sim::CacheClient* client_;
  net::RespLimits limits_;
};

constexpr size_t kPipeValueBytes = 64;

// Cost model enabled (virtual time is what pipelining changes), no eviction.
dm::PoolConfig PipelinePool() {
  dm::PoolConfig config;
  config.memory_bytes = 32 << 20;
  config.num_buckets = 1024;
  config.capacity_objects = 4096;
  return config;
}

// YCSB-A GETs and SETs over 512 keys.
workload::Trace PipelineTrace(uint64_t requests) {
  workload::YcsbConfig ycsb;
  ycsb.workload = 'A';
  ycsb.num_keys = 512;
  return workload::MakeYcsbTrace(ycsb, requests, /*seed=*/7);
}

// A fresh single-client deployment with every even key cached, so a trace
// mixes hits and misses. The preload is identical on every deployment.
bench::DittoDeployment PipeDeployment() {
  bench::DittoDeployment d = bench::MakeDitto(PipelinePool(), core::DittoConfig{}, 1);
  const std::string value(kPipeValueBytes, 'v');
  for (uint64_t key = 0; key < 512; key += 2) {
    workload::KeyBuf buf;
    d.raw[0]->Set(workload::FormatKey(key, &buf), value);
  }
  return d;
}

// What one execution did to the cache and the simulated network.
struct Effects {
  sim::ClientCounters counters;
  uint64_t reads = 0, writes = 0, atomics = 0, rpcs = 0;
  uint64_t nic_messages = 0;
  uint64_t busy_ns = 0;
};

Effects Snapshot(bench::DittoDeployment& d) {
  Effects e;
  e.counters = d.raw[0]->counters();
  const rdma::ClientContext& ctx = *d.ctxs[0];
  e.reads = ctx.reads;
  e.writes = ctx.writes;
  e.atomics = ctx.atomics;
  e.rpcs = ctx.rpcs;
  e.nic_messages = d.pool->node().nic().messages();
  e.busy_ns = d.ctxs[0]->clock().busy_ns();
  return e;
}

void ExpectSameCacheEffects(const Effects& a, const Effects& b) {
  EXPECT_EQ(a.counters.gets, b.counters.gets);
  EXPECT_EQ(a.counters.hits, b.counters.hits);
  EXPECT_EQ(a.counters.misses, b.counters.misses);
  EXPECT_EQ(a.counters.sets, b.counters.sets);
  EXPECT_EQ(a.counters.evictions, b.counters.evictions);
  EXPECT_EQ(a.counters.cas_failures, b.counters.cas_failures);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.rpcs, b.rpcs);
  EXPECT_EQ(a.nic_messages, b.nic_messages);
}

// The wire form of the trace's requests: GET k / SET k v.
std::vector<std::string> TraceCommands(const workload::Trace& trace) {
  const std::string value(kPipeValueBytes, 'v');
  std::vector<std::string> commands;
  for (const workload::Request& req : trace) {
    workload::KeyBuf buf;
    const std::string_view key = workload::FormatKey(req.key, &buf);
    net::RingBuffer rb;
    if (req.op == workload::Op::kGet) {
      net::AppendCommand(&rb, {"GET", key});
    } else {
      net::AppendCommand(&rb, {"SET", key, value});
    }
    commands.emplace_back(rb.view());
  }
  return commands;
}

// Feeds `batch` commands per readable event, then finishes the client like
// sim::RunTrace does; returns every reply byte.
std::string ServeInBatches(bench::DittoDeployment& d,
                           const std::vector<std::string>& commands, size_t batch,
                           TestHost* host) {
  net::Connection conn(/*fd=*/-1, host);
  std::string replies;
  for (size_t i = 0; i < commands.size(); i += batch) {
    for (size_t j = i; j < std::min(commands.size(), i + batch); ++j) {
      conn.in().Append(commands[j]);
    }
    EXPECT_TRUE(conn.ProcessInput());
    replies.append(conn.out().view());
    conn.out().Clear();
  }
  d.raw[0]->Finish();  // flush buffered client work, as Server::Stop does
  return replies;
}

// A batch of N commands replies and mutates exactly like N one-command
// batches, and costs the client what sim::RunTrace charges at depth
// min(N, kWindowOps) over the same ops.
TEST(ConnectionPipelineTest, BatchMatchesDepthOneAndRunTraceAtSameDepth) {
  for (const size_t n : {size_t{8}, net::Connection::kWindowOps, size_t{80}}) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    const workload::Trace trace = PipelineTrace(n);
    const std::vector<std::string> commands = TraceCommands(trace);

    bench::DittoDeployment depth1 = PipeDeployment();
    const Effects depth1_before = Snapshot(depth1);
    TestHost depth1_host(depth1.raw[0]);
    const std::string depth1_replies = ServeInBatches(depth1, commands, 1, &depth1_host);
    const Effects depth1_after = Snapshot(depth1);

    bench::DittoDeployment batched = PipeDeployment();
    const Effects batched_before = Snapshot(batched);
    TestHost batched_host(batched.raw[0]);
    const std::string batched_replies = ServeInBatches(batched, commands, n, &batched_host);
    const Effects batched_after = Snapshot(batched);

    EXPECT_EQ(batched_replies, depth1_replies);
    EXPECT_EQ(batched_host.commands, n);
    EXPECT_EQ(batched_host.ops, n);
    EXPECT_EQ(depth1_host.ops, n);
    ExpectSameCacheEffects(depth1_after, batched_after);
    ExpectSameCacheEffects(depth1_before, batched_before);
    const uint64_t depth1_ns = depth1_after.busy_ns - depth1_before.busy_ns;
    const uint64_t batched_ns = batched_after.busy_ns - batched_before.busy_ns;
    EXPECT_LT(batched_ns, depth1_ns) << "verb waits of a batch overlap";

    // The runner's pipelined replay of the same ops at the same depth.
    bench::DittoDeployment replay = PipeDeployment();
    sim::RunOptions options;
    options.value_bytes = kPipeValueBytes;
    options.set_on_miss = false;
    options.pipeline_depth = std::min(n, net::Connection::kWindowOps);
    const Effects replay_before = Snapshot(replay);
    sim::RunTrace(replay.raw, trace, replay.nodes, options);
    const Effects replay_after = Snapshot(replay);
    EXPECT_EQ(replay_after.busy_ns - replay_before.busy_ns, batched_ns);
    EXPECT_EQ(replay_after.nic_messages - replay_before.nic_messages,
              batched_after.nic_messages - batched_before.nic_messages);
  }
}

// A one-command batch is blocking execution: the same cache and network
// effects and the same virtual time as issuing each op through ExecuteBatch.
TEST(ConnectionPipelineTest, OneCommandBatchIsBlockingExecution) {
  const workload::Trace trace = PipelineTrace(200);
  const std::vector<std::string> commands = TraceCommands(trace);

  bench::DittoDeployment served = PipeDeployment();
  TestHost host(served.raw[0]);
  ServeInBatches(served, commands, 1, &host);

  bench::DittoDeployment blocking = PipeDeployment();
  const std::string value(kPipeValueBytes, 'v');
  for (const workload::Request& req : trace) {
    workload::KeyBuf buf;
    const std::string_view key = workload::FormatKey(req.key, &buf);
    const sim::CacheOp op = req.op == workload::Op::kGet
                                ? sim::CacheOp::Get(key, /*want_value=*/true)
                                : sim::CacheOp::Set(key, value);
    sim::CacheResult result;
    blocking.raw[0]->ExecuteBatch({&op, 1}, &result);
  }
  blocking.raw[0]->Finish();

  const Effects a = Snapshot(served);
  const Effects b = Snapshot(blocking);
  ExpectSameCacheEffects(a, b);
  EXPECT_EQ(a.busy_ns, b.busy_ns);
}

}  // namespace
}  // namespace ditto
