// server_loadgen: measures the RESP front end over real loopback sockets.
//
// Two modes:
//   (default)      self-hosted sweep: starts a net::Server in-process on an
//                  ephemeral port (fresh deployment per point) and replays a
//                  YCSB trace through net::RunLoadgen at each connection
//                  count, printing served wall-clock QPS, hit rate, and
//                  wire-level p50/p99. These are host-time numbers, so the
//                  bench emits no BENCH_JSON rows; perfbench's wire-ycsb-a
//                  workload measures served QPS with repetitions.
//   --connect=PORT replay against an already-running ditto_server on that
//                  port (CI's smoke job). Prints the summary and exits
//                  nonzero on any transport/protocol error.
//
// Flags:
//   --requests=N    trace length (x --scale)            (default 200000)
//   --keys=N        YCSB key-space size                 (default 16384)
//   --workload=X    YCSB core workload                  (default A)
//   --theta=F       YCSB zipf skew                      (default 0.99)
//   --seed=N        trace seed                          (default 42)
//   --conns=N       fix the sweep to one connection count (default 1,8,64)
//   --depth=N       pipelined commands per connection   (default 16)
//   --reactors=N    server reactor threads (self-host)  (default 2)
//   --capacity=N    cache capacity in objects           (default keys/4)
//   --value=N       value bytes                         (default 232)
//   --connect=PORT  external mode: skip the in-process server
//   --host=ADDR     external server address             (default 127.0.0.1)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/loadgen.h"
#include "net/server.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"capacity", "connect", "conns", "depth", "host", "keys", "reactors", "requests",
               "scale", "seed", "theta", "value", "workload"});
  const uint64_t keys = flags.GetInt("keys", 16384);
  const uint64_t requests = flags.GetInt("requests", 200000) * flags.GetInt("scale", 1);
  const uint64_t seed = flags.GetInt("seed", 42);
  const std::string workload_name = flags.GetString("workload", "A");
  const int depth = static_cast<int>(flags.GetInt("depth", 16));
  const int reactors = static_cast<int>(flags.GetInt("reactors", 2));
  const uint64_t capacity = flags.GetInt("capacity", std::max<uint64_t>(1, keys / 4));
  const size_t value_bytes = static_cast<size_t>(flags.GetInt("value", 232));
  const bool external = flags.Has("connect");
  const auto connect_port = static_cast<uint16_t>(flags.GetInt("connect", 0));
  const int external_conns = static_cast<int>(flags.GetInt("conns", 8));
  std::vector<int> conn_counts = {1, 8, 64};
  if (flags.Has("conns")) {
    conn_counts = {static_cast<int>(flags.GetInt("conns", 1))};
  }

  workload::YcsbConfig ycsb;
  ycsb.num_keys = keys;
  ycsb.zipf_theta = flags.GetDouble("theta", 0.99);
  const workload::Trace trace =
      bench::MakeYcsbTraceOrExit("server_loadgen", workload_name, &ycsb, requests, seed);

  net::LoadgenOptions lg;
  lg.host = flags.GetString("host", "127.0.0.1");
  lg.depth = depth;
  lg.value_bytes = value_bytes;

  if (external) {
    // External mode: one replay against a running server, pass/fail result.
    lg.port = connect_port;
    lg.connections = external_conns;
    const net::LoadgenResult r = net::RunLoadgen(trace, lg);
    std::printf("served %llu ops in %.3fs: %.0f qps, hit %.2f%%, p50 %.1fus, p99 %.1fus, "
                "shed %llu, errors %llu\n",
                static_cast<unsigned long long>(r.ops), r.wall_s, r.qps,
                r.hit_rate() * 100.0, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.errors));
    if (!r.ok) {
      std::fprintf(stderr, "server_loadgen: %s\n", r.error.c_str());
      return 1;
    }
    if (r.errors > 0 || r.ops != trace.size()) {
      std::fprintf(stderr, "server_loadgen: %llu error replies, %llu/%zu ops completed\n",
                   static_cast<unsigned long long>(r.errors),
                   static_cast<unsigned long long>(r.ops), trace.size());
      return 1;
    }
    return 0;
  }

  bench::PrintHeader("server-loadgen",
                     "RESP front end over loopback: connection sweep, wire-level latency");
  std::printf("# workload=YCSB-%c keys=%llu requests=%llu capacity=%llu reactors=%d depth=%d\n",
              ycsb.workload, static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(capacity), reactors, depth);
  std::printf("%-8s %12s %10s %10s %10s %8s %8s\n", "conns", "qps", "hit_pct", "p50_us",
              "p99_us", "shed", "errors");

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};
  config.validate_inserts = reactors > 1;  // reactors share one pool

  int failures = 0;
  for (const int conns : conn_counts) {
    // Fresh deployment and server per point: every sweep row starts cold,
    // so rows are comparable to each other and across runs.
    bench::DittoDeployment d =
        bench::MakeDitto(bench::MakePoolConfig(capacity), config, reactors);
    net::ServerOptions options;
    net::Server server(d.raw, options);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "server_loadgen: start failed: %s\n", error.c_str());
      return 1;
    }
    lg.port = server.port();
    lg.connections = conns;
    const net::LoadgenResult r = net::RunLoadgen(trace, lg);
    server.Stop();
    std::printf("%-8d %12.0f %10.2f %10.1f %10.1f %8llu %8llu\n", conns, r.qps,
                r.hit_rate() * 100.0, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.errors));
    if (!r.ok) {
      std::fprintf(stderr, "server_loadgen: conns=%d: %s\n", conns, r.error.c_str());
      ++failures;
    }
  }
  std::printf("\n# expected shape: served qps grows with connection count until the\n"
              "# reactor threads saturate; p99 grows with pipeline depth.\n");
  return failures == 0 ? 0 : 1;
}
