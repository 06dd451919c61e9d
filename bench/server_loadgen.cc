// server_loadgen: replays a YCSB trace against a running ditto_server over
// real loopback sockets through net::RunLoadgen (scripts/server_smoke.sh).
// Prints one summary line (ops, hit rate, sheds, errors) and exits nonzero
// on any transport or protocol error, an error reply, or an incomplete
// replay; without --connect it prints a usage line and exits 2. Served
// wall-clock rates and latencies come from perfbench's wire-ycsb-a workload.
//
// Flags:
//   --connect=PORT  port of the running server          (required)
//   --host=ADDR     server address                      (default 127.0.0.1)
//   --requests=N    trace length                        (default 200000)
//   --keys=N        YCSB key-space size                 (default 16384)
//   --workload=X    YCSB core workload                  (default A)
//   --theta=F       YCSB zipf skew                      (default 0.99)
//   --seed=N        trace seed                          (default 42)
//   --conns=N       connections                         (default 8)
//   --depth=N       pipelined commands per connection   (default 16)
//   --value=N       value bytes (an object is <= 1 KiB) (default 232)
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "net/loadgen.h"

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"connect", "conns", "depth", "host", "keys", "requests", "seed", "theta", "value",
               "workload"});
  if (!flags.Has("connect")) {
    std::fprintf(stderr, "usage: server_loadgen --connect=PORT [--host=ADDR] [--requests=N] "
                         "[--conns=N] [--depth=N] ...\n");
    return 2;
  }
  net::LoadgenOptions lg;
  lg.port = flags.GetInt<uint16_t>("connect", 0, 1, UINT16_MAX);
  lg.host = flags.GetString("host", "127.0.0.1");
  lg.connections = flags.GetInt<int>("conns", 8, 1, 1024);
  lg.depth = flags.GetInt<int>("depth", 16, 1, bench::kMaxBatch);
  lg.value_bytes = flags.GetInt<size_t>("value", 232, 1, 1024);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 200000, 1, bench::kMaxCount);
  const uint64_t seed = flags.GetInt<uint64_t>("seed", 42, 0, UINT64_MAX);

  workload::YcsbConfig ycsb;
  ycsb.num_keys = flags.GetInt<uint64_t>("keys", 16384, 1, bench::kMaxCount);
  ycsb.zipf_theta = flags.GetDouble("theta", 0.99);
  const workload::Trace trace = bench::MakeYcsbTraceOrExit(
      "server_loadgen", flags.GetString("workload", "A"), &ycsb, requests, seed);

  const net::LoadgenResult r = net::RunLoadgen(trace, lg);
  std::printf("served %llu ops: hit %.2f%%, shed %llu, errors %llu\n",
              static_cast<unsigned long long>(r.ops), r.hit_rate() * 100.0,
              static_cast<unsigned long long>(r.shed), static_cast<unsigned long long>(r.errors));
  if (!r.ok) {
    std::fprintf(stderr, "server_loadgen: %s\n", r.error.c_str());
    return 1;
  }
  if (r.errors > 0 || r.ops != trace.size()) {
    std::fprintf(stderr, "server_loadgen: %llu error replies, %llu/%zu ops completed\n",
                 static_cast<unsigned long long>(r.errors), static_cast<unsigned long long>(r.ops),
                 trace.size());
    return 1;
  }
  return 0;
}
