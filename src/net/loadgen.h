// net::RunLoadgen: an epoll-driven RESP load generator that replays a
// workload::Trace against a running front end over real sockets.
//
// Connection c replays the strided sub-stream c, c+C, c+2C, ... of the
// trace (the contended engine's client split), keeping up to `depth`
// commands in flight per connection. Each request goes through the same
// sim::RequestPolicy as the replay runner: the policy builds the CacheOp
// (value sizes included) and net::AppendCacheOp encodes it as the command
// the server maps back onto that op; a nil GET reply re-inserts the key
// when the policy says so, before the connection's next trace request. A
// served replay is therefore comparable — with one connection at depth 1,
// bit-identical — to the in-process run of the same trace.
//
// The result carries the verb/hit counts observed on the wire (including
// -LOADSHED sheds, counted separately from misses). It measures no wall
// time: served rates and latencies come from perfbench's wire workload.
#ifndef DITTO_NET_LOADGEN_H_
#define DITTO_NET_LOADGEN_H_

#include <cstdint>
#include <string>

#include "sim/request_policy.h"
#include "workloads/trace.h"

namespace ditto::net {

// Transport knobs; the request policy is inherited, shared with
// sim::RunOptions.
struct LoadgenOptions : sim::RequestPolicy {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 1;
  int depth = 1;  // pipelined commands in flight per connection
};

struct LoadgenResult {
  bool ok = false;
  std::string error;
  uint64_t ops = 0;     // trace requests completed (miss re-inserts excluded)
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t sets = 0;    // trace SETs + miss re-inserts
  uint64_t deletes = 0;
  uint64_t expires = 0;
  uint64_t shed = 0;    // commands answered -LOADSHED
  uint64_t errors = 0;  // other error replies / protocol surprises

  double hit_rate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

LoadgenResult RunLoadgen(const workload::Trace& trace, const LoadgenOptions& options);

}  // namespace ditto::net

#endif  // DITTO_NET_LOADGEN_H_
