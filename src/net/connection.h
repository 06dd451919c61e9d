// net::Connection: the per-socket protocol state machine of the front end.
//
// A connection owns its fd, an input ring the reactor reads socket bytes
// into, an output ring replies are staged in, and a RespParser. Each
// readable event runs one *batch*: every complete pipelined command is
// parsed and validated out of the input ring first (acquiring a slot per
// cache op from the server's global in-flight budget — commands past the
// watermark are marked shed and answered `-LOADSHED` instead of executing;
// commands rejected by validation take no slot and count no op), then the
// admitted commands execute in order against the reactor's CacheClient
// through the typed CacheOp protocol, and the replies are formatted into
// the output ring in command order. Argument views alias the input ring for
// the whole batch (see ring_buffer.h), so the hot path allocates nothing at
// steady state.
//
// Batch pipelining: a single-op command (GET, SET, EXPIRE, TTL, one-key DEL)
// is issued through CacheClient::ExecutePipelined into an in-flight window of
// kWindowOps completions (sim::PipelineWindow), the QP's limit on
// outstanding signalled work requests. Ops still execute one at a time in
// command order, so replies, hit rates and verb counts are those of blocking
// execution; only their verb waits overlap in virtual time. Multi-key
// commands (MGET, multi-key DEL) serialize: the window drains, then the
// command runs as one fused ExecuteBatch. Every op of a batch retires before
// ProcessInput returns, so the client clock has reached the batch's latest
// completion before its replies are flushed. A one-command batch is exactly
// blocking execution.
//
// Command -> CacheOp mapping (RESP2 subset):
//   GET k            -> kGet        -> $value | $-1
//   SET k v [EX t]   -> kSet(ttl=t) -> +OK | -OOM (kDropped)
//
// Any command whose cache op comes back kUnavailable (a cluster deployment's
// backing node crashed, or the op exhausted its retries) answers
// `-UNAVAILABLE <detail>` instead of its normal reply: a silent nil would
// read as "key absent" and poison negative caches. Multi-key commands
// (DEL/MGET) answer -UNAVAILABLE when ANY of their keys was unrouteable.
//   DEL k [k...]     -> kDelete xN  -> :deleted_count
//   EXPIRE k t       -> kExpire     -> :1 | :0
//   MGET k [k...]    -> kMultiGet run (Gets in one doorbell chain) -> array
//   TTL k            -> kGet probe  -> :-1 (cached; ticks not readable) | :-2
//   PING [msg]       -> no op       -> +PONG | $msg
//   INFO             -> no op       -> $<stats text>
//   QUIT             -> no op       -> +OK, then close after flush
//
// Backpressure: when the output ring exceeds the per-connection pending-byte
// cap the reactor stops polling the connection for input until the peer
// drains below half the cap; a protocol error is answered with a RESP error
// and the connection closes after the flush.
#ifndef DITTO_NET_CONNECTION_H_
#define DITTO_NET_CONNECTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/resp.h"
#include "net/ring_buffer.h"
#include "sim/cache_op.h"
#include "sim/client_iface.h"
#include "sim/pipeline_window.h"

namespace ditto::net {

// Services a Connection needs from its reactor/server. Implemented by the
// server's reactor; a test can implement it directly to drive a Connection
// without sockets.
class ConnectionHost {
 public:
  virtual ~ConnectionHost() = default;
  // Reserves `n` cache-op slots from the global in-flight budget. A false
  // return sheds the command.
  virtual bool AcquireOps(size_t n) = 0;
  virtual void ReleaseOps(size_t n) = 0;
  // The cache client this connection's ops execute on (one per reactor).
  virtual sim::CacheClient* client() = 0;
  // Fills `out` with the INFO payload.
  virtual void FormatInfo(std::string* out) = 0;
  // Command/op/shed accounting (server-wide stats).
  virtual void OnCommands(uint64_t commands, uint64_t ops, uint64_t shed_ops) = 0;
  virtual const RespLimits& limits() = 0;
};

class Connection {
 public:
  // In-flight window of single-op commands within one batch.
  static constexpr size_t kWindowOps = 32;

  Connection(int fd, ConnectionHost* host)
      : fd_(fd), host_(host), parser_(host->limits()), window_(kWindowOps) {}

  int fd() const { return fd_; }
  RingBuffer& in() { return in_; }
  RingBuffer& out() { return out_; }

  // Parses and executes every complete command currently in the input ring,
  // staging replies in the output ring. Returns false when the connection
  // must close (QUIT, protocol error) once the output flushes.
  bool ProcessInput();

  // True once the peer asked to QUIT or a protocol error was answered: the
  // reactor flushes the output ring and then closes.
  bool closing() const { return closing_; }

 private:
  enum class Verb : uint8_t {
    kGet, kSet, kDel, kExpire, kMget, kTtl, kPing, kQuit, kInfo, kUnknown
  };

  // One parsed-and-validated but not yet executed command of the current
  // batch. Argument views alias the input ring and stay valid for the batch.
  struct PendingCmd {
    size_t args_begin = 0;  // range into batch_args_
    size_t args_end = 0;
    Verb verb = Verb::kUnknown;
    std::string_view error;  // non-empty: validation failed, answered without executing
    uint64_t ttl_ticks = 0;  // SET ... EX t / EXPIRE k t
    size_t ops = 0;          // cache ops it executes: 0 when rejected or op-less
    bool shed = false;
  };

  // Fills the verb, validation outcome, TTL and op count of `cmd`.
  static void Classify(const std::string_view* args, size_t argc, PendingCmd* cmd);
  bool ExecuteCommand(const PendingCmd& cmd);
  // Issues one op into the in-flight window; the result is valid until the
  // next Issue.
  const sim::CacheResult& Issue(const sim::CacheOp& op);
  // Drains the window, then executes ops_ as one fused batch into results_.
  void ExecuteSerialized();
  // Appends `-UNAVAILABLE '<verb>' aborted: ...`.
  void Unavailable(std::string_view verb);

  int fd_;
  ConnectionHost* host_;
  RespParser parser_;
  RingBuffer in_;
  RingBuffer out_;
  bool closing_ = false;
  sim::PipelineWindow window_;

  // Batch scratch, reused across readable events (no steady-state allocs).
  RespCommand cmd_;
  std::vector<std::string_view> batch_args_;
  std::vector<PendingCmd> batch_;
  sim::CacheResult result_;  // the last Issue's result
  std::vector<sim::CacheOp> ops_;
  std::vector<sim::CacheResult> results_;
  std::string info_;
};

}  // namespace ditto::net

#endif  // DITTO_NET_CONNECTION_H_
