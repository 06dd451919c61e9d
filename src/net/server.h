// net::Server: the multi-reactor TCP front end serving the Ditto cache over
// RESP2 (see connection.h for the protocol subset).
//
// Architecture: `reactors` event-loop threads, each owning
//   * its own listening socket bound with SO_REUSEPORT to the same port, so
//     the kernel spreads incoming connections across reactors with no
//     shared accept lock,
//   * an epoll instance polling that acceptor plus every connection the
//     reactor owns (level-triggered),
//   * one CacheClient all of the reactor's connections execute ops on.
// Connections never migrate between reactors, so each CacheClient stays
// single-threaded; reactors of one server share the memory pool exactly
// like the contended replay engine's clients (deployments with more than
// one reactor need DittoConfig::validate_inserts, same as any shared-pool
// multi-client deployment).
//
// Overload behaviour (all explicit, never a stall or a crash):
//   * past `max_conns` live connections, an acceptor answers
//     `-ERR max connections reached` and closes immediately;
//   * past the global `shed_watermark` of in-flight cache ops, a parsed
//     command is answered `-LOADSHED ...` instead of executing;
//   * past kMaxPendingBytes (1 MiB, server.cc) of unflushed replies, the
//     reactor stops reading from that connection until the peer drains
//     below half.
#ifndef DITTO_NET_SERVER_H_
#define DITTO_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/resp.h"
#include "sim/client_iface.h"

namespace ditto::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = let the kernel pick; read back via Server::port()
  size_t max_conns = 1024;              // global live-connection cap
  size_t shed_watermark = 64 << 10;     // global in-flight cache-op cap; 0 = unlimited
  RespLimits limits;                    // parser caps (bulk size, arg count)
};

// Monotonic server-wide counters (atomically maintained, snapshot via
// Server::stats()).
struct ServerStats {
  uint64_t accepted = 0;        // connections admitted
  uint64_t rejected_conns = 0;  // accept-and-closed past max_conns
  uint64_t live_conns = 0;      // currently open
  uint64_t commands = 0;        // commands parsed (admitted + shed)
  uint64_t ops = 0;             // cache ops executed
  uint64_t shed_ops = 0;        // cache ops answered -LOADSHED
};

class Server {
 public:
  // One CacheClient per reactor; clients.size() is the reactor count. The
  // clients must share one deployment (pool + server) when there is more
  // than one of them, exactly like RunTraceContended's clients.
  Server(std::vector<sim::CacheClient*> clients, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the acceptors and spawns the reactor threads. On failure fills
  // *error and returns false (nothing keeps running).
  bool Start(std::string* error);

  // Graceful shutdown: stops accepting, closes every connection, joins the
  // reactor threads, and flushes each client's buffered work (Finish()).
  // Idempotent.
  void Stop();

  // The bound TCP port (after Start with options.port == 0).
  uint16_t port() const { return port_; }
  int reactors() const { return static_cast<int>(clients_.size()); }

  ServerStats stats() const;

 private:
  class Reactor;

  // Global in-flight cache-op budget (the -LOADSHED watermark). Acquire is
  // a single fetch_add race-checked against the watermark; no-ops when the
  // watermark is 0 (unlimited).
  bool AcquireOps(size_t n);
  void ReleaseOps(size_t n);

  std::vector<sim::CacheClient*> clients_;
  ServerOptions options_;
  uint16_t port_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<Reactor>> reactors_;

  // Shared overload state: see Reactor::AcquireOps / connection admission.
  std::atomic<uint64_t> inflight_ops_{0};
  std::atomic<uint64_t> live_conns_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_conns_{0};
  std::atomic<uint64_t> commands_{0};
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> shed_ops_{0};
};

}  // namespace ditto::net

#endif  // DITTO_NET_SERVER_H_
