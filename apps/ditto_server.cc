// ditto_server: serves the Ditto cache over RESP2 on a real TCP port.
//
//   ./ditto_server --port=6399 --reactors=2 --shards=1 --capacity=65536
//
// Builds a Ditto deployment (one shared memory pool, or a ClusterPool of
// --shards memory nodes when --shards > 1) with one cache client per
// reactor, starts the multi-reactor net::Server, and runs until
// SIGTERM/SIGINT. Shutdown is graceful: the signal stops the acceptors,
// closes every connection, joins the reactors, flushes the clients, prints
// the final stats line, and exits 0.
//
// With --reactors > 1 the reactors' clients contend on the shared pool, so
// DittoConfig::validate_inserts is forced on (same rule as any multi-client
// deployment).
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/server.h"

namespace {

void PrintUsage() {
  std::printf(
      "ditto_server: RESP2 front end for the Ditto cache\n"
      "  --host=ADDR        bind address (default 127.0.0.1)\n"
      "  --port=N           TCP port, 0 = kernel-assigned (default 6399)\n"
      "  --reactors=N       event-loop threads, one cache client each, 1-%d (default 1)\n"
      "  --shards=N         memory nodes in the pool, 1-%d (default 1)\n"
      "  --capacity=N       cache capacity in objects, per node (default 65536)\n"
      "  --max_conns=N      live-connection cap (default 1024)\n"
      "  --shed_watermark=N in-flight op cap before -LOADSHED, 0 = off (default 65536)\n",
      ditto::bench::kMaxThreads, ditto::bench::kMaxNodes);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ditto;

  const Flags flags(argc, argv,
                    {"capacity", "help", "host", "max_conns", "port", "reactors", "shards",
                     "shed_watermark"});
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  const int reactors = flags.GetInt<int>("reactors", 1, 1, bench::kMaxThreads);
  const int shards = flags.GetInt<int>("shards", 1, 1, bench::kMaxNodes);
  const uint64_t capacity = flags.GetInt<uint64_t>("capacity", 64 << 10, 1, bench::kMaxCount);

  net::ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = flags.GetInt<uint16_t>("port", 6399, 0, UINT16_MAX);
  options.max_conns = flags.GetInt<size_t>("max_conns", 1024, 1, 1 << 20);
  options.shed_watermark = flags.GetInt<size_t>("shed_watermark", 64 << 10, 0, bench::kMaxCount);

  core::DittoConfig config;
  config.validate_inserts = reactors > 1;

  // Keep the deployment alive for the whole server lifetime. Each reactor
  // gets its own client (and virtual clock); with --shards > 1 every client
  // fans out across the pool's memory nodes by key hash.
  const dm::PoolConfig pool_config = bench::MakePoolConfig(capacity);
  bench::DittoDeployment single;
  bench::ClusterDeployment cluster;
  std::vector<sim::CacheClient*> clients;
  if (shards == 1) {
    single = bench::MakeDitto(pool_config, config, reactors);
    clients = single.raw;
  } else {
    core::ClusterConfig cluster_config;
    cluster_config.nodes = shards;
    cluster_config.pool = pool_config;
    cluster_config.ditto = config;
    cluster = bench::MakeCluster(cluster_config, reactors);
    clients = cluster.raw;
  }

  // Block the shutdown signals before Start so the reactor threads inherit
  // the mask and delivery lands in this thread's sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  net::Server server(clients, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "ditto_server: %s\n", error.c_str());
    return 1;
  }
  std::printf("ditto_server: listening on %s:%u (reactors=%d shards=%d capacity=%llu "
              "max_conns=%zu shed_watermark=%zu)\n",
              options.host.c_str(), server.port(), reactors, shards,
              static_cast<unsigned long long>(capacity), options.max_conns,
              options.shed_watermark);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("ditto_server: received %s, shutting down\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  server.Stop();

  const net::ServerStats stats = server.stats();
  std::printf("ditto_server: served %llu commands (%llu ops, %llu shed) over %llu "
              "connections (%llu rejected)\n",
              static_cast<unsigned long long>(stats.commands),
              static_cast<unsigned long long>(stats.ops),
              static_cast<unsigned long long>(stats.shed_ops),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.rejected_conns));
  return 0;
}
