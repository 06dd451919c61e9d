// Contended multi-client engine bench: N client threads share ONE memory
// pool with overlapping key ranges, exercising the CAS/retry paths the paper
// depends on (clients execute the cache logic, so they race on slots).
//
// Two sections:
//   1. Hot-path cost: single-client replay through the pre-refactor
//      allocation style (one heap std::string key per request) vs the
//      allocation-free runner path. Identical access order, so hit rates are
//      equal; the wall_mops ratio isolates the hot-path win.
//   2. --clients x --overlap sweep through sim::RunTraceContended: overlap
//      1.0 = all clients replay one shared key window (maximum racing),
//      0.0 = disjoint windows (contention only via shared freelists and
//      global counters). Window sizes shrink as overlap falls so the
//      aggregate footprint — and with it the expected hit rate — stays
//      roughly constant.
//
// Flags:
//   --keys=N        shared-universe key count          (default 8192)
//   --requests=N    trace length (x --scale)           (default 300000)
//   --clients=N     fix the client sweep to one value  (default 1,2,4,8)
//   --overlap=F     fix the overlap sweep to one value (default 0,0.5,1)
//   --workload=X    YCSB core workload                 (default A)
//   --theta=F       YCSB zipf skew                     (default 1.1)
//   --seed=N        trace seed                         (default 42)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace ditto;

// Replays the trace the way the runner did before the allocation-free
// refactor: a heap std::string key rendered with snprintf per request, plus a
// fresh result object per op. The access order matches sim::RunTrace with one
// client exactly, so the two paths report identical hit rates.
sim::RunResult ReplayAllocString(sim::CacheClient* client, const workload::Trace& trace,
                                 size_t value_bytes) {
  client->ResetForMeasurement();
  const std::string value(value_bytes, 'v');
  for (const workload::Request& req : trace) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k%016llx", static_cast<unsigned long long>(req.key));
    const std::string key = buf;  // the pre-refactor per-op heap allocation
    sim::CacheOp op;
    switch (req.op) {
      case workload::Op::kGet:
      case workload::Op::kMultiGet:
        op = sim::CacheOp::Get(key, /*want_value=*/false);
        break;
      case workload::Op::kUpdate:
      case workload::Op::kInsert:
        op = sim::CacheOp::Set(key, value);
        break;
      case workload::Op::kDelete:
        op = sim::CacheOp::Delete(key);
        break;
      case workload::Op::kExpire:
        op = sim::CacheOp::Expire(key, 64);
        break;
    }
    sim::CacheResult result;
    client->ExecuteBatch({&op, 1}, &result);
    if (op.kind == sim::OpKind::kGet && !result.hit()) {
      client->Set(key, value);  // set_on_miss, as the runner does
    }
  }
  client->Finish();
  const sim::ClientCounters c = client->counters();
  sim::RunResult r;
  r.ops = trace.size();
  r.gets = c.gets;
  r.hits = c.hits;
  r.misses = c.misses;
  r.sets = c.sets;
  r.hit_rate = c.gets == 0 ? 0.0 : static_cast<double>(c.hits) / static_cast<double>(c.gets);
  return r;
}

// Remaps the trace for an overlap level in [0, 1]: client c of n owns the key
// window [start_c, start_c + W) with start_c = c*(1-overlap)*W, and W chosen
// so the last window ends at `keys` — the aggregate footprint stays ~constant
// across overlap levels while the shared fraction of any two windows is
// `overlap`. Request i belongs to client i % n (the contended engine's
// striding), so its key is folded into that client's window.
workload::Trace RemapForOverlap(const workload::Trace& trace, uint64_t keys, int clients,
                                double overlap) {
  const double span = 1.0 + (clients - 1) * (1.0 - overlap);
  const uint64_t window = std::max<uint64_t>(1, static_cast<uint64_t>(
                                                    static_cast<double>(keys) / span));
  workload::Trace out = trace;
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t c = i % static_cast<size_t>(clients);
    const uint64_t start = static_cast<uint64_t>(
        std::llround(static_cast<double>(c) * (1.0 - overlap) * static_cast<double>(window)));
    out[i].key = start + out[i].key % window;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ditto;
  constexpr int kHotPathRounds = 3;  // best-of-N damps scheduler noise
  Flags flags(argc, argv);
  const uint64_t keys = flags.GetInt("keys", 8192);
  const uint64_t requests = flags.GetInt("requests", 300000) * flags.GetInt("scale", 1);
  const uint64_t seed = flags.GetInt("seed", 42);
  const std::string workload_name = flags.GetString("workload", "A");
  const double theta = flags.GetDouble("theta", 1.1);
  const uint64_t capacity = std::max<uint64_t>(1, keys / 4);

  bench::PrintHeader("contended-engine",
                     "multi-client replay against ONE shared pool: clients x overlap sweep");

  workload::YcsbConfig ycsb;
  ycsb.num_keys = keys;
  // A hot head (theta > 1) plus a 4x-over-subscribed capacity keeps the
  // update-CAS and eviction/victim races busy; that contention is what this
  // bench exists to measure.
  ycsb.zipf_theta = theta;
  const workload::Trace trace =
      bench::MakeYcsbTraceOrExit("contended_engine", workload_name, &ycsb, requests, seed);

  core::DittoConfig config;
  config.experts = {"lru", "lfu"};

  // --- Section 1: hot-path cost, single client, cost model off ------------
  // The comparison deployment fits the whole keyspace (capacity = keys): at a
  // steady ~100% hit rate the replay loop itself dominates, which is exactly
  // the path the allocation-free refactor targets. The churny sweep capacity
  // below would bury that signal under eviction sampling.
  std::printf("# workload=YCSB-%c keys=%llu requests=%llu sweep_capacity=%llu\n",
              ycsb.workload, static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(capacity));
  std::printf("# single-thread replay hot path (cost model off; wall clock; best of %d)\n",
              kHotPathRounds);
  std::printf("%-22s %12s %10s\n", "path", "wall_mops", "hit_pct");

  double wall_string = 0.0;
  double wall_free = 0.0;
  double hit_string = 0.0;
  double hit_free = 0.0;
  for (int round = 0; round < kHotPathRounds; ++round) {
    {
      bench::DittoDeployment d = bench::MakeDitto(
          bench::MakePoolConfig(keys, 1, /*costed=*/false), config, 1);
      const bench::WallTimer timer;
      sim::RunResult r = ReplayAllocString(d.raw[0], trace, 128);
      wall_string = std::max(wall_string, timer.Mops(r.ops));
      hit_string = r.hit_rate;
      if (round + 1 == kHotPathRounds) {
        std::printf("%-22s %12.3f %10.2f\n", "alloc-string", wall_string,
                    r.hit_rate * 100.0);
        bench::EmitBenchJson("contended", "clients=1,path=alloc-string", r, wall_string);
      }
    }
    {
      bench::DittoDeployment d = bench::MakeDitto(
          bench::MakePoolConfig(keys, 1, /*costed=*/false), config, 1);
      sim::RunOptions options;
      options.value_bytes = 128;
      // No warmup here, so the engine's own wall measurement covers the whole
      // replay — the same region ReplayAllocString's timer covers above.
      sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);
      wall_free = std::max(wall_free, r.wall_mops);
      hit_free = r.hit_rate;
      if (round + 1 == kHotPathRounds) {
        std::printf("%-22s %12.3f %10.2f\n", "alloc-free", wall_free, r.hit_rate * 100.0);
        // The deployment is uncosted, so the virtual-time fields are
        // artifacts (~1ns elapsed); report only the measured wall rate so
        // the JSON trajectory stays diffable.
        r.throughput_mops = 0.0;
        r.p50_us = 0.0;
        r.p99_us = 0.0;
        bench::EmitBenchJson("contended", "clients=1,path=alloc-free", r, wall_free);
      }
    }
  }
  if (hit_string != hit_free) {
    std::printf("# WARNING: hit rates diverged (%.6f vs %.6f) — paths are not equivalent\n",
                hit_string, hit_free);
  }
  std::printf("# alloc-free / alloc-string speedup: %.2fx\n\n",
              wall_string > 0.0 ? wall_free / wall_string : 0.0);

  // --- Section 2: clients x overlap sweep ---------------------------------
  std::vector<int> client_counts = {1, 2, 4, 8};
  if (flags.Has("clients")) {
    client_counts = {static_cast<int>(flags.GetInt("clients", 1))};
  }
  std::vector<double> overlaps = {0.0, 0.5, 1.0};
  if (flags.Has("overlap")) {
    overlaps = {flags.GetDouble("overlap", 1.0)};
  }

  std::printf("%-8s %8s %12s %12s %8s %14s %14s\n", "clients", "overlap", "wall_mops",
              "tput_mops", "hit_pct", "cas_failures", "insert_retries");
  for (const int clients : client_counts) {
    for (const double overlap : overlaps) {
      const workload::Trace contended = RemapForOverlap(trace, keys, clients, overlap);
      core::DittoConfig contended_config = config;
      contended_config.validate_inserts = true;  // shared pool: insert races possible
      bench::DittoDeployment d =
          bench::MakeDitto(bench::MakePoolConfig(capacity), contended_config, clients);
      sim::RunOptions options;
      options.value_bytes = 128;
      options.warmup_fraction = 0.2;
      // The engine measures wall time over the measured region only (warmup
      // excluded), consistent with every other bench's wall_mops.
      const sim::RunResult r = sim::RunTraceContended(d.raw, contended, d.nodes, options);
      std::printf("%-8d %8.2f %12.3f %12.3f %8.2f %14llu %14llu\n", clients, overlap,
                  r.wall_mops, r.throughput_mops, r.hit_rate * 100.0,
                  static_cast<unsigned long long>(r.cas_failures),
                  static_cast<unsigned long long>(r.insert_retries));
      char label[64];
      std::snprintf(label, sizeof(label), "clients=%d,overlap=%.2f", clients, overlap);
      bench::EmitBenchJson("contended", label, r);
    }
  }
  std::printf("\n# expected shape: cas_failures grow with clients and overlap; the\n"
              "# alloc-free row beats alloc-string at identical hit rate.\n");
  return 0;
}
