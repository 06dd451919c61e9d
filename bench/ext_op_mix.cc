// Typed-operation mix sweep over the CacheOp/ExecuteBatch protocol: replays
// a zipfian GET stream with controlled fractions of DELETE / EXPIRE /
// MULTIGET ops at several multi-get pipeline widths, reporting throughput,
// hit rate, op-outcome counters, and modeled wire traffic.
//
// The headline comparison is the last sweep block: the same lookup stream
// replayed with unfused multi-gets (batch=1, every key its own doorbell
// chain) versus fused pipelines (batch=8/32) must show strictly fewer NIC
// doorbells at equal hit rate — the protocol-level payoff of redesigning the
// client surface around batches.
//
// Flags:
//   --keys=N          key-space size                  (default 20000)
//   --requests=N      trace length                    (default 100000)
//   --clients=N       concurrent clients              (default 4)
//   --delete=F        DELETE fraction of Gets         (default sweep)
//   --expire=F        EXPIRE fraction of Gets         (default sweep)
//   --multiget=F      MULTIGET fraction of Gets       (default sweep)
//   --batch=N         multi-get pipeline width        (default sweep 1/8/32)
//   --ttl=N           EXPIRE TTL in logical ticks     (default 256)
//   --seed=N          trace seed                      (default 42)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

struct MixRow {
  const char* label;
  ditto::workload::OpMix mix;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ditto;
  Flags flags(argc, argv,
              {"batch", "clients", "delete", "expire", "keys", "multiget", "requests", "seed",
               "ttl"});
  const uint64_t keys = flags.GetInt<uint64_t>("keys", 20000, 1, bench::kMaxCount);
  const uint64_t requests = flags.GetInt<uint64_t>("requests", 100000, 1, bench::kMaxCount);
  const int clients = flags.GetInt<int>("clients", 4, 1, bench::kMaxClients);
  const uint64_t seed = flags.GetInt<uint64_t>("seed", 42, 0, UINT64_MAX);
  const uint64_t ttl = flags.GetInt<uint64_t>("ttl", 256, 1, bench::kMaxCount);

  bench::PrintHeader("ext-op-mix",
                     "typed op mix (GET/SET/DELETE/EXPIRE/MULTIGET) x multi-get batch sweep");

  std::vector<MixRow> mixes;
  if (flags.Has("delete") || flags.Has("expire") || flags.Has("multiget")) {
    workload::OpMix mix;
    mix.delete_fraction = flags.GetDouble("delete", 0.0);
    mix.expire_fraction = flags.GetDouble("expire", 0.0);
    mix.multiget_fraction = flags.GetDouble("multiget", 0.0);
    mixes.push_back({"custom", mix});
  } else {
    mixes.push_back({"pure-get", {}});
    mixes.push_back({"del-10%", {0.10, 0.0, 0.0}});
    mixes.push_back({"exp-10%", {0.0, 0.10, 0.0}});
    mixes.push_back({"mget-50%", {0.0, 0.0, 0.50}});
    mixes.push_back({"mixed", {0.05, 0.05, 0.40}});
  }
  std::vector<size_t> batch_sweep = {1, 8, 32};
  if (flags.Has("batch")) {
    batch_sweep = {flags.GetInt<size_t>("batch", 8, 1, bench::kMaxBatch)};
  }

  workload::YcsbConfig ycsb;
  ycsb.workload = 'B';  // 95% reads: a realistic cache mix to rewrite
  ycsb.num_keys = keys;
  const workload::Trace trace = workload::MakeYcsbTrace(ycsb, requests, seed);

  std::printf("# workload=YCSB-%c keys=%llu requests=%llu clients=%d ttl=%llu\n", ycsb.workload,
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(requests), clients,
              static_cast<unsigned long long>(ttl));
  std::printf("%-10s %6s %10s %8s %9s %9s %9s %13s %11s\n", "mix", "batch", "tput_mops",
              "hit_pct", "deletes", "expired", "evicts", "nic_messages", "doorbells");

  for (const MixRow& row : mixes) {
    // Only multi-get-bearing mixes react to the pipeline width; sweep the
    // others once at batch=1 to keep the table compact.
    const bool sweeps_batch = row.mix.multiget_fraction > 0.0;
    for (const size_t batch : batch_sweep) {
      if (!sweeps_batch && batch != batch_sweep.front()) {
        continue;
      }
      core::DittoConfig config;
      config.experts = {"lru", "lfu"};
      bench::DittoDeployment d = bench::MakeDitto(
          bench::MakePoolConfig(std::max<uint64_t>(1, keys / 2)), config, clients);
      sim::RunOptions options;
      options.warmup_fraction = 0.2;
      options.op_mix = row.mix;
      options.multiget_batch = batch;
      options.expire_ttl_ticks = ttl;
      const sim::RunResult r = sim::RunTrace(d.raw, trace, d.nodes, options);
      std::printf("%-10s %6zu %10.3f %8.2f %9llu %9llu %9llu %13llu %11llu\n", row.label,
                  sweeps_batch ? batch : 1, r.throughput_mops, r.hit_rate * 100.0,
                  static_cast<unsigned long long>(r.deletes),
                  static_cast<unsigned long long>(r.expired),
                  static_cast<unsigned long long>(r.evictions),
                  static_cast<unsigned long long>(r.nic_messages),
                  static_cast<unsigned long long>(r.nic_doorbells));
    }
  }
  std::printf("\n# expected shape: within a mget row, batch=8/32 issue strictly fewer\n"
              "# doorbells than batch=1 at identical hit_pct; delete/expire mixes surface\n"
              "# nonzero deletes/expired without disturbing the remaining GET hit rate.\n");
  return 0;
}
