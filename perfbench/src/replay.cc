// The two replay workloads: sim::RunTrace on one host thread against one
// memory node, repeated (fresh deployment each time) until the time budget
// is spent. Host figures are the slow quartile over the repetitions; every
// modelled figure and count must come out identical in each repetition.
//
//   replay-ycsb-c         64 closed-loop clients, read-only YCSB-C over
//                         ~100k preloaded keys, cache holds them all.
//   replay-churn-elastic  8 closed-loop clients, MakeChangingWorkload with
//                         cache = 1/10 of the footprint, halved mid-run and
//                         then restored.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "deployment.h"
#include "harness.h"
#include "host_probe.h"
#include "metrics.h"
#include "sim/runner.h"
#include "workloads/synthetic_traces.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace perfbench {
namespace {

using ditto::sim::RunResult;

constexpr size_t kValueBytes = 232;
constexpr uint64_t kYcsbKeys = 100'000;
constexpr uint64_t kYcsbRequests = 1'000'000;
constexpr uint64_t kChurnKeys = 20'000;
constexpr uint64_t kChurnPhaseLen = 100'000;
// Table geometry for the churn cache (~4.1k objects): fixed, so seeds whose
// capacity lands on either side of a power of two sample the same table.
constexpr uint64_t kChurnTableObjects = 6'000;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 40;

// Everything one repetition builds before it measures.
struct ReplaySetup {
  ditto::workload::Trace trace;
  ditto::workload::Trace preload;  // replayed (unmeasured) before the trace
  uint64_t capacity = 0;
  uint64_t table_objects = 0;
  int clients = 1;
  ditto::sim::RunOptions options;
};

// Sizes get a seed-derived offset below 4096, so runs with different seeds
// also differ in client interleaving (the runner seeds it by trace length).
ReplaySetup MakeSetup(const std::string& workload, uint64_t seed) {
  ReplaySetup s;
  const uint64_t jitter = ditto::Mix64(seed) % 4096;
  s.options.value_bytes = kValueBytes;
  s.options.miss_penalty_us = 0.0;
  s.options.set_on_miss = true;
  if (workload == "replay-ycsb-c") {
    ditto::workload::YcsbConfig config;
    config.workload = 'C';
    config.num_keys = kYcsbKeys + jitter;
    config.zipf_theta = 0.99;
    config.value_bytes = kValueBytes;
    s.trace = ditto::workload::MakeYcsbTrace(config, kYcsbRequests + jitter, seed);
    s.preload.reserve(config.num_keys);
    for (uint64_t k = 0; k < config.num_keys; ++k) {
      s.preload.push_back({ditto::workload::Op::kInsert, k});
    }
    // Room for every key, and a table with ~8 slots per key so no bucket
    // overflows: nothing is ever evicted.
    s.capacity = config.num_keys + config.num_keys / 4;
    s.table_objects = 2 * (kYcsbKeys + 4096);
    s.clients = 64;
  } else {
    s.trace = ditto::workload::MakeChangingWorkload(4, kChurnPhaseLen + jitter, kChurnKeys, seed);
    s.capacity = std::max<uint64_t>(ditto::workload::Footprint(s.trace) / 10, 64);
    s.table_objects = kChurnTableObjects;
    s.clients = 8;
    s.options.warmup_fraction = 0.1;
    s.options.resize_schedule = {{0.35, s.capacity / 2}, {0.65, s.capacity}};
  }
  return s;
}

// A host figure of one repetition; `is_rate` when higher is better.
struct HostFigure {
  std::string name;
  double value = 0.0;
  bool is_rate = false;
};

// One repetition's figures: `exact` must repeat bit-for-bit, `wall` are
// host figures (their slow quartile over repetitions is reported).
struct RepOutcome {
  std::vector<std::pair<std::string, double>> exact;
  std::vector<HostFigure> wall;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Span storage reused by every repetition of a traced run, so repeated
// repetitions do not grow the heap; holds the last repetition's spans.
struct SpanBuffers {
  std::vector<Span> spans;
  std::vector<Interval> children;
};

// Nearest-rank percentile, in microseconds, of latencies in nanoseconds.
double Us(std::vector<uint32_t> ns, double p) { return NearestRank(&ns, p) / 1000.0; }

RepOutcome RunOnce(const std::string& workload, uint64_t seed, bool traced, SpanBuffers* buffers,
                   Report* report) {
  RepOutcome out;
  auto exact = [&out](const char* name, double v) { out.exact.emplace_back(name, v); };
  auto wall = [&out](const char* name, double v) { out.wall.push_back({name, v, false}); };
  auto rate = [&out](const char* name, double v) { out.wall.push_back({name, v, true}); };

  const uint64_t setup_begin = NowNs();
  ReplaySetup setup = MakeSetup(workload, seed);
  std::atomic<int> phase{kSetupPhase};
  Recorder rec;
  rec.traced = traced;
  buffers->spans.clear();
  rec.spans.swap(buffers->spans);
  ditto::core::DittoConfig config;  // adaptive LRU+LFU, the paper's default
  Deployment d(PoolFor(setup.capacity, setup.table_objects), config, setup.clients, {&rec}, &phase);
  rec.node = &d.node();
  rec.controller = &d.server->controller();

  // ycsb-c reports Set latency from its preload: its measured trace has none.
  // The recorder starts over at each RunTrace's measurement boundary.
  phase.store(kMeasuredPhase);
  std::vector<uint32_t> preload_set_wall;
  uint64_t preload_set_calls = 0, preload_set_wall_ns = 0;
  if (!setup.preload.empty()) {
    const RunResult pre = ditto::sim::RunTrace(d.clients, setup.preload, &d.node(), setup.options);
    out.attempted += pre.ops;
    out.failed += rec.failed;
    preload_set_wall = rec.wall_samples[kSetOp];
    preload_set_calls = rec.calls[kSetOp];
    preload_set_wall_ns = rec.wall_ns[kSetOp];
  }
  const RunResult r = ditto::sim::RunTrace(d.clients, setup.trace, &d.node(), setup.options);
  const uint64_t replay_end = NowNs();
  const uint64_t replay_cpu_ns = CpuNs() - rec.measure_begin_cpu_ns;
  phase.store(kSetupPhase);  // the read-back checks below are not measured
  // Warmup runs inside RunTrace, before the measurement boundary.
  const double setup_s = static_cast<double>(rec.measure_begin_ns - setup_begin) / 1e9;

  // Counters of the measured region.
  ClientSnapshot delta = d.SumSnapshots();
  for (auto& t : d.traced) {
    Deployment::Accumulate(&delta, t->measure_snapshot(), -1);
  }
  const NodeSnapshot node_end = SnapNode(d.node());
  const NodeSnapshot& node_begin = rec.node_at_begin;
  const uint64_t ops = r.ops;
  const double elapsed_ns = r.elapsed_s * 1e9;
  out.attempted += ops;
  out.failed += rec.failed;

  std::vector<uint32_t> all_ns = rec.virt_ns[kGetOp];
  all_ns.insert(all_ns.end(), rec.virt_ns[kSetOp].begin(), rec.virt_ns[kSetOp].end());
  const bool preload_sets = !setup.preload.empty();
  const std::vector<uint32_t>& set_wall = preload_sets ? preload_set_wall : rec.wall_samples[kSetOp];

  if (SamplesBeyond(all_ns.size(), 99) < kMinSamplesBeyond) {
    report->Fail(workload + ": too few ops for a p99");
  }
  exact("hit_rate", r.hit_rate);
  exact("virtual_mops", r.throughput_mops);
  exact("virtual_p50_us", Us(all_ns, 50));
  exact("virtual_p99_us", Us(all_ns, 99));
  exact("error_rate", Ratio(rec.failed, ops));
  exact("core.evictions_per_set", Ratio(delta.stats.evictions, delta.stats.sets));
  exact("core.regrets", static_cast<double>(delta.stats.regrets));
  exact("core.adaptive_flushes",
        static_cast<double>(d.server->controller().updates_received() - rec.flushes_at_begin));
  exact("core.weight_lru", d.server->controller().weights()[0]);
  exact("core.cas_failures", static_cast<double>(delta.stats.cas_failures));
  exact("core.insert_retries", static_cast<double>(delta.stats.insert_retries));
  exact("core.dup_resolved", static_cast<double>(delta.stats.dup_resolved));
  exact("core.set_retries", static_cast<double>(delta.stats.set_retries));
  exact("rdma.reads_per_op", Ratio(delta.reads, ops));
  exact("rdma.writes_per_op", Ratio(delta.writes, ops));
  exact("rdma.atomics_per_op", Ratio(delta.atomics, ops));
  exact("rdma.rpcs_per_op", Ratio(delta.rpcs, ops));
  exact("rdma.nic_msgs_per_op", Ratio(r.nic_messages, ops));
  exact("rdma.doorbells_per_op", Ratio(r.nic_doorbells, ops));
  exact("rdma.nic_bytes_per_op", Ratio(node_end.bytes - node_begin.bytes, ops));
  exact("rdma.nic_util",
        static_cast<double>(node_end.nic_horizon_ns - node_begin.nic_horizon_ns) / elapsed_ns);
  exact("rdma.cpu_util",
        static_cast<double>(node_end.cpu_horizon_ns - node_begin.cpu_horizon_ns) / elapsed_ns);
  exact("rdma.cpu_rpcs", static_cast<double>(r.rpc_ops));
  exact("dm.cached_objects", static_cast<double>(d.pool->cached_objects()));
  exact("dm.fill", Ratio(d.pool->cached_objects(), d.pool->capacity_objects()));
  exact("dm.segments_allocated", static_cast<double>(d.pool->segments_allocated()));
  exact("sim.gets", static_cast<double>(r.gets));
  exact("sim.ops", static_cast<double>(ops));

  // Host rate of the measured replay over the replay thread's CPU time: the
  // time this shared host takes the CPU away is left out, so the figure
  // tracks the code rather than the neighbours. (RunResult::wall_s and this
  // agree on a quiet host.)
  const double replay_mops = static_cast<double>(ops) / static_cast<double>(replay_cpu_ns) * 1e3;
  wall("setup_s", setup_s);
  rate("replay_mops", replay_mops);
  // A closed loop has no offered rate to hold to a limit, so goodput_qps is
  // replay_mops again, in req/s: one measurement, not a second one.
  rate("goodput_qps", replay_mops * 1e6);
  // In-process latency: host time inside one client call (sampled).
  wall("get_p50_us", Us(rec.wall_samples[kGetOp], 50));
  wall("set_p50_us", Us(set_wall, 50));
  if (traced) {
    // sim self time: the measured replay minus the client calls inside it.
    const Interval replay{rec.measure_begin_ns, replay_end};
    std::vector<Interval>& children = buffers->children;
    children.clear();
    for (const Span& s : rec.spans) {
      children.push_back({s.begin_ns, s.end_ns});
    }
    const uint64_t core_ns = rec.wall_ns[kGetOp] + rec.wall_ns[kSetOp] + rec.wall_ns[kOtherOp];
    const uint64_t self_ns = rec.spans_dropped == 0
                                 ? SelfTimeNs(replay, &children)
                                 : (replay.end_ns - replay.begin_ns) - core_ns;
    wall("sim.self_ns_per_op", Ratio(self_ns, ops));
    wall("core.get_ns", Ratio(rec.wall_ns[kGetOp], rec.calls[kGetOp]));
    wall("core.set_ns", preload_sets ? Ratio(preload_set_wall_ns, preload_set_calls)
                                     : Ratio(rec.wall_ns[kSetOp], rec.calls[kSetOp]));
    rec.spans.push_back(Span{replay.begin_ns, replay.end_ns, 0, 0, 0, SpanName::kSimReplay,
                             kOtherOp});
  }
  rec.spans.swap(buffers->spans);

  // Output checks: every preloaded key must hit with the value the replay
  // stored (its length is the key's); on the churn workload a hit must
  // return that value.
  if (preload_sets && (r.hit_rate != 1.0 || delta.stats.evictions != 0)) {
    report->Fail(workload + ": preloaded cache missed (hit_rate " + std::to_string(r.hit_rate) +
                 ", evictions " + std::to_string(delta.stats.evictions) + ")");
  }
  std::string value;
  const size_t stride = std::max<size_t>(setup.trace.size() / 1024, 1);
  for (size_t i = 0; i < setup.trace.size(); i += stride) {
    const uint64_t k = setup.trace[i].key;
    const std::string key = ditto::workload::KeyString(k);
    const bool hit = d.clients[0]->Get(key, &value);
    if ((hit && value != std::string(setup.options.ValueBytesFor(k), 'v')) ||
        (!hit && preload_sets)) {
      report->Fail(workload + ": key " + key + (hit ? " returned a wrong value" : " missed"));
      break;
    }
  }
  return out;
}

}  // namespace

void RunReplay(const RunArgs& args, Report* report) {
  const CpuTimes cpu_before = ReadCpuTimes();
  const StallProbe probe = ProbeStalls(0.3);

  std::vector<RepOutcome> reps;
  SpanBuffers buffers;
  const uint64_t begin = NowNs();
  while (static_cast<int>(reps.size()) < kMinReps ||
         (static_cast<int>(reps.size()) < kMaxReps &&
          static_cast<double>(NowNs() - begin) / 1e9 < args.seconds)) {
    reps.push_back(RunOnce(args.workload, args.seed, args.traced, &buffers, report));
    std::printf("# rep %zu: setup %.3fs replay %.3f Mops\n", reps.size(),
                reps.back().wall[0].value, reps.back().wall[1].value);
  }

  const RepOutcome& first = reps.front();
  for (size_t i = 1; i < reps.size(); ++i) {
    for (size_t k = 0; k < first.exact.size(); ++k) {
      if (reps[i].exact[k].second != first.exact[k].second) {
        report->Fail(args.workload + ": " + first.exact[k].first + " differs between repetitions (" +
                     std::to_string(first.exact[k].second) + " vs " +
                     std::to_string(reps[i].exact[k].second) + ")");
      }
    }
  }
  for (const auto& [name, v] : first.exact) {
    report->Set(name, v);
    report->Fingerprint(name, v);
  }
  for (size_t k = 0; k < first.wall.size(); ++k) {
    std::vector<double> values;
    for (const RepOutcome& rep : reps) {
      values.push_back(rep.wall[k].value);
    }
    report->Set(first.wall[k].name, SlowQuartile(values, first.wall[k].is_rate));
  }
  for (const RepOutcome& rep : reps) {
    report->AddAttempted(rep.attempted);
    report->AddFailed(rep.failed);
  }
  report->Set("reps", static_cast<double>(reps.size()));
  report->Set("peak_rss_mb", PeakRssMb());
  RecordHostNoise(probe, cpu_before, report);
  if (args.traced) {
    WriteSpans(args.spans_path, std::move(buffers.spans));
  }
}

}  // namespace perfbench
