// Experiment runner: replays a workload trace against a set of cache clients
// on real threads (one per client) and reports throughput / latency / hit
// rate in virtual time.
//
// Time accounting: every client accumulates busy time on its virtual clock;
// the NIC and controller-CPU models advance their own FCFS horizons. The
// elapsed time of a phase is
//   max( max_i Δbusy_i , Δnic_horizon , Δcpu_horizon )
// and throughput is ops / elapsed. A Get miss pays the configured miss
// penalty (the paper's 500 us distributed-storage fetch) and re-inserts the
// object with Set.
//
// ReplayExact replays the same trace, schedules and interleave through one
// exact policy::PreciseCache: the precise baselines of the motivation study
// (Figures 3-5) and the warm / cold-restart LRU of the elasticity results.
#ifndef DITTO_SIM_RUNNER_H_
#define DITTO_SIM_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "policies/precise.h"
#include "rdma/node.h"
#include "sim/client_iface.h"
#include "sim/request_policy.h"
#include "workloads/trace.h"

namespace ditto::sim {

// One step of a deterministic elastic-scaling schedule: when the replay
// reaches request index `measure_begin + at_op_fraction * measured_ops`, the
// cache's aggregate capacity becomes `capacity_objects`. Steps are applied
// at identical request indices in RunTrace and RunTraceSharded; in the
// sharded engine every shard applies its even share of the aggregate when
// its own (thread-private) stream crosses the index, so the whole trajectory
// is invariant to the thread count.
struct ResizeStep {
  double at_op_fraction = 0.0;   // in [0, 1), fraction of the measured replay
  uint64_t capacity_objects = 0; // aggregate capacity after the step
};

// Replay knobs. The request policy (op mapping, value sizing, miss
// re-insert) is inherited from RequestPolicy, shared with net::RunLoadgen.
struct RunOptions : RequestPolicy {
  // Virtual-time cost of the backing-store fetch a re-inserted miss pays
  // before its Set (0 = none; misses still Set when set_on_miss).
  double miss_penalty_us = 0.0;
  // Fraction of each client's shard replayed as warmup (not measured).
  double warmup_fraction = 0.0;

  // Concurrent sharded engine (RunTraceSharded) knobs.
  int threads = 1;               // host worker threads driving the shards
  uint64_t partition_seed = 1;   // seeds the key -> shard partition
  // When > 0, every client doorbell-batches its async metadata verbs with a
  // chain of this many posts (duplicate addresses coalesce on the wire).
  size_t batch_ops = 0;

  // Op pipelining: every single-op request is issued through
  // CacheClient::ExecutePipelined into a per-client window of
  // pipeline_depth in-flight ops (sim::PipelineWindow), retired in issue
  // order; depth 1 (the default) is blocking replay. Ops still *execute*
  // (and mutate cache state) strictly in issue order — pipelining overlaps
  // only their virtual-time verb latencies via the clients' per-op
  // timelines (rdma::Verbs::BeginOp) — so hit rates, verb counts, and
  // eviction decisions are bit-identical for every depth; only
  // throughput/latency change. Clients without a per-op timeline degrade to
  // depth-1 behaviour. Fused multi-get runs serialize with the
  // pipeline (the window drains before a fused run issues).
  size_t pipeline_depth = 1;

  // Typed-op replay knobs. op_mix deterministically rewrites a fraction of
  // the trace's Gets into kDelete / kExpire / kMultiGet (a pure function of
  // the request index, so every engine and thread count replays the same op
  // stream). Consecutive kMultiGet requests of one client/shard fuse into a
  // pipelined multi-get of up to multiget_batch keys; kExpire arms
  // expire_ttl_ticks of TTL.
  workload::OpMix op_mix;
  size_t multiget_batch = 8;

  // Elastic scaling schedule (empty = fixed capacity). Applied to the
  // measured region only; steps are sorted by at_op_fraction before use.
  // Each step calls CacheClient::ResizeCapacity — clients without a resize
  // path ignore it, and the phase trajectory in RunResult still reports the
  // per-phase hit rates.
  std::vector<ResizeStep> resize_schedule;

  // Cluster lifecycle schedule (empty = stable membership), mirroring
  // resize_schedule: when the measured replay crosses a step's index, every
  // client calls CacheClient::ApplyLifecycle (cluster deployments apply it
  // globally-once; other clients ignore it). Steps are sorted by
  // at_op_fraction before use and applied at identical request indices in
  // every engine, like resizes.
  std::vector<LifecycleStep> lifecycle_schedule;

  // When > 0, RunTrace samples the measured region's aggregate hit rate into
  // RunResult::recovery every recovery_window_ops Get outcomes — the
  // fine-grained trajectory fault/lifecycle experiments need to see hit-rate
  // collapse and recovery around a schedule step. Windows aggregate across
  // all clients of the (single-host-thread) interleaved replay and are
  // bit-deterministic; the concurrent engines ignore the knob.
  size_t recovery_window_ops = 0;
};

// One recovery-trajectory sample: Get outcomes of one window of the measured
// replay (see RunOptions::recovery_window_ops).
struct RecoverySample {
  uint64_t gets = 0;
  uint64_t hits = 0;
  double HitRate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

// Aggregate hit rate of windows [begin, end) (clamped to windows.size()).
double MeanHitRate(const std::vector<RecoverySample>& windows, size_t begin, size_t end);

// Ops from the fault window until the first window whose hit rate is back at
// `target`; sums every post-fault window when the run never recovers.
uint64_t RecoveryOps(const std::vector<RecoverySample>& windows, size_t fault_window,
                     double target);

// Per-phase slice of a run, where phases are delimited by the resize
// schedule: phase 0 runs at the deployment's initial capacity
// (capacity_objects reported as 0), phase p >= 1 after schedule step p-1.
struct PhaseResult {
  uint64_t capacity_objects = 0;  // 0 = initial (pre-first-step) capacity
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate = 0.0;
};

// The counter fields (gets, hits, ..., cas_failures) are the clients' own
// ClientCounters, summed over the measured region.
struct RunResult : ClientCounters {
  uint64_t ops = 0;  // trace requests replayed (a miss's re-insert Set is not an extra op)
  double elapsed_s = 0.0;
  double throughput_mops = 0.0;
  double hit_rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t nic_messages = 0;
  uint64_t nic_doorbells = 0;
  uint64_t rpc_ops = 0;
  // Hit-rate trajectory across the resize schedule (resize_schedule.size()+1
  // entries; a single entry covering the whole run when no schedule is set).
  // Deterministic: identical for any RunTraceSharded thread count.
  std::vector<PhaseResult> phases;
  // Windowed hit-rate trajectory of the measured region (RunTrace only,
  // empty unless RunOptions::recovery_window_ops > 0). The final window may
  // be short. Deterministic for a fixed (trace, options, fault seed).
  std::vector<RecoverySample> recovery;
};

// Replays `trace` sharded round-robin over `clients`. `node` provides the
// NIC/CPU horizons (the memory node the clients talk to).
RunResult RunTrace(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                   rdma::RemoteNode* node, const RunOptions& options);

// Multi-memory-node variant: the elapsed-time bound uses every node's NIC
// and controller-CPU horizon.
RunResult RunTrace(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                   const std::vector<rdma::RemoteNode*>& nodes, const RunOptions& options);

// Replays `trace` through one exact cache of `capacity` objects, every
// request counting as one access (Get) whatever its op. `num_clients` > 1
// replays in the burst-interleaved order of that many concurrent clients
// (workload::ForEachInterleaved, seed 7). The measured region, resize and
// lifecycle schedules, phase trajectory and recovery windows follow
// `options` as in RunTrace, so on a pure-Get trace every phase and window
// covers the same requests as RunTrace's. A resize step resizes the cache in
// place, or with `cold_restart` rebuilds it empty at the step's capacity; a
// lifecycle step always rebuilds it empty (a monolithic cluster restarts on
// any membership change). Fills gets/hits/misses, ops, hit_rate, phases and
// recovery; the timing fields stay 0.
RunResult ReplayExact(const workload::Trace& trace, policy::PrecisePolicyKind kind,
                      uint64_t capacity, const RunOptions& options, int num_clients = 1,
                      bool cold_restart = false);

// Relative hit-rate change (h_max - h_min) / h_max of ReplayExact over the
// given client counts for one trace and policy (the Figure 5a statistic).
double RelativeHitRateChange(const workload::Trace& trace, uint64_t capacity,
                             policy::PrecisePolicyKind kind,
                             const std::vector<int>& client_counts);

// Absolute trace index at which a schedule step fires over the measured
// region [begin, end). Every engine and ReplayExact apply a schedule stably
// sorted by at_op_fraction, with fractions clamped to [0, 1].
size_t ResizeStepIndex(double at_op_fraction, size_t begin, size_t end);

// Deterministic seeded key -> shard partition of the concurrent engine.
uint32_t ShardForKey(uint64_t key, size_t num_shards, uint64_t seed);

// Concurrent sharded replay on real host threads. shards[s] owns key
// partition s (ShardForKey with options.partition_seed) with shard-private
// cache state, and min(options.threads, shards.size()) host threads each
// drive a static subset of the shards (shard s -> thread s % threads),
// feeding every shard its requests in trace order. Throws
// std::invalid_argument when `shards` is empty.
//
// Because every shard's request stream and cache state are thread-private,
// the per-shard access order — and therefore hits/misses/evictions — is
// independent of the thread count: a fixed (trace, seed) pair produces
// identical hit rates for any options.threads. When each shard also has its
// own memory node (nodes[s], the intended deployment), the virtual-time
// accounting is thread-private too and the whole RunResult is reproducible
// bit-for-bit. Shards must not share mutable cache state.
RunResult RunTraceSharded(const std::vector<CacheClient*>& shards, const workload::Trace& trace,
                          const std::vector<rdma::RemoteNode*>& nodes,
                          const RunOptions& options);

// Contended multi-client replay: options.threads is ignored — every client
// gets its own host thread, and unlike the sharded engine there is NO key
// partitioning. Client c replays the strided sub-stream begin+c, begin+c+n,
// ... of the trace, so clients race on whatever keys the trace makes them
// share: slot CAS conflicts, duplicate-insert resolution, and eviction/victim
// races all take their real concurrent paths against the shared pool(s).
//
// Clients must all be backed by the SAME dm::MemoryPool deployment (e.g.
// bench::DittoDeployment), each with its own ClientContext — the per-client
// FC cache, verbs endpoint, and scratch stay thread-private while the arena,
// allocator freelists, and hash-table slots are genuinely shared. Results are
// NOT bit-deterministic across runs (real races decide CAS winners); the
// aggregate counters are still exact sums of what each client observed.
RunResult RunTraceContended(const std::vector<CacheClient*>& clients,
                            const workload::Trace& trace,
                            const std::vector<rdma::RemoteNode*>& nodes,
                            const RunOptions& options);

}  // namespace ditto::sim

#endif  // DITTO_SIM_RUNNER_H_
