#include "sim/runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/hash.h"
#include "common/rand.h"
#include "common/small_vec.h"
#include "dm/pool.h"
#include "rdma/verbs.h"
#include "sim/pipeline_window.h"

namespace ditto::sim {

namespace {

// Normal form of a resize or lifecycle schedule as every replay applies it:
// steps stably sorted by at_op_fraction with fractions clamped to [0, 1].
template <typename Step>
std::vector<Step> NormalizedSchedule(std::vector<Step> schedule) {
  std::stable_sort(schedule.begin(), schedule.end(), [](const Step& a, const Step& b) {
    return a.at_op_fraction < b.at_op_fraction;
  });
  for (Step& step : schedule) {
    step.at_op_fraction = std::min(std::max(step.at_op_fraction, 0.0), 1.0);
  }
  return schedule;
}

// The firing index of every step of a normalized schedule (ascending).
template <typename Step>
std::vector<size_t> StepIndices(const std::vector<Step>& steps, size_t begin, size_t end) {
  std::vector<size_t> indices;
  indices.reserve(steps.size());
  for (const Step& step : steps) {
    indices.push_back(ResizeStepIndex(step.at_op_fraction, begin, end));
  }
  return indices;
}

// Resize + lifecycle schedules resolved against the measured region
// [begin, end): the normalized steps plus their absolute trace-index
// thresholds (sorted ascending).
struct ResolvedSchedule {
  std::vector<ResizeStep> resizes;
  std::vector<size_t> thresholds;
  std::vector<LifecycleStep> lifecycle_steps;
  std::vector<size_t> lifecycle_thresholds;

  size_t num_phases() const { return thresholds.size() + 1; }
  // Phase of request index i: the number of resize thresholds at or below i.
  size_t PhaseOf(size_t index) const { return CountAtOrBelow(thresholds, index); }
  // Lifecycle steps due at or before request index i.
  size_t LifecycleCountAt(size_t index) const {
    return CountAtOrBelow(lifecycle_thresholds, index);
  }

  static size_t CountAtOrBelow(const std::vector<size_t>& sorted, size_t index) {
    return static_cast<size_t>(std::upper_bound(sorted.begin(), sorted.end(), index) -
                               sorted.begin());
  }
};

ResolvedSchedule ResolveSchedule(const RunOptions& options, size_t begin, size_t end) {
  ResolvedSchedule schedule;
  schedule.resizes = NormalizedSchedule(options.resize_schedule);
  schedule.thresholds = StepIndices(schedule.resizes, begin, end);
  schedule.lifecycle_steps = NormalizedSchedule(options.lifecycle_schedule);
  schedule.lifecycle_thresholds = StepIndices(schedule.lifecycle_steps, begin, end);
  return schedule;
}

// First request index of the measured region: trace[0, MeasureBegin) is
// warmup.
size_t MeasureBegin(const RunOptions& options, size_t trace_size) {
  return options.warmup_fraction > 0.0
             ? static_cast<size_t>(options.warmup_fraction * static_cast<double>(trace_size))
             : 0;
}

// Windowed Get-outcome sampler shared by every dispatcher of one interleaved
// replay (single host thread, so plain counters suffice). Closes a
// RecoverySample every window_ops Get outcomes in dispatch order, giving the
// fine-grained hit-rate trajectory lifecycle experiments plot.
struct RecoveryAccumulator {
  size_t window_ops = 0;
  std::vector<RecoverySample>* out = nullptr;
  RecoverySample cur;

  void Record(bool hit) {
    cur.gets++;
    cur.hits += hit ? 1 : 0;
    if (cur.gets >= window_ops) {
      out->push_back(cur);
      cur = RecoverySample{};
    }
  }
  // Emits the trailing short window, if any.
  void Finish() {
    if (cur.gets > 0) {
      out->push_back(cur);
      cur = RecoverySample{};
    }
  }
};

// The backing-store fetch a re-inserted miss pays before its Set.
uint64_t MissPenaltyNs(const RunOptions& options) {
  // Guard the float-to-unsigned cast: a non-positive penalty means none.
  return options.miss_penalty_us > 0.0
             ? static_cast<uint64_t>(options.miss_penalty_us * 1000.0)
             : 0;
}

// Per-client/per-shard accumulator fusing consecutive kMultiGet requests
// into pipelined runs of up to options.multiget_batch keys, applying the
// resize schedule as the owner's stream crosses each step index, and
// slicing results into the per-phase trajectory. Fusion, resize, and phase
// state all depend only on the owner's private request stream, so replay
// stays deterministic for any thread count.
class OpDispatcher {
 public:
  // schedule may be null (no resize steps, single-phase accounting). When
  // split_capacity is set each step applies CapacityShare(total, owner,
  // num_owners) — the sharded engine's private-cache split; otherwise the
  // aggregate is applied as-is (shared-state clients apply it idempotently).
  OpDispatcher(CacheClient* client, const workload::Trace& trace, const RunOptions& options,
               const std::string& value, const ResolvedSchedule* schedule = nullptr,
               size_t owner = 0, size_t num_owners = 1, bool split_capacity = false,
               RecoveryAccumulator* recovery = nullptr)
      : client_(client),
        trace_(trace),
        options_(options),
        value_(value),
        schedule_(schedule),
        recovery_(recovery),
        owner_(owner),
        num_owners_(num_owners),
        split_capacity_(split_capacity),
        penalty_ns_(MissPenaltyNs(options)),
        phases_(schedule != nullptr ? schedule->num_phases() : 1),
        window_(options.pipeline_depth) {}

  // ditto-lint: hot-path-begin(op-dispatch)
  // Dispatch and its helpers run once per trace request in every engine's
  // replay loop; steady-state execution must not allocate (PR 4's invariant).
  void Dispatch(uint32_t index) {
    AdvancePhase(index);
    // Requests are dispatched in trace order, so the next lines of the
    // trace are known: fetch them ahead rather than leave the read to the
    // hardware prefetcher, which a code-layout shift alone can defeat (it
    // once tripled Dispatch's self time on replay-ycsb-c).
    if (index + kTracePrefetch < trace_.size()) {
      __builtin_prefetch(&trace_[index + kTracePrefetch]);
    }
    const workload::Request& req = trace_[index];
    const workload::Op op = workload::MixedOpAt(req.op, index, options_.op_mix);
    if (op == workload::Op::kMultiGet && options_.multiget_batch > 1) {
      // ditto-lint: allow(alloc): vector capacity is reused across fused runs
      pending_.push_back(index);
      if (pending_.size() >= options_.multiget_batch) {
        Flush();
      }
      return;
    }
    Flush(/*retire_pipeline=*/false);  // a non-fusable op closes the current run
    Issue(req, op);
  }

  // Closes the current fused multi-get run and (by default) drains the verb
  // pipeline. A fused run serializes with the pipeline either way: in-flight
  // ops retire before the run issues, so execution order stays issue order.
  void Flush(bool retire_pipeline = true) {
    if (!pending_.empty()) {
      window_.RetireAll(client_->ctx().clock());
      // Every pending index was enqueued in the current phase (AdvancePhase
      // flushes before the capacity changes), so the run is attributed whole.
      ExecuteFusedRun();
      pending_.clear();
    }
    if (retire_pipeline) {
      window_.RetireAll(client_->ctx().clock());
    }
  }

  // Per-phase trajectory of this owner's stream (merged by the caller).
  const std::vector<PhaseResult>& phases() const { return phases_; }

 private:
  // Issues one request into the in-flight window: the op executes now
  // (memory effects in issue order), but its verb waits accrue on a detached
  // timeline starting at the clock; the completion timestamp joins the
  // window and the clock only advances when the window is full and the
  // oldest op retires — at depth 1, right before the next op, which is
  // blocking execution. A re-inserted miss chains the miss penalty and the
  // Set onto the same timeline. The key renders into stack storage, so the
  // path allocates nothing.
  void Issue(const workload::Request& req, workload::Op op) {
    rdma::ClientContext& ctx = client_->ctx();
    const uint64_t start_ns = window_.Admit(ctx.clock());
    workload::KeyBuf key_buf;
    const std::string_view key = workload::FormatKey(req.key, &key_buf);
    const CacheOp cache_op = options_.OpFor(op, req.key, key, value_);
    CacheResult result;
    uint64_t complete_ns = client_->ExecutePipelined(cache_op, &result, start_ns);
    if (options_.ReinsertsMiss(cache_op.kind, result.hit())) {
      const CacheOp set_op = options_.MissSetOp(req.key, key, value_);
      CacheResult set_result;
      complete_ns = client_->ExecutePipelined(set_op, &set_result, complete_ns + penalty_ns_);
    }
    Count(cache_op.kind == OpKind::kGet, result.hit());
    ctx.op_hist().RecordNs(complete_ns - start_ns);
    window_.Push(complete_ns);
  }

  // Executes the pending fused run of kMultiGet requests as one pipelined
  // batch, then re-inserts each missed key blocking (the window is drained).
  // Latency is recorded per key (the run's mean). Allocation-free at
  // steady state: keys render into a reused KeyBuf array, ops into a reused
  // vector, and results come from the small-vector buffer (inline storage for
  // runs up to its capacity — fused runs are bounded by multiget_batch).
  void ExecuteFusedRun() {
    const std::vector<uint32_t>& idxs = pending_;
    rdma::ClientContext& ctx = client_->ctx();
    const uint64_t begin_ns = ctx.clock().busy_ns();
    // Size the key storage before taking views into it: a later resize would
    // move the buffers the CacheOps alias.
    // ditto-lint: allow(alloc): capacity is reused; bounded by multiget_batch
    mg_keys_.resize(idxs.size());
    mg_ops_.clear();
    for (size_t j = 0; j < idxs.size(); ++j) {
      // ditto-lint: allow(alloc): vector capacity is reused across fused runs
      mg_ops_.push_back(CacheOp::MultiGet(workload::FormatKey(trace_[idxs[j]].key, &mg_keys_[j]),
                                          /*want_value=*/false));
    }
    CacheResult* results = mg_results_.Acquire(idxs.size());
    client_->ExecuteBatch({mg_ops_.data(), mg_ops_.size()}, results);
    for (size_t j = 0; j < idxs.size(); ++j) {
      if (options_.ReinsertsMiss(OpKind::kMultiGet, results[j].hit())) {
        ctx.clock().AdvanceNs(penalty_ns_);
        const CacheOp set_op = options_.MissSetOp(trace_[idxs[j]].key, mg_ops_[j].key, value_);
        CacheResult set_result;
        client_->ExecuteBatch({&set_op, 1}, &set_result);
      }
      Count(/*get=*/true, results[j].hit());
    }
    const uint64_t total_ns = ctx.clock().busy_ns() - begin_ns;
    for (size_t j = 0; j < idxs.size(); ++j) {
      ctx.op_hist().RecordNs(total_ns / idxs.size());
    }
  }

  // Slices one request's outcome into the phase trajectory and, for a Get,
  // the recovery windows.
  void Count(bool get, bool hit) {
    PhaseResult& phase = phases_[phase_];
    phase.ops++;
    if (!get) {
      return;
    }
    phase.gets++;
    (hit ? phase.hits : phase.misses)++;
    if (recovery_ != nullptr) {
      recovery_->Record(hit);
    }
  }
  // ditto-lint: hot-path-end(op-dispatch)

  void AdvancePhase(uint32_t index) {
    if (schedule_ == nullptr) {
      return;
    }
    const size_t target = schedule_->PhaseOf(index);
    while (phase_ < target) {
      Flush();  // close the fused run before the capacity changes
      const uint64_t total = schedule_->resizes[phase_].capacity_objects;
      client_->ResizeCapacity(split_capacity_ ? dm::CapacityShare(total, owner_, num_owners_)
                                              : total);
      phase_++;
    }
    // Lifecycle steps fire the same way resizes do: when this owner's private
    // stream crosses the step index. Every client calls ApplyLifecycle (so
    // the engines need no cross-thread coordination here); cluster clients
    // make the application itself global-once.
    const size_t lifecycle_target = schedule_->LifecycleCountAt(index);
    while (lifecycle_applied_ < lifecycle_target) {
      Flush();  // close the fused run before membership changes re-route keys
      client_->ApplyLifecycle(schedule_->lifecycle_steps[lifecycle_applied_]);
      lifecycle_applied_++;
    }
  }

  static constexpr size_t kTracePrefetch = 64;  // requests ahead: eight cache lines

  CacheClient* client_;
  const workload::Trace& trace_;
  const RunOptions& options_;
  const std::string& value_;
  const ResolvedSchedule* schedule_;
  RecoveryAccumulator* recovery_;
  size_t owner_;
  size_t num_owners_;
  bool split_capacity_;
  uint64_t penalty_ns_;
  size_t phase_ = 0;
  size_t lifecycle_applied_ = 0;
  std::vector<PhaseResult> phases_;
  std::vector<uint32_t> pending_;
  // Completion timestamps of in-flight pipelined ops, in issue order.
  PipelineWindow window_;
  // Fused-run scratch, reused across runs (dispatchers are single-threaded).
  std::vector<workload::KeyBuf> mg_keys_;
  std::vector<CacheOp> mg_ops_;
  SmallBuf<CacheResult, 16> mg_results_;
};

// Sums per-owner phase slices into `out` (sized by the caller).
void MergePhases(const std::vector<PhaseResult>& phases, std::vector<PhaseResult>* out) {
  if (out == nullptr) {
    return;
  }
  out->resize(std::max(out->size(), phases.size()));
  for (size_t p = 0; p < phases.size(); ++p) {
    (*out)[p].ops += phases[p].ops;
    (*out)[p].gets += phases[p].gets;
    (*out)[p].hits += phases[p].hits;
    (*out)[p].misses += phases[p].misses;
  }
}

// Labels each merged phase with its schedule capacity and derives hit rates.
void FinalizePhases(const ResolvedSchedule& schedule, std::vector<PhaseResult>* phases) {
  phases->resize(schedule.num_phases());
  for (size_t p = 0; p < phases->size(); ++p) {
    PhaseResult& phase = (*phases)[p];
    phase.capacity_objects = p == 0 ? 0 : schedule.resizes[p - 1].capacity_objects;
    phase.hit_rate = phase.gets == 0
                         ? 0.0
                         : static_cast<double>(phase.hits) / static_cast<double>(phase.gets);
  }
}

// Replays [begin, end) of the trace: client c owns the strided shard
// begin+c, begin+c+n, ... and the clients' progress is interleaved by
// workload::ForEachInterleaved's burst model, which stands in for
// unsynchronized concurrent execution. Replaying in one host thread keeps the
// merged access order (and thus hit rates) deterministic; timing is virtual,
// so throughput numbers are unaffected by host scheduling.
void ReplayInterleaved(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                       size_t begin, size_t end, const RunOptions& options,
                       const ResolvedSchedule* schedule, std::vector<PhaseResult>* phases_out,
                       RecoveryAccumulator* recovery) {
  const size_t n = clients.size();
  const std::string value(options.MaxValueBytes(), 'v');
  std::vector<OpDispatcher> dispatch;
  dispatch.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    // Interleaved clients share one deployment, so each applies the
    // aggregate capacity (idempotent on the shared server state). The
    // recovery accumulator is shared too: the engine runs on one host
    // thread, so windows follow the merged dispatch order.
    dispatch.emplace_back(clients[c], trace, options, value, schedule, c, n,
                          /*split_capacity=*/false, recovery);
  }
  workload::ForEachInterleaved(
      begin, end, n, 0x9e3779b9 + end,
      [&](size_t c, size_t index) { dispatch[c].Dispatch(static_cast<uint32_t>(index)); },
      [&](size_t c) { dispatch[c].Flush(); });
  for (const OpDispatcher& d : dispatch) {
    MergePhases(d.phases(), phases_out);
  }
  if (recovery != nullptr) {
    recovery->Finish();
  }
}

// Snapshot of per-client busy time and per-node horizons taken at the
// warmup/measurement boundary.
struct MeasureBaseline {
  std::vector<uint64_t> busy_before;
  std::vector<uint64_t> nic_before;
  std::vector<uint64_t> cpu_before;
  uint64_t nic_msgs_before = 0;
  uint64_t nic_doorbells_before = 0;
  uint64_t rpc_before = 0;
};

MeasureBaseline BeginMeasurement(const std::vector<CacheClient*>& clients,
                                 const std::vector<rdma::RemoteNode*>& nodes) {
  MeasureBaseline base;
  base.busy_before.resize(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    clients[c]->ResetForMeasurement();
    base.busy_before[c] = clients[c]->ctx().clock().busy_ns();
  }
  base.nic_before.resize(nodes.size());
  base.cpu_before.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    base.nic_before[i] = nodes[i]->nic().busy_horizon_ns();
    base.cpu_before[i] = nodes[i]->cpu().busy_horizon_ns();
    base.nic_msgs_before += nodes[i]->nic().messages();
    base.nic_doorbells_before += nodes[i]->nic().doorbells();
    base.rpc_before += nodes[i]->cpu().ops();
  }
  return base;
}

// Aggregate result of the measured region.
RunResult FinishMeasurement(const std::vector<CacheClient*>& clients,
                            const std::vector<rdma::RemoteNode*>& nodes,
                            const MeasureBaseline& base, uint64_t measured_ops) {
  RunResult result;
  Histogram merged;
  uint64_t sum_busy_delta = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    result += clients[c]->counters();
    merged.Merge(clients[c]->ctx().op_hist());
    sum_busy_delta += clients[c]->ctx().clock().busy_ns() - base.busy_before[c];
  }
  result.ops = measured_ops;
  // Mean per-client busy time models the paper's fixed-duration runs (all
  // clients execute for the same wall time; miss-prone clients simply finish
  // fewer requests), avoiding a fixed-work straggler bias.
  const uint64_t mean_busy_delta = sum_busy_delta / std::max<size_t>(clients.size(), 1);
  uint64_t elapsed_ns = std::max(mean_busy_delta, uint64_t{1});
  uint64_t nic_msgs_after = 0;
  uint64_t nic_doorbells_after = 0;
  uint64_t rpc_after = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const uint64_t nic_h = nodes[i]->nic().busy_horizon_ns();
    const uint64_t cpu_h = nodes[i]->cpu().busy_horizon_ns();
    elapsed_ns = std::max(elapsed_ns, nic_h > base.nic_before[i] ? nic_h - base.nic_before[i] : 0);
    elapsed_ns = std::max(elapsed_ns, cpu_h > base.cpu_before[i] ? cpu_h - base.cpu_before[i] : 0);
    nic_msgs_after += nodes[i]->nic().messages();
    nic_doorbells_after += nodes[i]->nic().doorbells();
    rpc_after += nodes[i]->cpu().ops();
  }
  result.elapsed_s = static_cast<double>(elapsed_ns) / 1e9;
  result.throughput_mops = static_cast<double>(result.ops) / (result.elapsed_s * 1e6);
  result.hit_rate = result.HitRate();
  result.p50_us = merged.PercentileUs(50);
  result.p99_us = merged.PercentileUs(99);
  result.nic_messages = nic_msgs_after - base.nic_msgs_before;
  result.nic_doorbells = nic_doorbells_after - base.nic_doorbells_before;
  result.rpc_ops = rpc_after - base.rpc_before;
  return result;
}

// One phase (warmup or measurement) of the threaded engines. clients[o] is
// owner o; request i of [begin, end) belongs to owner_of(i), and owner o is
// driven by host thread o % threads. Every thread walks the whole range and
// dispatches its owners' requests, so each owner sees its requests in trace
// order on one thread whatever the thread count, and its fusion, resize and
// phase state stays thread-private. With split_capacity each owner applies
// its CapacityShare of a resize step (the sharded engine's private caches);
// otherwise every owner applies the aggregate (idempotent on a shared pool).
template <typename OwnerOf>
void ReplayOnThreads(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                     size_t begin, size_t end, const RunOptions& options,
                     const ResolvedSchedule* schedule, std::vector<PhaseResult>* phases_out,
                     size_t threads, bool split_capacity, OwnerOf owner_of) {
  const size_t n = clients.size();
  const std::string value(options.MaxValueBytes(), 'v');
  // One heap object per owner, so owners driven by different threads do not
  // share cache lines.
  std::vector<std::unique_ptr<OpDispatcher>> dispatch(n);
  for (size_t o = 0; o < n; ++o) {
    dispatch[o] = std::make_unique<OpDispatcher>(clients[o], trace, options, value, schedule, o,
                                                 n, split_capacity);
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = begin; i < end; ++i) {
        const size_t o = owner_of(i);
        if (o % threads == t) {
          dispatch[o]->Dispatch(static_cast<uint32_t>(i));
        }
      }
      for (size_t o = t; o < n; o += threads) {
        dispatch[o]->Flush();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (const auto& d : dispatch) {
    MergePhases(d->phases(), phases_out);
  }
}

// The measurement skeleton every engine shares. replay(begin, end, schedule,
// phases) replays trace[begin, end) on the engine's threads; the warmup call
// passes a null schedule and phases. Around the two replays: doorbell
// batching on, the post-warmup doorbell drain (pending chains charge their
// deferred costs before the baseline snapshot), the measured replay under
// the resolved schedule, the Finish() drain, then the virtual-time result
// and the phase trajectory.
template <typename ReplayFn>
RunResult Measure(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                  const std::vector<rdma::RemoteNode*>& nodes, const RunOptions& options,
                  ReplayFn&& replay) {
  for (CacheClient* client : clients) {
    client->SetBatchOps(options.batch_ops);
  }
  const size_t measure_begin = MeasureBegin(options, trace.size());
  if (options.warmup_fraction > 0.0) {
    replay(0, measure_begin, nullptr, nullptr);
    for (CacheClient* client : clients) {
      client->SetBatchOps(options.batch_ops);
    }
  }

  const ResolvedSchedule schedule = ResolveSchedule(options, measure_begin, trace.size());
  const MeasureBaseline base = BeginMeasurement(clients, nodes);
  std::vector<PhaseResult> phases;
  replay(measure_begin, trace.size(), &schedule, &phases);
  for (CacheClient* client : clients) {
    client->Finish();
  }
  RunResult result = FinishMeasurement(clients, nodes, base, trace.size() - measure_begin);
  FinalizePhases(schedule, &phases);
  result.phases = std::move(phases);
  return result;
}

}  // namespace

size_t ResizeStepIndex(double at_op_fraction, size_t begin, size_t end) {
  return begin + static_cast<size_t>(at_op_fraction * static_cast<double>(end - begin));
}

uint32_t ShardForKey(uint64_t key, size_t num_shards, uint64_t seed) {
  return SeededPartition(key, num_shards, seed);
}

RunResult RunTrace(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                   rdma::RemoteNode* node, const RunOptions& options) {
  return RunTrace(clients, trace, std::vector<rdma::RemoteNode*>{node}, options);
}

RunResult RunTrace(const std::vector<CacheClient*>& clients, const workload::Trace& trace,
                   const std::vector<rdma::RemoteNode*>& nodes, const RunOptions& options) {
  std::vector<RecoverySample> samples;
  RecoveryAccumulator recovery{options.recovery_window_ops, &samples, {}};
  RunResult result = Measure(
      clients, trace, nodes, options,
      [&](size_t begin, size_t end, const ResolvedSchedule* schedule,
          std::vector<PhaseResult>* phases) {
        // Recovery windows sample the measured replay only.
        const bool sample = phases != nullptr && options.recovery_window_ops > 0;
        ReplayInterleaved(clients, trace, begin, end, options, schedule, phases,
                          sample ? &recovery : nullptr);
      });
  result.recovery = std::move(samples);
  return result;
}

RunResult ReplayExact(const workload::Trace& trace, policy::PrecisePolicyKind kind,
                      uint64_t capacity, const RunOptions& options, int num_clients,
                      bool cold_restart) {
  // Seeds the interleave and kRandom's victim draws.
  constexpr uint64_t kSeed = 7;
  const size_t n = static_cast<size_t>(std::max(num_clients, 1));
  const size_t measure_begin = MeasureBegin(options, trace.size());
  policy::PreciseCache cache(capacity, kind, kSeed);
  workload::ForEachInterleaved(
      0, measure_begin, n, kSeed, [&](size_t, size_t index) { cache.Access(trace[index].key); },
      [](size_t) {});

  const ResolvedSchedule schedule = ResolveSchedule(options, measure_begin, trace.size());
  RunResult result;
  std::vector<PhaseResult> phases(schedule.num_phases());
  RecoveryAccumulator recovery{options.recovery_window_ops, &result.recovery, {}};
  size_t resizes_applied = 0;
  size_t lifecycle_applied = 0;
  workload::ForEachInterleaved(
      measure_begin, trace.size(), n, kSeed,
      [&](size_t, size_t index) {
        // The cache is shared by every client, so a step applies once, when
        // the first client crosses it; resizes go before lifecycle steps at
        // the same index, as in OpDispatcher::AdvancePhase.
        const size_t phase = schedule.PhaseOf(index);
        for (; resizes_applied < phase; ++resizes_applied) {
          const uint64_t step_capacity = schedule.resizes[resizes_applied].capacity_objects;
          if (cold_restart) {
            cache = policy::PreciseCache(step_capacity, kind, kSeed);
          } else {
            cache.Resize(step_capacity);
          }
        }
        for (const size_t due = schedule.LifecycleCountAt(index); lifecycle_applied < due;
             ++lifecycle_applied) {
          cache = policy::PreciseCache(cache.capacity(), kind, kSeed);
        }
        const bool hit = cache.Access(trace[index].key);
        PhaseResult& slice = phases[phase];
        slice.ops++;
        slice.gets++;
        (hit ? slice.hits : slice.misses)++;
        (hit ? result.hits : result.misses)++;
        if (options.recovery_window_ops > 0) {
          recovery.Record(hit);
        }
      },
      [](size_t) {});
  recovery.Finish();
  result.ops = result.gets = result.hits + result.misses;
  result.hit_rate = result.HitRate();
  FinalizePhases(schedule, &phases);
  result.phases = std::move(phases);
  return result;
}

double RelativeHitRateChange(const workload::Trace& trace, uint64_t capacity,
                             policy::PrecisePolicyKind kind,
                             const std::vector<int>& client_counts) {
  double h_max = 0.0;
  double h_min = 1.0;
  for (const int clients : client_counts) {
    const double h = ReplayExact(trace, kind, capacity, RunOptions{}, clients).hit_rate;
    h_max = std::max(h_max, h);
    h_min = std::min(h_min, h);
  }
  return h_max <= 0.0 ? 0.0 : (h_max - h_min) / h_max;
}

double MeanHitRate(const std::vector<RecoverySample>& windows, size_t begin, size_t end) {
  RecoverySample sum;
  for (size_t i = begin; i < end && i < windows.size(); ++i) {
    sum.gets += windows[i].gets;
    sum.hits += windows[i].hits;
  }
  return sum.HitRate();
}

uint64_t RecoveryOps(const std::vector<RecoverySample>& windows, size_t fault_window,
                     double target) {
  uint64_t ops = 0;
  for (size_t i = fault_window; i < windows.size(); ++i) {
    if (windows[i].HitRate() >= target) {
      return ops;
    }
    ops += windows[i].gets;
  }
  return ops;
}

RunResult RunTraceSharded(const std::vector<CacheClient*>& shards, const workload::Trace& trace,
                          const std::vector<rdma::RemoteNode*>& nodes,
                          const RunOptions& options) {
  if (shards.empty()) {
    throw std::invalid_argument("RunTraceSharded: at least one shard is required");
  }
  const size_t threads = std::min<size_t>(std::max(options.threads, 1), shards.size());
  return Measure(shards, trace, nodes, options,
                 [&](size_t begin, size_t end, const ResolvedSchedule* schedule,
                     std::vector<PhaseResult>* phases) {
                   ReplayOnThreads(shards, trace, begin, end, options, schedule, phases, threads,
                                   /*split_capacity=*/true, [&](size_t i) -> size_t {
                                     return ShardForKey(trace[i].key, shards.size(),
                                                        options.partition_seed);
                                   });
                 });
}

RunResult RunTraceContended(const std::vector<CacheClient*>& clients,
                            const workload::Trace& trace,
                            const std::vector<rdma::RemoteNode*>& nodes,
                            const RunOptions& options) {
  const size_t n = clients.size();
  return Measure(
      clients, trace, nodes, options,
      [&](size_t begin, size_t end, const ResolvedSchedule* schedule,
          std::vector<PhaseResult>* phases) {
        ReplayOnThreads(clients, trace, begin, end, options, schedule, phases, n,
                        /*split_capacity=*/false, [&](size_t i) { return (i - begin) % n; });
      });
}

}  // namespace ditto::sim
