// TracedClient: the sim::CacheClient decorator the benchmark wraps around
// every Ditto client. It measures the core layer from outside, at the call
// boundary: the virtual-time latency of each op (from CacheResult), the host
// time of every 8th call, and in traced runs the wall time of each
// ExecuteBatch / ExecutePipelined call as a `core.execute` span. It also snapshots the wrapped client's own counters
// (DittoStats, verb counts, virtual clock) on the thread that owns the
// client, so a reader on another thread never touches them while it runs.
//
// Phases: the owner publishes a phase number; the decorator records samples
// only while the phase is kMeasured, and snapshots counters on the first
// call it serves in each new phase.
#ifndef PERFBENCH_TRACED_CLIENT_H_
#define PERFBENCH_TRACED_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <span>
#include <string_view>
#include <vector>

#include "core/ditto_client.h"
#include "rdma/node.h"
#include "sim/adapters.h"
#include "sim/client_iface.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// CPU time of the calling thread (or, with CLOCK_PROCESS_CPUTIME_ID, of the
// process). Unlike wall time it leaves out time the host took the CPU away.
inline uint64_t CpuNs(clockid_t clock = CLOCK_THREAD_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

enum class SpanName : uint8_t { kWire, kCoreExecute, kSimReplay };
enum OpClass : uint8_t { kGetOp = 0, kSetOp = 1, kOtherOp = 2 };

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kWire:
      return "wire";
    case SpanName::kCoreExecute:
      return "core.execute";
    case SpanName::kSimReplay:
      return "sim.replay";
  }
  return "?";
}

inline const char* OpClassString(uint8_t op) {
  return op == kGetOp ? "get" : op == kSetOp ? "set" : "other";
}

// One timed interval at a layer boundary. `id` is the request's trace index
// (wire spans; 0 for core spans, which only see the key); `tag` is the
// connection, reactor or client that ran it.
struct Span {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t key = 0;
  uint32_t tag = 0;
  SpanName name = SpanName::kWire;
  uint8_t op = kOtherOp;
};

inline uint8_t ClassOf(ditto::sim::OpKind kind) {
  switch (kind) {
    case ditto::sim::OpKind::kGet:
    case ditto::sim::OpKind::kMultiGet:
      return kGetOp;
    case ditto::sim::OpKind::kSet:
      return kSetOp;
    default:
      return kOtherOp;
  }
}

// Integer key of a "k%016x" cache key (workload::KeyString); other keys map
// to their length so the span still carries something stable.
inline uint64_t KeyId(std::string_view key) {
  if (key.size() != 17 || key[0] != 'k') {
    return key.size();
  }
  uint64_t v = 0;
  for (size_t i = 1; i < key.size(); ++i) {
    const char c = key[i];
    v = (v << 4) | static_cast<uint64_t>(c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
  }
  return v;
}

// Counters of the memory node's NIC and controller-CPU models.
struct NodeSnapshot {
  uint64_t messages = 0, doorbells = 0, bytes = 0;
  uint64_t nic_horizon_ns = 0, cpu_horizon_ns = 0, cpu_ops = 0;
};

inline NodeSnapshot SnapNode(ditto::rdma::RemoteNode& node) {
  NodeSnapshot s;
  s.messages = node.nic().messages();
  s.doorbells = node.nic().doorbells();
  s.bytes = node.nic().bytes();
  s.nic_horizon_ns = node.nic().busy_horizon_ns();
  s.cpu_horizon_ns = node.cpu().busy_horizon_ns();
  s.cpu_ops = node.cpu().ops();
  return s;
}

// What the decorated clients sharing one recorder did in the measured phase.
// A recorder is used by one thread at a time.
struct Recorder {
  // Every kSampleEvery-th measured call is wall-timed, traced or not; those
  // samples give the in-process per-call latency percentiles.
  static constexpr uint64_t kSampleEvery = 8;

  bool traced = false;
  size_t span_cap = 2'000'000;
  std::vector<uint32_t> virt_ns[2];  // per-op virtual latency: gets, sets
  std::vector<uint32_t> wall_samples[2];  // sampled per-call wall latency: gets, sets
  uint64_t call_seq = 0;
  uint64_t calls[3] = {0, 0, 0};     // ExecuteBatch/ExecutePipelined calls by class
  uint64_t ops[3] = {0, 0, 0};
  uint64_t wall_ns[3] = {0, 0, 0};   // traced runs only
  uint64_t failed = 0;               // kDropped / kUnavailable results
  uint64_t spans_dropped = 0;
  uint64_t measure_begin_ns = 0;     // wall time of the last Clear()
  uint64_t measure_begin_cpu_ns = 0;  // the clearing thread's CPU time then
  // When set, Clear() also snapshots this node's NIC/CPU counters and this
  // controller's weight-update count, so a replay's measured region can be
  // told from its warmup.
  ditto::rdma::RemoteNode* node = nullptr;
  NodeSnapshot node_at_begin;
  const ditto::core::AdaptiveController* controller = nullptr;
  uint64_t flushes_at_begin = 0;
  std::vector<Span> spans;

  void Clear() {
    for (int k = 0; k < 2; ++k) {
      virt_ns[k].clear();
      wall_samples[k].clear();
    }
    call_seq = 0;
    for (int k = 0; k < 3; ++k) {
      calls[k] = ops[k] = wall_ns[k] = 0;
    }
    failed = spans_dropped = 0;
    spans.clear();
    measure_begin_ns = NowNs();
    measure_begin_cpu_ns = CpuNs();
    if (node != nullptr) {
      node_at_begin = SnapNode(*node);
    }
    if (controller != nullptr) {
      flushes_at_begin = controller->updates_received();
    }
  }

  void AddSpan(const Span& span) {
    if (spans.size() < span_cap) {
      spans.push_back(span);
    } else {
      spans_dropped++;
    }
  }

  // Folds another recorder's measurements into this one.
  void Merge(const Recorder& other) {
    for (int k = 0; k < 2; ++k) {
      virt_ns[k].insert(virt_ns[k].end(), other.virt_ns[k].begin(), other.virt_ns[k].end());
      wall_samples[k].insert(wall_samples[k].end(), other.wall_samples[k].begin(),
                             other.wall_samples[k].end());
    }
    for (int k = 0; k < 3; ++k) {
      calls[k] += other.calls[k];
      ops[k] += other.ops[k];
      wall_ns[k] += other.wall_ns[k];
    }
    failed += other.failed;
    spans_dropped += other.spans_dropped;
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  }
};

inline constexpr int kSetupPhase = 0;
inline constexpr int kMeasuredPhase = 1;
inline constexpr int kMaxPhases = 4;

// The wrapped client's own counters at one instant.
struct ClientSnapshot {
  bool valid = false;
  ditto::core::DittoStats stats;
  uint64_t reads = 0, writes = 0, atomics = 0, rpcs = 0;
  uint64_t busy_ns = 0;
};

class TracedClient : public ditto::sim::CacheClient {
 public:
  TracedClient(ditto::sim::DittoCacheClient* inner, Recorder* recorder, uint32_t tag,
               const std::atomic<int>* phase)
      : inner_(inner), rec_(recorder), tag_(tag), phase_(phase) {}

  void ExecuteBatch(std::span<const ditto::sim::CacheOp> ops,
                    ditto::sim::CacheResult* results) override {
    if (!ObservePhase()) {
      inner_->ExecuteBatch(ops, results);
      return;
    }
    const bool sample = ++rec_->call_seq % Recorder::kSampleEvery == 0;
    const uint64_t begin = rec_->traced || sample ? NowNs() : 0;
    inner_->ExecuteBatch(ops, results);
    Record(ops, results, begin, sample);
  }

  uint64_t ExecutePipelined(const ditto::sim::CacheOp& op, ditto::sim::CacheResult* result,
                            uint64_t start_ns) override {
    if (!ObservePhase()) {
      return inner_->ExecutePipelined(op, result, start_ns);
    }
    const bool sample = ++rec_->call_seq % Recorder::kSampleEvery == 0;
    const uint64_t begin = rec_->traced || sample ? NowNs() : 0;
    const uint64_t done = inner_->ExecutePipelined(op, result, start_ns);
    Record({&op, 1}, result, begin, sample);
    return done;
  }

  ditto::rdma::ClientContext& ctx() override { return inner_->ctx(); }
  ditto::sim::ClientCounters counters() const override { return inner_->counters(); }
  void Finish() override { inner_->Finish(); }
  // The replay engine calls this at its warmup/measurement boundary: the
  // recorder starts over there too.
  void ResetForMeasurement() override {
    inner_->ResetForMeasurement();
    rec_->Clear();
    measure_snap_ = Snapshot();
  }
  void SetBatchOps(size_t ops) override { inner_->SetBatchOps(ops); }
  bool ResizeCapacity(uint64_t capacity_objects) override {
    return inner_->ResizeCapacity(capacity_objects);
  }
  void ApplyLifecycle(const ditto::sim::LifecycleStep& step) override {
    inner_->ApplyLifecycle(step);
  }

  // Snapshot of the wrapped client's counters. Call only on the thread that
  // drives the client (or after that thread has been joined).
  ClientSnapshot Snapshot() {
    ClientSnapshot s;
    s.valid = true;
    s.stats = inner_->ditto().stats();
    ditto::rdma::ClientContext& c = inner_->ctx();
    s.reads = c.reads;
    s.writes = c.writes;
    s.atomics = c.atomics;
    s.rpcs = c.rpcs;
    s.busy_ns = c.clock().busy_ns();
    return s;
  }

  // Counters as of the first call served in `phase` — equal to the counters
  // at the end of the previous phase, since nothing runs between phases.
  // Invalid when no call was served in that phase.
  const ClientSnapshot& phase_snapshot(int phase) const { return snaps_[phase]; }
  // Counters at the last ResetForMeasurement().
  const ClientSnapshot& measure_snapshot() const { return measure_snap_; }

 private:
  // Returns true when the current phase is the measured one.
  bool ObservePhase() {
    const int phase = phase_->load(std::memory_order_acquire);
    if (phase != seen_phase_) {
      if (phase >= 0 && phase < kMaxPhases && !snaps_[phase].valid) {
        snaps_[phase] = Snapshot();
      }
      seen_phase_ = phase;
    }
    return phase == kMeasuredPhase;
  }

  void Record(std::span<const ditto::sim::CacheOp> ops, const ditto::sim::CacheResult* results,
              uint64_t begin, bool sample) {
    const bool timed = rec_->traced || sample;
    const uint64_t end = timed ? NowNs() : 0;
    const uint8_t cls = ops.empty() ? uint8_t{kOtherOp} : ClassOf(ops[0].kind);
    rec_->calls[cls]++;
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint8_t k = ClassOf(ops[i].kind);
      rec_->ops[k]++;
      if (k != kOtherOp) {
        rec_->virt_ns[k].push_back(
            static_cast<uint32_t>(std::llround(results[i].latency_us * 1000.0)));
      }
      const ditto::sim::OpStatus st = results[i].status;
      if (st == ditto::sim::OpStatus::kDropped || st == ditto::sim::OpStatus::kUnavailable) {
        rec_->failed++;
      }
    }
    if (!timed) {
      return;
    }
    if (sample && cls != kOtherOp) {
      rec_->wall_samples[cls].push_back(static_cast<uint32_t>(end - begin));
    }
    if (rec_->traced) {
      rec_->wall_ns[cls] += end - begin;
      rec_->AddSpan(Span{begin, end, 0, ops.empty() ? 0 : KeyId(ops[0].key), tag_,
                         SpanName::kCoreExecute, cls});
    }
  }

  ditto::sim::DittoCacheClient* inner_;
  Recorder* rec_;
  uint32_t tag_;
  const std::atomic<int>* phase_;
  int seen_phase_ = -1;
  ClientSnapshot snaps_[kMaxPhases];
  ClientSnapshot measure_snap_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_CLIENT_H_
