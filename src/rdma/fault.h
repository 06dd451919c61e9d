// Deterministic fault injection for the simulated RDMA fabric.
//
// A FaultPlan describes WHAT can go wrong on one memory node — probabilistic
// verb timeouts, dropped controller RPCs, and whole-node crash windows pinned
// to virtual time. A FaultState (one per RemoteNode) holds the plan plus the
// node's live crashed/alive bit, which the cluster lifecycle layer flips when
// it executes a scheduled crash or restart.
//
// Determinism contract: every probabilistic draw is a pure function of
// (plan.seed, client context id, per-QP draw counter), so two runs with the
// same plan and the same op interleaving fail the exact same verbs — and a
// run with an EMPTY plan takes a single relaxed-load fast path in every verb
// and is bit-identical (verb counts, NIC messages, hit rates) to a build
// without fault injection at all. Draw counters only advance when a
// probability is actually armed, so enabling the subsystem with zero
// probabilities perturbs nothing.
#ifndef DITTO_RDMA_FAULT_H_
#define DITTO_RDMA_FAULT_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace ditto::rdma {

// Outcome of a verb or RPC. kOk is the only success value; the failure kinds
// are distinguished so retry policies can treat "the node is gone" (fail over)
// differently from "this verb timed out" (retry with backoff).
enum class VerbStatus : uint8_t {
  kOk = 0,
  kTimeout = 1,      // one-sided verb exceeded its completion timeout
  kUnavailable = 2,  // node crashed: QP torn down, nothing reaches the NIC
  kRpcDropped = 3,   // two-sided RPC lost (request or response)
};

// Immutable-after-configuration description of the faults one node exhibits.
struct FaultPlan {
  // Seeds the per-QP deterministic draws; two plans with equal seeds and
  // probabilities produce identical failure sequences.
  uint64_t seed = 1;
  // Per-verb probability in [0,1) that a one-sided verb times out.
  double verb_timeout_prob = 0.0;
  // Per-call probability in [0,1) that a controller RPC is dropped.
  double rpc_drop_prob = 0.0;

  // Scheduled whole-node outages in absolute virtual time: the node is down
  // for begin_ns <= now < end_ns. end_ns == UINT64_MAX means "until a
  // lifecycle Restart() revives it".
  struct CrashWindow {
    uint64_t begin_ns = 0;
    uint64_t end_ns = ~uint64_t{0};
  };
  std::vector<CrashWindow> crash_windows;

  bool HasFaults() const {
    return verb_timeout_prob > 0.0 || rpc_drop_prob > 0.0 || !crash_windows.empty();
  }
};

// Live fault state of one memory node. Configure() is called before traffic;
// Crash()/Restart() are flipped by the lifecycle layer while clients run, so
// the alive bit is atomic. The armed bit is the fast path: an unarmed node
// costs every verb exactly one relaxed load.
class FaultState {
 public:
  void Configure(const FaultPlan& plan) {
    plan_ = plan;
    if (plan.HasFaults()) {
      armed_.store(true, std::memory_order_relaxed);
    }
  }

  // Arms the fault checks without any probabilistic faults — used by cluster
  // deployments so a later Crash() is honored even under an empty plan.
  void Arm() { armed_.store(true, std::memory_order_relaxed); }

  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  const FaultPlan& plan() const { return plan_; }

  // Lifecycle-driven outage control (crash until further notice / revive).
  void Crash() { crashed_.store(true, std::memory_order_relaxed); }
  void Restart() { crashed_.store(false, std::memory_order_relaxed); }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  // Whether the node is down at virtual time now_ns: either the lifecycle
  // layer crashed it, or a scheduled crash window covers now_ns.
  bool CrashedAt(uint64_t now_ns) const {
    if (crashed_.load(std::memory_order_relaxed)) {
      return true;
    }
    for (const FaultPlan::CrashWindow& w : plan_.crash_windows) {
      if (now_ns >= w.begin_ns && now_ns < w.end_ns) {
        return true;
      }
    }
    return false;
  }

 private:
  FaultPlan plan_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> crashed_{false};
};

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_FAULT_H_
