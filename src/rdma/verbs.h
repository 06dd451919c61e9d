// Verbs: a client's queue pair to one memory node. Implements the one-sided
// verb set the paper assumes (READ, WRITE, ATOMIC_CAS, ATOMIC_FAA) plus
// asynchronous/unsignalled variants and an RDMA-based RPC to the controller.
//
// Every verb performs the real memory operation on the node's arena and
// charges virtual time: NIC queueing delay + round-trip latency + payload
// serialization. Async verbs charge only the posting overhead to the client
// but still consume NIC capacity.
//
// Signalled verbs block: Read / Write / CompareSwap / FetchAdd apply the
// memory effect immediately (the simulator's memory operations are
// instantaneous and execute in program order), charge NIC occupancy, and
// advance the QP's time base to the verb's completion time
//   issue time + NIC queueing delay + round-trip latency + wire time.
// Clients overlap independent operations through the detached per-op
// timeline (BeginOp/EndOp below), not by keeping verbs in flight: each op
// runs its verbs back to back on its own cursor, so K ops issued from one
// clock instant overlap in virtual time and drain at the NIC message rate.
#ifndef DITTO_RDMA_VERBS_H_
#define DITTO_RDMA_VERBS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdma/node.h"

namespace ditto::rdma {

class Verbs {
 public:
  // Takes one of the node's NIC tally blocks for this QP's counters; the
  // node must outlive the Verbs.
  Verbs(RemoteNode* node, ClientContext* ctx)
      : node_(node), ctx_(ctx), tally_(node->nic().AcquireTally()) {}
  ~Verbs() { node_->nic().ReleaseTally(tally_); }
  Verbs(const Verbs&) = delete;
  Verbs& operator=(const Verbs&) = delete;

  RemoteNode& node() { return *node_; }
  ClientContext& ctx() { return *ctx_; }

  // --- Fault status ---------------------------------------------------------
  // When the node's FaultState is armed, any verb can fail: a failed READ
  // zeroes the destination buffer (the caller decodes an empty bucket / torn
  // object, not stale scratch), a failed CAS returns ~expected (it reads as a
  // lost race), a failed FAA returns 0, and a failed RPC clears the
  // response. The status below is STICKY across verbs — it records the first
  // failure since the last ClearStatus(), so a multi-verb operation checks
  // ok() once per stage instead of after every verb. Failed verbs charge
  // kTimeoutUs (100 us, verbs.cc) to the client's time base only; nothing
  // reaches the NIC or controller models.
  VerbStatus last_status() const { return last_status_; }
  bool ok() const { return last_status_ == VerbStatus::kOk; }
  void ClearStatus() { last_status_ = VerbStatus::kOk; }

  void Read(uint64_t addr, void* dst, size_t len);
  void Write(uint64_t addr, const void* src, size_t len);
  // Posted without waiting for completion (unsignalled WRITE).
  void WriteAsync(uint64_t addr, const void* src, size_t len);

  // Returns the observed prior value (== expected iff swap succeeded).
  uint64_t CompareSwap(uint64_t addr, uint64_t expected, uint64_t desired);
  // Returns the prior value.
  uint64_t FetchAdd(uint64_t addr, uint64_t delta);
  // Posted FAA whose result the client does not wait for.
  void FetchAddAsync(uint64_t addr, uint64_t delta);

  // --- Pipelined-op timeline ----------------------------------------------
  // A pipelined client executes each operation on a detached timeline: after
  // BeginOp(start_ns), every time charge (signalled verbs, async posting
  // overhead, RPC service, Sleep) advances the op cursor instead of the
  // client's real clock, and NIC occupancy is charged at cursor time. EndOp() returns the
  // op's completion timestamp and re-attaches the QP to the client clock.
  // The caller advances the real clock only when it RETIRES the op
  // (VirtualClock::AdvanceToNs), which is what lets K ops overlap in virtual
  // time while the cache logic itself still executes in issue order — the
  // property that keeps hit rates bit-identical across pipeline depths.
  void BeginOp(uint64_t start_ns);
  uint64_t EndOp();
  bool in_op() const { return in_op_; }

  // Two-sided RPC to the controller: two network messages + controller CPU.
  // service_us scales with handler weight; <= 0 uses the model default.
  // The caller-buffer overload is the hot-path form: the handler renders its
  // response directly into *response (whose capacity is reused across calls),
  // so steady-state RPCs allocate nothing on the client.
  void Rpc(uint32_t handler_id, std::string_view request, std::string* response,
           double service_us = -1.0);
  std::string Rpc(uint32_t handler_id, std::string_view request, double service_us = -1.0);

  // Charges the NIC message rate of one atomic the caller models without
  // posting it (a lock-acquire CAS retry that loses): one message on this
  // QP's tally, counted as an atomic on the context. No doorbell, bytes,
  // memory effect or client time; the caller charges the wait.
  void ChargeLostAtomic();

  // Charges a client-local think/backoff time (e.g. 5us lock backoff or the
  // 500us miss penalty) without touching the network.
  void Sleep(double us) { AdvanceBaseNs(static_cast<uint64_t>(us * 1000.0)); }

  // Doorbell batching of asynchronous verbs. When enabled (max_pending > 0),
  // async WRITE/FAA posts apply their memory effect immediately (and still
  // count as posted WQEs on the context) but their network cost is deferred
  // into a pending chain on a dedicated metadata QP; posts to the same
  // address coalesce into one wire message. The chain is flushed — one
  // doorbell, one NIC message per distinct (kind, address) — when it
  // accumulates max_pending posts or on an explicit FlushBatch(). Batched
  // message count therefore never exceeds the unbatched count.
  void SetBatchOps(size_t max_pending);
  void FlushBatch();
  size_t batch_pending() const { return pending_.size(); }

 private:
  struct PendingOp {
    uint8_t kind;  // 0 = WRITE, 1 = atomic (FAA)
    uint64_t addr;
    uint32_t bytes;
  };

  // The QP's current time base: the op cursor while a pipelined op is being
  // executed, the client's virtual clock otherwise.
  uint64_t base_now_ns() const { return in_op_ ? op_cursor_ : ctx_->now_ns(); }
  void AdvanceBaseNs(uint64_t ns);
  void AdvanceBaseToNs(uint64_t ns);

  // Shared signalled-verb body: charges the NIC at base-now and advances the
  // time base to the verb's completion.
  void ChargeSignalled(double rtt_us, double msg_cost, size_t bytes);

  // Returns true (and records *status) if the fault layer fails this verb:
  // the node is crashed at the current time base, or a deterministic draw
  // lands under the plan's probability for this kind. Charges the plan's
  // timeout budget to the client time base and bumps the matching context
  // counter. `prob` selects the probabilistic leg (verb vs RPC drop).
  bool FaultFail(double prob, VerbStatus prob_status);
  // Deterministic per-QP uniform draw in [0,1): a pure function of
  // (plan.seed, ctx id, ++fault_draws_).
  double FaultDraw();

  void ChargeAsync(double msg_cost, size_t bytes);
  void EnqueueBatched(uint8_t kind, uint64_t addr, uint32_t bytes);

  RemoteNode* node_;
  ClientContext* ctx_;
  NicTally* tally_;  // this QP's NIC counters; written only by this QP
  size_t batch_max_ = 0;    // 0 = batching disabled
  uint64_t batch_posts_ = 0;  // raw WQEs in the current chain (pre-merge)
  std::vector<PendingOp> pending_;

  bool in_op_ = false;
  uint64_t op_cursor_ = 0;
  VerbStatus last_status_ = VerbStatus::kOk;
  uint64_t fault_draws_ = 0;  // advances only when a probabilistic leg is armed
};

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_VERBS_H_
