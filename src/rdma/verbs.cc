#include "rdma/verbs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/hash.h"

namespace ditto::rdma {
namespace {
// Latency a client burns (virtual time) detecting one failed verb/RPC — the
// completion-timeout budget of a real QP.
constexpr double kTimeoutUs = 100.0;
}  // namespace

void Verbs::AdvanceBaseNs(uint64_t ns) {
  if (in_op_) {
    op_cursor_ += ns;
  } else {
    ctx_->clock().AdvanceNs(ns);
  }
}

void Verbs::AdvanceBaseToNs(uint64_t ns) {
  if (in_op_) {
    op_cursor_ = std::max(op_cursor_, ns);
  } else {
    ctx_->clock().AdvanceToNs(ns);
  }
}

double Verbs::FaultDraw() {
  const FaultPlan& plan = node_->fault().plan();
  const uint64_t mix =
      Mix64(plan.seed ^ (uint64_t{ctx_->id()} << 32) ^ ++fault_draws_);
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(mix >> 11) * 0x1.0p-53;
}

bool Verbs::FaultFail(double prob, VerbStatus prob_status) {
  FaultState& fault = node_->fault();
  if (!fault.armed()) {
    return false;  // fast path: one relaxed load per verb when faults are off
  }
  VerbStatus status;
  if (fault.CrashedAt(base_now_ns())) {
    status = VerbStatus::kUnavailable;
    ctx_->unavailable++;
  } else if (prob > 0.0 && FaultDraw() < prob) {
    status = prob_status;
    if (prob_status == VerbStatus::kRpcDropped) {
      ctx_->rpc_drops++;
    } else {
      ctx_->verb_timeouts++;
    }
  } else {
    return false;
  }
  last_status_ = status;
  // The client burns its completion-timeout budget detecting the failure;
  // nothing reaches the NIC or controller models (the verb never completed).
  AdvanceBaseNs(static_cast<uint64_t>(kTimeoutUs * 1000.0));
  return true;
}

void Verbs::BeginOp(uint64_t start_ns) {
  if (in_op_) {
    // Nesting would overwrite the outer op's cursor and corrupt time
    // accounting; fail loudly in every build.
    std::fprintf(stderr, "Verbs::BeginOp: pipelined ops must not nest\n");
    std::abort();
  }
  in_op_ = true;
  op_cursor_ = std::max(start_ns, ctx_->now_ns());
}

uint64_t Verbs::EndOp() {
  if (!in_op_) {
    std::fprintf(stderr, "Verbs::EndOp: no pipelined op is active\n");
    std::abort();
  }
  in_op_ = false;
  return op_cursor_;
}

// ditto-lint: hot-path-begin(verb-post)
// Per-verb NIC accounting: counters go to this QP's tally, and the queue's
// work counter is the one node-shared write per message.
void Verbs::ChargeSignalled(double rtt_us, double msg_cost, size_t bytes) {
  const CostModel& cost = node_->cost();
  tally_->AddBytes(bytes);
  tally_->AddDoorbell();
  const uint64_t now = base_now_ns();
  const uint64_t queue_ns = node_->nic().ChargeMessage(tally_, now, msg_cost);
  if (cost.enabled) {
    const double wire_us = static_cast<double>(bytes) / cost.bytes_per_us;
    AdvanceBaseToNs(now + queue_ns + static_cast<uint64_t>((rtt_us + wire_us) * 1000.0));
  }
}

void Verbs::ChargeAsync(double msg_cost, size_t bytes) {
  const CostModel& cost = node_->cost();
  tally_->AddBytes(bytes);
  tally_->AddDoorbell();
  node_->nic().ChargeMessage(tally_, base_now_ns(), msg_cost);
  if (!cost.enabled) {
    return;
  }
  AdvanceBaseNs(static_cast<uint64_t>(cost.async_post_us * 1000.0));
}

void Verbs::EnqueueBatched(uint8_t kind, uint64_t addr, uint32_t bytes) {
  ++batch_posts_;
  for (PendingOp& op : pending_) {
    if (op.kind == kind && op.addr == addr) {
      // A later post to the same address supersedes the earlier one on the
      // wire (memory effects were already applied in program order).
      op.bytes = std::max(op.bytes, bytes);
      if (batch_posts_ >= batch_max_) {
        FlushBatch();
      }
      return;
    }
  }
  // ditto-lint: allow(alloc): clear() keeps capacity; grows to batch_max_
  pending_.push_back(PendingOp{kind, addr, bytes});
  if (batch_posts_ >= batch_max_) {
    FlushBatch();
  }
}

void Verbs::FlushBatch() {
  batch_posts_ = 0;
  if (pending_.empty()) {
    return;
  }
  const CostModel& cost = node_->cost();
  tally_->AddDoorbell();
  for (const PendingOp& op : pending_) {
    const double msg_cost = op.kind == 0 ? 1.0 : cost.atomic_msg_cost;
    tally_->AddBytes(op.bytes);
    node_->nic().ChargeMessage(tally_, base_now_ns(), msg_cost);
  }
  if (cost.enabled) {
    AdvanceBaseNs(static_cast<uint64_t>(
        (cost.async_post_us + cost.batched_wqe_us * static_cast<double>(pending_.size() - 1)) *
        1000.0));
  }
  pending_.clear();
}
// ditto-lint: hot-path-end(verb-post)

void Verbs::SetBatchOps(size_t max_pending) {
  // Reconfiguring the chain always drains it, so callers can use this at a
  // measurement boundary to keep deferred costs out of the next window.
  FlushBatch();
  batch_max_ = max_pending;
}

void Verbs::Read(uint64_t addr, void* dst, size_t len) {
  if (FaultFail(node_->fault().plan().verb_timeout_prob, VerbStatus::kTimeout)) {
    // Zero the destination so the caller decodes an empty bucket / rejected
    // object instead of whatever stale bytes the scratch buffer held.
    std::memset(dst, 0, len);
    return;
  }
  node_->arena().Read(addr, dst, len);
  ctx_->reads++;
  ChargeSignalled(node_->cost().read_rtt_us, 1.0, len);
}

void Verbs::Write(uint64_t addr, const void* src, size_t len) {
  if (FaultFail(node_->fault().plan().verb_timeout_prob, VerbStatus::kTimeout)) {
    return;
  }
  node_->arena().Write(addr, src, len);
  ctx_->writes++;
  ChargeSignalled(node_->cost().write_rtt_us, 1.0, len);
}

void Verbs::WriteAsync(uint64_t addr, const void* src, size_t len) {
  if (FaultFail(node_->fault().plan().verb_timeout_prob, VerbStatus::kTimeout)) {
    return;
  }
  node_->arena().Write(addr, src, len);
  ctx_->writes++;
  if (batch_max_ > 0) {
    EnqueueBatched(/*kind=*/0, addr, static_cast<uint32_t>(len));
    return;
  }
  ChargeAsync(1.0, len);
}

uint64_t Verbs::CompareSwap(uint64_t addr, uint64_t expected, uint64_t desired) {
  if (FaultFail(node_->fault().plan().verb_timeout_prob, VerbStatus::kTimeout)) {
    return ~expected;  // a failed CAS must read as "lost the race"
  }
  const uint64_t observed = node_->arena().CompareSwap(addr, expected, desired);
  ctx_->atomics++;
  ChargeSignalled(node_->cost().atomic_rtt_us, node_->cost().atomic_msg_cost, 8);
  return observed;
}

uint64_t Verbs::FetchAdd(uint64_t addr, uint64_t delta) {
  if (FaultFail(node_->fault().plan().verb_timeout_prob, VerbStatus::kTimeout)) {
    return 0;
  }
  const uint64_t prior = node_->arena().FetchAdd(addr, delta);
  ctx_->atomics++;
  ChargeSignalled(node_->cost().atomic_rtt_us, node_->cost().atomic_msg_cost, 8);
  return prior;
}

void Verbs::FetchAddAsync(uint64_t addr, uint64_t delta) {
  if (FaultFail(node_->fault().plan().verb_timeout_prob, VerbStatus::kTimeout)) {
    return;
  }
  node_->arena().FetchAdd(addr, delta);
  ctx_->atomics++;
  if (batch_max_ > 0) {
    EnqueueBatched(/*kind=*/1, addr, 8);
    return;
  }
  ChargeAsync(node_->cost().atomic_msg_cost, 8);
}

void Verbs::Rpc(uint32_t handler_id, std::string_view request, std::string* response,
                double service_us) {
  if (FaultFail(node_->fault().plan().rpc_drop_prob, VerbStatus::kRpcDropped)) {
    response->clear();
    return;
  }
  const CostModel& cost = node_->cost();
  if (service_us <= 0.0) {
    service_us = cost.rpc_service_us;
  }
  ctx_->rpcs++;
  // Request and response messages; one doorbell for the send WQE.
  tally_->AddDoorbell();
  tally_->AddBytes(request.size());
  const uint64_t now = base_now_ns();
  const uint64_t nic_queue_ns = node_->nic().ChargeMessage(tally_, now, 1.0);
  node_->nic().ChargeMessage(tally_, now, 1.0);
  const uint64_t cpu_queue_ns = node_->cpu().ChargeRpc(now, service_us);
  node_->DispatchRpc(handler_id, request, response);
  if (cost.enabled) {
    const double wire_us =
        static_cast<double>(request.size() + response->size()) / cost.bytes_per_us;
    AdvanceBaseNs(nic_queue_ns + cpu_queue_ns +
                  static_cast<uint64_t>((cost.read_rtt_us + service_us + wire_us) * 1000.0));
  }
}

void Verbs::ChargeLostAtomic() {
  ctx_->atomics++;
  node_->nic().ChargeMessage(tally_, base_now_ns(), node_->cost().atomic_msg_cost);
}

std::string Verbs::Rpc(uint32_t handler_id, std::string_view request, double service_us) {
  std::string response;
  Rpc(handler_id, request, &response, service_us);
  return response;
}

}  // namespace ditto::rdma
