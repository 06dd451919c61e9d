#include "rdma/verbs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"

namespace ditto::rdma {
namespace {
// Latency a client burns (virtual time) detecting one failed verb/RPC — the
// completion-timeout budget of a real QP.
constexpr double kTimeoutUs = 100.0;
}  // namespace

double Verbs::FaultDraw() {
  const FaultPlan& plan = node_->fault().plan();
  const uint64_t mix =
      Mix64(plan.seed ^ (uint64_t{ctx_->id()} << 32) ^ ++fault_draws_);
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(mix >> 11) * 0x1.0p-53;
}

bool Verbs::FaultFailArmed(double prob, VerbStatus prob_status) {
  FaultState& fault = node_->fault();
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

void Verbs::SetBatchOps(size_t max_pending) {
  // Reconfiguring the chain always drains it, so callers can use this at a
  // measurement boundary to keep deferred costs out of the next window.
  FlushBatch();
  batch_max_ = max_pending;
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
  const uint64_t nic_queue_ns = node_->nic().ChargeMessage(tally_, now, /*atomic=*/false);
  node_->nic().ChargeMessage(tally_, now, /*atomic=*/false);
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
  node_->nic().ChargeMessage(tally_, base_now_ns(), /*atomic=*/true);
}

std::string Verbs::Rpc(uint32_t handler_id, std::string_view request, double service_us) {
  std::string response;
  Rpc(handler_id, request, &response, service_us);
  return response;
}

}  // namespace ditto::rdma
