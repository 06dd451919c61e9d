// NicModel / CpuModel: virtual-time service accounts for the memory node's
// RNIC message rate and controller CPU. Both are fluid-queue servers: each
// request appends its service time to the server's cumulative work W, and a
// client at virtual time `now` observes queueing delay max(0, W_before -
// now). For closed-loop clients this is self-stabilizing — once demand
// exceeds capacity, W runs ahead of every client's clock and the delays
// throttle aggregate throughput to exactly the service rate — and, unlike an
// FCFS-horizon model, it has no artifact when clients at different virtual
// times share one server.
//
// W is the only node-shared word a NIC message writes (one relaxed RMW per
// message, because it is the queue). The message, doorbell and byte counters
// live in per-QP NicTally blocks: each Verbs owns one, bumps it with a plain
// load + store, and NicModel sums the blocks when a reader asks.
#ifndef DITTO_RDMA_NIC_MODEL_H_
#define DITTO_RDMA_NIC_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "rdma/cost_model.h"

namespace ditto::rdma {

class QueueingServer {
 public:
  // Appends service_ns of work. Returns the queueing delay in ns a request
  // issued at client-virtual-time now_ns observes.
  uint64_t Charge(uint64_t now_ns, uint64_t service_ns) {
    const uint64_t backlog = work_ns_.fetch_add(service_ns, std::memory_order_relaxed);
    return backlog > now_ns ? backlog - now_ns : 0;
  }

  // Total accumulated work: a lower bound on the elapsed time of any run
  // that pushed this much service through the server.
  uint64_t next_free_ns() const { return work_ns_.load(std::memory_order_relaxed); }
  void Reset() { work_ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> work_ns_{0};
};

// One QP's share of a NIC's counters, on its own cache line. Only the owning
// QP writes it (a relaxed load + store: no lock prefix, no line shared with
// another writer); readers load it concurrently when NicModel sums the blocks.
struct alignas(64) NicTally {
  std::atomic<uint64_t> messages{0};
  std::atomic<uint64_t> doorbells{0};
  std::atomic<uint64_t> bytes{0};

  void AddDoorbell() { Add(&doorbells, 1); }
  void AddBytes(uint64_t n) { Add(&bytes, n); }
  static void Add(std::atomic<uint64_t>* counter, uint64_t n) {
    counter->store(counter->load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
};

class NicModel {
 public:
  explicit NicModel(const CostModel& cost) : cost_(cost) {}

  // Hands a QP its tally block. ReleaseTally returns it for reuse by a later
  // QP; a released block keeps its counts, so totals survive the QP.
  NicTally* AcquireTally() EXCLUDES(tally_mu_) {
    ditto::MutexLock lock(&tally_mu_);
    if (free_tallies_.empty()) {
      tallies_.push_back(std::make_unique<NicTally>());
      return tallies_.back().get();
    }
    NicTally* tally = free_tallies_.back();
    free_tallies_.pop_back();
    return tally;
  }
  void ReleaseTally(NicTally* tally) EXCLUDES(tally_mu_) {
    ditto::MutexLock lock(&tally_mu_);
    free_tallies_.push_back(tally);
  }

  // Charges one message to `tally` with the given slot cost (1.0 for
  // READ/WRITE, cost_.atomic_msg_cost for atomics). Returns queueing delay
  // in ns.
  uint64_t ChargeMessage(NicTally* tally, uint64_t now_ns, double msg_cost) {
    NicTally::Add(&tally->messages, 1);
    if (!cost_.enabled) {
      return 0;
    }
    return server_.Charge(now_ns, static_cast<uint64_t>(cost_.NicServiceNs(msg_cost)));
  }

  // Totals over every tally block. Doorbells are MMIO rings: unbatched posts
  // ring once per verb, doorbell-batched chains once per flush.
  uint64_t messages() const { return Sum(&NicTally::messages); }
  uint64_t doorbells() const { return Sum(&NicTally::doorbells); }
  uint64_t bytes() const { return Sum(&NicTally::bytes); }
  // Serial completion horizon of the NIC, a lower bound on elapsed time.
  uint64_t busy_horizon_ns() const { return server_.next_free_ns(); }

  // Zeroes the queue and every tally block. Call while no QP is posting.
  void Reset() EXCLUDES(tally_mu_) {
    server_.Reset();
    ditto::MutexLock lock(&tally_mu_);
    for (const auto& tally : tallies_) {
      tally->messages.store(0, std::memory_order_relaxed);
      tally->doorbells.store(0, std::memory_order_relaxed);
      tally->bytes.store(0, std::memory_order_relaxed);
    }
  }

 private:
  uint64_t Sum(std::atomic<uint64_t> NicTally::*counter) const EXCLUDES(tally_mu_) {
    ditto::MutexLock lock(&tally_mu_);
    uint64_t total = 0;
    for (const auto& tally : tallies_) {
      total += ((*tally).*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  CostModel cost_;
  QueueingServer server_;
  mutable ditto::Mutex tally_mu_;
  std::vector<std::unique_ptr<NicTally>> tallies_ GUARDED_BY(tally_mu_);
  std::vector<NicTally*> free_tallies_ GUARDED_BY(tally_mu_);
};

// The controller CPU of a memory node: `cores` servers approximated as one
// fast server (rate = cores / service_time).
class CpuModel {
 public:
  CpuModel(const CostModel& cost, int cores) : cost_(cost), cores_(cores) {}

  // Charges one RPC whose handler costs service_us of one core. Returns
  // queueing delay in ns observed by the caller.
  uint64_t ChargeRpc(uint64_t now_ns, double service_us) {
    ops_.fetch_add(1, std::memory_order_relaxed);
    if (!cost_.enabled) {
      return 0;
    }
    const auto effective_ns =
        static_cast<uint64_t>(service_us * 1000.0 / static_cast<double>(cores_));
    return server_.Charge(now_ns, effective_ns);
  }

  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  uint64_t busy_horizon_ns() const { return server_.next_free_ns(); }

  void Reset() {
    server_.Reset();
    ops_.store(0, std::memory_order_relaxed);
  }

 private:
  CostModel cost_;
  const int cores_;
  QueueingServer server_;
  std::atomic<uint64_t> ops_{0};
};

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_NIC_MODEL_H_
