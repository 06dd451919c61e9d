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
// W is kept in per-host-thread shards, one cache line each (QueueingServer
// below): a posting thread adds its service time to its own shard with a
// plain load + store, and W is the sum of the shards. With up to eight
// posting threads, no NIC message or controller RPC writes a word another
// thread writes, and none runs a locked instruction. The message, doorbell
// and byte counters live in per-QP NicTally blocks, kept the same way: each
// Verbs owns one, and NicModel sums the blocks when a reader asks.
#ifndef DITTO_RDMA_NIC_MODEL_H_
#define DITTO_RDMA_NIC_MODEL_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "rdma/cost_model.h"

namespace ditto::rdma {

// A fluid-queue server whose work W is sharded by host thread. A thread's
// first charge on any server claims one of kShards process-wide slots, and
// the thread then owns shard `slot` of every server: it updates that shard's
// work and charge count with relaxed loads + stores. A charge observes as
// backlog its own shard plus the other shards' last published work, so with
// one posting thread the delays are exactly those of a single shared
// counter, and several concurrent posters still conserve total work (their
// delays then depend on the interleaving, as they always did). A thread that
// exits frees its slot for a later thread, which carries on from the work
// the slot's shards hold. Threads beyond kShards share an overflow shard
// charged with fetch_add.
//
// Nothing is cached per server, so a server destroyed and rebuilt at the
// same address (every perfbench repetition) starts from zero work.
class QueueingServer {
 public:
  static constexpr int kShards = 8;
  static_assert(kShards < 32, "slots_taken_ holds one bit per slot");

  // Appends service_ns of work. Returns the queueing delay in ns a request
  // issued at client-virtual-time now_ns observes.
  uint64_t Charge(uint64_t now_ns, uint64_t service_ns) {
    int slot = thread_slot_;
    if (slot < 0) [[unlikely]] {
      slot = ClaimSlot();
    }
    Shard& own = shards_[slot];
    uint64_t backlog;
    if (slot < kShards) {
      backlog = own.work.load(std::memory_order_relaxed);
      own.work.store(backlog + service_ns, std::memory_order_relaxed);
      own.charges.store(own.charges.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    } else {
      backlog = own.work.fetch_add(service_ns, std::memory_order_relaxed);
      own.charges.fetch_add(1, std::memory_order_relaxed);
    }
    const int used = slots_used_.load(std::memory_order_relaxed);
    if (used > 1) {
      for (int i = 0; i < used; ++i) {
        if (i != slot) {
          backlog += shards_[i].work.load(std::memory_order_relaxed);
        }
      }
    }
    return backlog > now_ns ? backlog - now_ns : 0;
  }

  // Total accumulated work: a lower bound on the elapsed time of any run
  // that pushed this much service through the server.
  uint64_t next_free_ns() const { return Sum(&Shard::work); }
  // Number of Charge calls.
  uint64_t charges() const { return Sum(&Shard::charges); }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> work{0};
    std::atomic<uint64_t> charges{0};
  };
  // Frees the slot of the thread that claimed it when that thread exits.
  struct SlotRelease {
    ~SlotRelease() { slots_taken_.fetch_and(~(1u << thread_slot_), std::memory_order_release); }
  };

  uint64_t Sum(std::atomic<uint64_t> Shard::*field) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += (shard.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  // Claims the lowest free slot for this thread, or the overflow slot
  // kShards when all are taken, and raises slots_used_ past it. The acquire
  // pairs with the release of the slot's previous owner, so this thread
  // sees that owner's last work in every shard it inherits. Runs once per
  // thread, so it is kept out of the inlined charge path.
  [[gnu::noinline, gnu::cold]] static int ClaimSlot() {
    int slot = kShards;
    uint32_t taken = slots_taken_.load(std::memory_order_relaxed);
    for (int free = std::countr_one(taken); free < kShards; free = std::countr_one(taken)) {
      if (slots_taken_.compare_exchange_weak(taken, taken | (1u << free),
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
        slot = free;
        static thread_local SlotRelease release;  // destroyed when this thread exits
        break;
      }
    }
    int used = slots_used_.load(std::memory_order_relaxed);
    while (used < slot + 1 &&
           !slots_used_.compare_exchange_weak(used, slot + 1, std::memory_order_relaxed)) {
    }
    thread_slot_ = slot;
    return slot;
  }

  static inline std::atomic<uint32_t> slots_taken_{0};  // bit i: slot i has a live owner
  static inline std::atomic<int> slots_used_{0};  // slots [0, used) have ever been claimed
  static inline constinit thread_local int thread_slot_ = -1;

  std::array<Shard, kShards + 1> shards_;  // [kShards] is the overflow shard
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
  explicit NicModel(const CostModel& cost)
      : enabled_(cost.enabled),
        msg_ns_(static_cast<uint64_t>(cost.NicServiceNs(1.0))),
        atomic_ns_(static_cast<uint64_t>(cost.NicServiceNs(cost.atomic_msg_cost))) {}

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

  // Charges one message to `tally`: a READ/WRITE takes one message slot, an
  // atomic cost.atomic_msg_cost slots. Returns queueing delay in ns.
  uint64_t ChargeMessage(NicTally* tally, uint64_t now_ns, bool atomic) {
    NicTally::Add(&tally->messages, 1);
    if (!enabled_) {
      return 0;
    }
    return server_.Charge(now_ns, atomic ? atomic_ns_ : msg_ns_);
  }

  // Totals over every tally block. Doorbells are MMIO rings: unbatched posts
  // ring once per verb, doorbell-batched chains once per flush.
  uint64_t messages() const { return Sum(&NicTally::messages); }
  uint64_t doorbells() const { return Sum(&NicTally::doorbells); }
  uint64_t bytes() const { return Sum(&NicTally::bytes); }
  // Serial completion horizon of the NIC, a lower bound on elapsed time.
  uint64_t busy_horizon_ns() const { return server_.next_free_ns(); }

 private:
  uint64_t Sum(std::atomic<uint64_t> NicTally::*counter) const EXCLUDES(tally_mu_) {
    ditto::MutexLock lock(&tally_mu_);
    uint64_t total = 0;
    for (const auto& tally : tallies_) {
      total += ((*tally).*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  const bool enabled_;
  const uint64_t msg_ns_;     // service time of a 1.0-cost message
  const uint64_t atomic_ns_;  // service time of an atomic
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
  // A disabled model charges no work, so every delay it returns is 0.
  uint64_t ChargeRpc(uint64_t now_ns, double service_us) {
    const uint64_t effective_ns =
        cost_.enabled ? static_cast<uint64_t>(service_us * 1000.0 / static_cast<double>(cores_))
                      : 0;
    return server_.Charge(now_ns, effective_ns);
  }

  // RPCs charged, counted in the queue's per-thread shards.
  uint64_t ops() const { return server_.charges(); }
  uint64_t busy_horizon_ns() const { return server_.next_free_ns(); }

 private:
  CostModel cost_;
  const int cores_;
  QueueingServer server_;
};

}  // namespace ditto::rdma

#endif  // DITTO_RDMA_NIC_MODEL_H_
