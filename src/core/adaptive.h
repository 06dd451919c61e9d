// Distributed adaptive caching (paper §4.3): expert weights adjusted by
// regret minimization, with the lazy weight update scheme of §4.3.2.
//
// AdaptiveController is the memory-node side: it owns the authoritative
// expert weights and serves the batched-penalty RPC. AdaptiveState is the
// client side: it keeps a local copy of the weights for eviction decisions,
// applies penalties locally as regrets are found, buffers the (compressed,
// i.e. summed) penalties, and lazily flushes them to the controller every
// `penalty_batch` regrets, replacing the local weights with the returned
// global ones.
#ifndef DITTO_CORE_ADAPTIVE_H_
#define DITTO_CORE_ADAPTIVE_H_

#include <cmath>
#include <memory>
#include <vector>

#include "common/rand.h"
#include "common/thread_annotations.h"
#include "dm/pool.h"
#include "rdma/verbs.h"

namespace ditto::core {

struct AdaptiveConfig {
  int num_experts = 2;
  double learning_rate = 0.1;     // lambda
  uint64_t cache_size_objects = 1;
  int penalty_batch = 100;        // regrets buffered before the lazy flush
  bool lazy = true;               // false: flush on every regret (ablation)
};

// Host-side controller. Register exactly one per memory pool before clients
// start issuing weight-update RPCs.
class AdaptiveController {
 public:
  AdaptiveController(dm::MemoryPool* pool, int num_experts);

  std::vector<double> weights() const;
  // The counters are written under mu_ by the RPC handler; unlocked reads
  // here were a (benign-looking) race the thread-safety analysis flags.
  uint64_t updates_received() const {
    MutexLock lock(&mu_);
    return updates_;
  }
  // Malformed weight-update payloads rejected (wrong length, non-finite).
  uint64_t updates_rejected() const {
    MutexLock lock(&mu_);
    return rejected_;
  }

 private:
  void HandleUpdate(std::string_view request, std::string* response);

  mutable Mutex mu_;
  std::vector<double> weights_ GUARDED_BY(mu_);
  uint64_t updates_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_ GUARDED_BY(mu_) = 0;
};

// Per-client adaptive state.
class AdaptiveState {
 public:
  AdaptiveState(const AdaptiveConfig& config, rdma::Verbs* verbs);

  // Weight-proportional random choice of the deciding expert.
  int ChooseExpert(Rng& rng) const;

  // A regret was found: the missed object's history entry names the experts
  // in `bmap` and sits `age` entries deep in the logical FIFO queue.
  void OnRegret(uint64_t bmap, uint64_t age);

  // Penalty magnitude d^age (public for tests).
  double DiscountedPenalty(uint64_t age) const;

  const std::vector<double>& local_weights() const { return weights_; }
  uint64_t flushes() const { return flushes_; }

  // Forces a flush of buffered penalties (end of run).
  void Flush();

 private:
  void ApplyLocally(uint64_t bmap, double penalty);

  AdaptiveConfig config_;
  rdma::Verbs* verbs_;
  std::vector<double> weights_;
  std::vector<double> pending_penalties_;
  int pending_count_ = 0;
  uint64_t flushes_ = 0;
  double log_discount_;  // ln(d) = ln(kDiscountBase)/N
  // RPC scratch reused across flushes: the weight-update RPC sits on the
  // miss path, so steady-state flushes must not allocate.
  std::string rpc_request_;
  std::string rpc_response_;
};

}  // namespace ditto::core

#endif  // DITTO_CORE_ADAPTIVE_H_
