// Time sources for the simulated disaggregated-memory substrate.
//
// LogicalClock: an atomic tick used as the timestamp domain for cache
// metadata (insert_ts / last_ts); each dm::MemoryPool owns one, shared by
// all of its clients. Deterministic across runs.
//
// VirtualClock: per-client accumulated busy time in nanoseconds. One-sided
// verbs, lock backoffs and miss penalties charge latency here; experiment
// elapsed time is derived from these accounts plus the NIC / MN-CPU serial
// components (see rdma::NicModel, rdma::CpuModel).
#ifndef DITTO_COMMON_CLOCK_H_
#define DITTO_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace ditto {

class LogicalClock {
 public:
  // Returns a strictly increasing tick.
  uint64_t Tick() { return now_.fetch_add(1, std::memory_order_relaxed) + 1; }
  uint64_t Now() const { return now_.load(std::memory_order_relaxed); }
  void Reset() { now_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> now_{0};
};

class VirtualClock {
 public:
  void AdvanceNs(uint64_t ns) { busy_ns_ += ns; }
  void AdvanceUs(double us) { busy_ns_ += static_cast<uint64_t>(us * 1000.0); }
  // Advances to an absolute busy-time point (no-op when already past it).
  // Used when retiring pipelined operations: the client blocks until the
  // op's completion timestamp unless later work already moved the clock.
  void AdvanceToNs(uint64_t ns) {
    if (ns > busy_ns_) {
      busy_ns_ = ns;
    }
  }
  uint64_t busy_ns() const { return busy_ns_; }
  double busy_us() const { return static_cast<double>(busy_ns_) / 1000.0; }
  void Reset() { busy_ns_ = 0; }

 private:
  uint64_t busy_ns_ = 0;
};

}  // namespace ditto

#endif  // DITTO_COMMON_CLOCK_H_
