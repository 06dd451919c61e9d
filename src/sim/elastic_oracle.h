// Precise-LRU oracle replays for elastic-scaling comparisons: the same
// resize schedule the replay engines apply (see RunOptions::resize_schedule)
// is replayed through an exact LRU cache that either survives each step warm
// (PreciseCache::Resize — the best a warm cache can do) or COLD-RESTARTS at
// every step (the monolithic-cluster behaviour, where a scale event rebuilds
// the node set and the cache starts empty). Thresholds come from the
// runner's own NormalizedSchedule/StepIndices, so the oracle crosses phases
// at the identical request indices as RunTrace / RunTraceSharded — the bench
// columns and the tests' drop comparisons stay aligned by construction.
#ifndef DITTO_SIM_ELASTIC_ORACLE_H_
#define DITTO_SIM_ELASTIC_ORACLE_H_

#include <cstdint>
#include <vector>

#include "sim/runner.h"
#include "workloads/trace.h"

namespace ditto::sim {

// Per-phase hit counts of an oracle replay (schedule.size() + 1 phases).
struct OracleTrajectory {
  std::vector<uint64_t> gets;
  std::vector<uint64_t> hits;

  double HitRate(size_t phase) const {
    return gets[phase] == 0
               ? 0.0
               : static_cast<double>(hits[phase]) / static_cast<double>(gets[phase]);
  }
};

// Replays the whole trace through an exact LRU cache of `initial_capacity`
// objects, applying `schedule` at the runner's request indices; only the
// measured region [measure_begin, end) is counted into the trajectory.
OracleTrajectory ReplayLruOracle(const workload::Trace& trace, size_t measure_begin,
                                 const std::vector<ResizeStep>& schedule,
                                 uint64_t initial_capacity, bool cold_restart);

// Windowed cold-restart oracle for the cluster lifecycle experiments: an
// exact LRU cache of fixed `capacity` that COLD-RESTARTS at every lifecycle
// step (the monolithic-cluster behaviour, where ANY membership change — a
// crash as much as a planned join — rebuilds the node set and the cache
// starts empty). The measured region is sampled every `window_ops` accesses,
// matching RunOptions::recovery_window_ops on a pure-Get trace, so the
// bench's trajectory columns align window-for-window with
// RunResult::recovery. Step indices come from the runner's own
// NormalizedSchedule/StepIndices.
std::vector<RecoverySample> ReplayRecoveryOracle(const workload::Trace& trace,
                                                 size_t measure_begin,
                                                 const std::vector<LifecycleStep>& schedule,
                                                 uint64_t capacity, size_t window_ops);

}  // namespace ditto::sim

#endif  // DITTO_SIM_ELASTIC_ORACLE_H_
