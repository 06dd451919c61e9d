#include "sim/elastic_oracle.h"

#include <memory>

#include "policies/precise.h"

namespace ditto::sim {

OracleTrajectory ReplayLruOracle(const workload::Trace& trace, size_t measure_begin,
                                 const std::vector<ResizeStep>& schedule,
                                 uint64_t initial_capacity, bool cold_restart) {
  const std::vector<ResizeStep> steps = NormalizedSchedule(schedule);
  const std::vector<size_t> thresholds = StepIndices(steps, measure_begin, trace.size());

  OracleTrajectory out;
  out.gets.assign(steps.size() + 1, 0);
  out.hits.assign(steps.size() + 1, 0);
  auto cache = std::make_unique<policy::PreciseCache>(initial_capacity,
                                                      policy::PrecisePolicyKind::kLru);
  size_t phase = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    while (phase < thresholds.size() && i >= thresholds[phase]) {
      if (cold_restart) {
        cache = std::make_unique<policy::PreciseCache>(steps[phase].capacity_objects,
                                                       policy::PrecisePolicyKind::kLru);
      } else {
        cache->Resize(steps[phase].capacity_objects);
      }
      phase++;
    }
    const bool hit = cache->Access(trace[i].key);
    if (i >= measure_begin) {
      out.gets[phase]++;
      out.hits[phase] += hit ? 1 : 0;
    }
  }
  return out;
}

std::vector<RecoverySample> ReplayRecoveryOracle(const workload::Trace& trace,
                                                 size_t measure_begin,
                                                 const std::vector<LifecycleStep>& schedule,
                                                 uint64_t capacity, size_t window_ops) {
  const std::vector<size_t> thresholds =
      StepIndices(NormalizedSchedule(schedule), measure_begin, trace.size());

  std::vector<RecoverySample> out;
  RecoverySample cur;
  auto cache =
      std::make_unique<policy::PreciseCache>(capacity, policy::PrecisePolicyKind::kLru);
  size_t next_step = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    while (next_step < thresholds.size() && i >= thresholds[next_step]) {
      cache = std::make_unique<policy::PreciseCache>(capacity,
                                                     policy::PrecisePolicyKind::kLru);
      next_step++;
    }
    const bool hit = cache->Access(trace[i].key);
    if (i >= measure_begin && window_ops > 0) {
      cur.gets++;
      cur.hits += hit ? 1 : 0;
      if (cur.gets >= window_ops) {
        out.push_back(cur);
        cur = RecoverySample{};
      }
    }
  }
  if (cur.gets > 0) {
    out.push_back(cur);
  }
  return out;
}

}  // namespace ditto::sim
