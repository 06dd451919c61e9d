// Arithmetic the benchmark reports with: nearest-rank percentiles, the
// goodput pick over an offered-rate sweep, and span self time. Pure
// functions, unit-tested by selftest.cc.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// 1-based nearest rank of the p-th percentile of n samples: ceil(p/100 * n),
// at least 1. The epsilon keeps p*n/100 that is an integer in exact
// arithmetic (99.9% of 10000) from rounding up past it.
inline size_t RankFor(size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. Sorts *samples. Returns 0 for an empty sample.
template <typename T>
double NearestRank(std::vector<T>* samples, double p) {
  if (samples->empty()) {
    return 0.0;
  }
  std::sort(samples->begin(), samples->end());
  return static_cast<double>((*samples)[RankFor(samples->size(), p) - 1]);
}

// Samples strictly above the nearest-rank p-th percentile position.
inline size_t SamplesBeyond(size_t n, double p) {
  const size_t rank = RankFor(n, p);
  return n > rank ? n - rank : 0;
}

// A tail percentile is reported only with at least this many samples beyond
// it; with fewer, it rests on a handful of the sample's largest values.
inline constexpr size_t kMinSamplesBeyond = 10;

inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// One offered-rate step of the open-loop sweep.
struct RateStep {
  double offered = 0.0;     // requests per second
  double get_p99_us = 0.0;  // GET latency p99, timed from each request's due time
  bool backlog_grew = false;
  uint64_t failed = 0;      // error, shed or refused replies
  bool valid = true;        // false: the generator itself ran late
  bool Passes(double limit_us) const {
    return !backlog_grew && failed == 0 && get_p99_us <= limit_us;
  }
};

// Goodput over a sweep's steps (any order): the highest offered rate among
// valid steps that meet the GET p99 limit with no growing backlog and no
// failures. Host stalls can only make a step miss, never pass, so a pass
// above a miss still shows the server kept up at that rate. When the lowest
// valid step above that rate missed on p99 alone, the rate is interpolated
// toward it (log-rate, linear in p99), so the figure moves smoothly instead of
// in grid steps. Returns 0 when no valid step passes.
inline double SelectGoodput(const std::vector<RateStep>& steps, double limit_us) {
  const RateStep* best = nullptr;
  for (const RateStep& step : steps) {
    if (step.valid && step.Passes(limit_us) && (best == nullptr || step.offered > best->offered)) {
      best = &step;
    }
  }
  if (best == nullptr) {
    return 0.0;
  }
  const RateStep* miss = nullptr;  // the lowest valid miss above `best`
  for (const RateStep& step : steps) {
    if (step.valid && !step.Passes(limit_us) && step.offered > best->offered &&
        (miss == nullptr || step.offered < miss->offered)) {
      miss = &step;
    }
  }
  if (miss == nullptr || miss->backlog_grew || miss->failed > 0 ||
      miss->get_p99_us <= best->get_p99_us) {
    return best->offered;
  }
  const double frac = std::clamp(
      (limit_us - best->get_p99_us) / (miss->get_p99_us - best->get_p99_us), 0.0, 1.0);
  return best->offered * std::pow(miss->offered / best->offered, frac);
}

// A half-open time interval [begin_ns, end_ns).
struct Interval {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

// Self time of a parent span: its duration minus the part of it that the
// union of its children covers (children are clipped to the parent; overlap
// between children is counted once). Sorts *children.
inline uint64_t SelfTimeNs(Interval parent, std::vector<Interval>* children) {
  if (parent.end_ns <= parent.begin_ns) {
    return 0;
  }
  std::sort(children->begin(), children->end(),
            [](const Interval& a, const Interval& b) { return a.begin_ns < b.begin_ns; });
  uint64_t covered = 0;
  uint64_t cursor = parent.begin_ns;  // everything before cursor is accounted
  for (const Interval& child : *children) {
    const uint64_t b = std::max(child.begin_ns, cursor);
    const uint64_t e = std::min(child.end_ns, parent.end_ns);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return parent.end_ns - parent.begin_ns - covered;
}

// The figure a run reports from repeated host measurements of one quantity
// (replay repetitions, one-second segments): the slow quartile, the 25th
// percentile of rates or the 75th of times. Shared hosts run some stretches
// of seconds much faster than the rest (measured up to 1.5x, on every
// workload at once, while other tenants idle). The slow quartile is what the
// host gives at least three quarters of the time, so a run that happens to
// fall partly in such a stretch reads like the others.
template <typename T>
double SlowQuartile(std::vector<T> values, bool is_rate) {
  return NearestRank(&values, is_rate ? 25.0 : 75.0);
}

// Conventional median (mean of the two middle values for an even count).
template <typename T>
double Median(std::vector<T> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return static_cast<double>(values[mid]);
  }
  return (static_cast<double>(values[mid - 1]) + static_cast<double>(values[mid])) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
