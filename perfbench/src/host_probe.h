// Host-noise probe recorded with every run, so a noisy run shows as noisy
// rather than as a regression: stalls a plain busy loop sees (gaps between
// consecutive clock reads) and the share of CPU time the hypervisor stole,
// from /proc/stat.
#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <cstdio>

#include "report.h"
#include "traced_client.h"

namespace perfbench {

struct StallProbe {
  uint64_t stalls = 0;        // gaps over 100 us
  double max_stall_us = 0.0;
};

// Spins for `seconds`, counting clock-read gaps longer than 100 us.
inline StallProbe ProbeStalls(double seconds) {
  StallProbe probe;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t prev = start;
  uint64_t max_gap = 0;
  while (prev < end) {
    const uint64_t now = NowNs();
    const uint64_t gap = now - prev;
    if (gap > 100'000) {
      probe.stalls++;
    }
    if (gap > max_gap) {
      max_gap = gap;
    }
    prev = now;
  }
  probe.max_stall_us = static_cast<double>(max_gap) / 1000.0;
  return probe;
}

// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

inline CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  unsigned long long v[10] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8], &v[9]);
  std::fclose(f);
  // user nice system idle iowait irq softirq steal [guest guest_nice]: guest
  // time is already included in user/nice.
  for (int i = 0; i < n && i < 8; ++i) {
    t.total += v[i];
  }
  t.steal = n >= 8 ? v[7] : 0;
  return t;
}

// Steal as a percentage of all CPU time between two readings.
inline double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

// Records the probe and the run's steal share as host.* metrics and prints
// them, so every run's output shows how noisy the host was.
inline void RecordHostNoise(const StallProbe& probe, const CpuTimes& before, Report* report) {
  const double steal = StealPercent(before, ReadCpuTimes());
  report->Set("host.stalls", static_cast<double>(probe.stalls));
  report->Set("host.max_stall_us", probe.max_stall_us);
  report->Set("host.steal_pct", steal);
  std::printf("# host: %llu stalls over 100 us in 0.3 s (longest %.0f us), steal %.2f%%\n",
              static_cast<unsigned long long>(probe.stalls), probe.max_stall_us, steal);
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
