// Entry points of the benchmark harness: one function per workload family,
// each filling a Report, plus the helpers they share.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "report.h"
#include "traced_client.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string spans_path;  // traced runs write their spans here (CSV)
};

// replay-ycsb-c and replay-churn-elastic.
void RunReplay(const RunArgs& args, Report* report);
// wire-ycsb-a.
void RunWire(const RunArgs& args, Report* report);

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Writes the `limit` earliest spans as CSV, in start order, times relative
// to the first.
inline void WriteSpans(const std::string& path, std::vector<Span> spans,
                       size_t limit = 200'000) {
  if (path.empty() || spans.empty()) {
    return;
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.begin_ns < b.begin_ns; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  const uint64_t origin = spans[0].begin_ns;
  std::fprintf(f, "name,tag,op,id,key,begin_ns,end_ns\n");
  for (size_t i = 0; i < spans.size() && i < limit; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s,%u,%s,%llu,%llu,%llu,%llu\n", SpanNameString(s.name), s.tag,
                 OpClassString(s.op), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.key),
                 static_cast<unsigned long long>(s.begin_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin));
  }
  std::fclose(f);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
