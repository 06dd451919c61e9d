// Tests of the benchmark's own arithmetic (metrics.h). Exits non-zero on the
// first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    failures++;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b)); }

void TestNearestRank() {
  using perfbench::NearestRank;
  // 1..1000 in reverse order: the p-th percentile is ceil(p/100 * n).
  std::vector<int> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(i);
  }
  Check(NearestRank(&v, 50) == 500, "p50 of 1..1000 is 500");
  Check(NearestRank(&v, 99) == 990, "p99 of 1..1000 is 990");
  Check(NearestRank(&v, 100) == 1000, "p100 is the maximum");
  Check(NearestRank(&v, 0.01) == 1, "a tiny p is the minimum");
  std::vector<int> one = {7};
  Check(NearestRank(&one, 99) == 7, "single sample");
  std::vector<int> none;
  Check(NearestRank(&none, 50) == 0.0, "empty sample reads 0");
  // p99 of 1000 samples leaves exactly 10 beyond it; rounding must not
  // push an exact rank up (99.9% of 10000 is rank 9990, not 9991).
  using perfbench::kMinSamplesBeyond;
  using perfbench::SamplesBeyond;
  Check(SamplesBeyond(1000, 99) == kMinSamplesBeyond, "1000 samples: 10 beyond p99");
  Check(SamplesBeyond(999, 99) < kMinSamplesBeyond, "999 samples: 9 beyond p99");
  Check(SamplesBeyond(10'000, 99.9) == kMinSamplesBeyond, "10000 samples: 10 beyond p99.9");
  Check(SamplesBeyond(20, 50) == 10 && SamplesBeyond(19, 50) == 9, "p50 of 20 vs 19");
  Check(SamplesBeyond(0, 99) == 0, "no samples");
}

// A synthetic latency-vs-rate curve with a knee between 100k and 112k.
std::vector<perfbench::RateStep> Curve() {
  std::vector<perfbench::RateStep> steps;
  for (const auto& [rate, p99] : std::vector<std::pair<double, double>>{
           {50e3, 120}, {56e3, 130}, {63e3, 150}, {70e3, 180}, {79e3, 230}, {89e3, 320},
           {100e3, 600}, {112e3, 5000}, {125e3, 40000}}) {
    perfbench::RateStep s;
    s.offered = rate;
    s.get_p99_us = p99;
    steps.push_back(s);
  }
  return steps;
}

void TestSelectGoodput() {
  using perfbench::SelectGoodput;
  auto steps = Curve();
  // Limit 1000us: between 100k (600) and 112k (5000), 400/4400 of the way.
  const double expect = 100e3 * std::pow(112e3 / 100e3, 400.0 / 4400.0);
  Check(Near(SelectGoodput(steps, 1000), expect), "interpolates across the knee");
  Check(Near(SelectGoodput(steps, 600), 100e3), "a step exactly at the limit passes");
  Check(Near(SelectGoodput(steps, 1e9), 125e3), "all pass: the highest rate");
  Check(SelectGoodput(steps, 100) == 0.0, "none pass: 0");
  auto invalid = Curve();
  for (auto& s : invalid) {
    s.valid = false;
  }
  Check(SelectGoodput(invalid, 1e9) == 0.0, "all invalid: 0");

  // A backlog that grows fails the step regardless of p99; no interpolation.
  auto grew = Curve();
  grew[6].backlog_grew = true;
  Check(Near(SelectGoodput(grew, 1000), 89e3), "growing backlog fails the step");
  // A failed request fails the step.
  auto failed = Curve();
  failed[6].failed = 1;
  Check(Near(SelectGoodput(failed, 1000), 89e3), "a failure fails the step");
  // An invalid step (generator lag) is skipped, not counted as a miss.
  auto lag = Curve();
  lag[4].get_p99_us = 90000;
  lag[4].valid = false;
  Check(Near(SelectGoodput(lag, 1000), expect), "invalid steps are skipped");
  // A miss below the highest pass (a host stall) does not lower goodput.
  auto noisy = Curve();
  noisy[3].get_p99_us = 2000;
  Check(Near(SelectGoodput(noisy, 1000), expect), "a pass above a miss counts");
  // Steps may come in any order (a fine search runs below a coarse miss).
  auto shuffled = Curve();
  std::swap(shuffled[0], shuffled[8]);
  std::swap(shuffled[2], shuffled[6]);
  Check(Near(SelectGoodput(shuffled, 1000), expect), "order does not matter");
}

void TestSelfTime() {
  using perfbench::Interval;
  using perfbench::SelfTimeNs;
  std::vector<Interval> none;
  Check(SelfTimeNs({100, 200}, &none) == 100, "no children: all self");
  std::vector<Interval> disjoint = {{150, 170}, {110, 120}};
  Check(SelfTimeNs({100, 200}, &disjoint) == 70, "disjoint children subtract");
  std::vector<Interval> overlap = {{110, 150}, {130, 160}};
  Check(SelfTimeNs({100, 200}, &overlap) == 50, "overlap counts once");
  std::vector<Interval> clipped = {{50, 120}, {190, 300}};
  Check(SelfTimeNs({100, 200}, &clipped) == 70, "children clip to the parent");
  std::vector<Interval> nested = {{110, 190}, {120, 130}};
  Check(SelfTimeNs({100, 200}, &nested) == 20, "nested children count once");
  std::vector<Interval> outside = {{10, 20}, {300, 400}};
  Check(SelfTimeNs({100, 200}, &outside) == 100, "children outside the parent");
  std::vector<Interval> cover = {{0, 1000}};
  Check(SelfTimeNs({100, 200}, &cover) == 0, "fully covered parent");
}

void TestMedian() {
  Check(perfbench::Median(std::vector<double>{3, 1, 2}) == 2.0, "odd median");
  Check(perfbench::Median(std::vector<double>{4, 1, 3, 2}) == 2.5, "even median");
}

void TestSlowQuartile() {
  using perfbench::SlowQuartile;
  const std::vector<double> v = {8, 1, 7, 2, 6, 3, 5, 4};  // 1..8
  Check(SlowQuartile(v, true) == 2.0, "rate: 25th percentile (rank 2 of 8)");
  Check(SlowQuartile(v, false) == 6.0, "time: 75th percentile (rank 6 of 8)");
  // Three fast repetitions of ten do not move it.
  std::vector<double> rates(7, 1.0);
  rates.insert(rates.end(), {1.5, 1.5, 1.5});
  Check(SlowQuartile(rates, true) == 1.0, "fast stretch ignored (rates)");
  Check(SlowQuartile(std::vector<double>{5}, true) == 5.0, "one value");
}

}  // namespace

int main() {
  TestNearestRank();
  TestSelectGoodput();
  TestSelfTime();
  TestMedian();
  TestSlowQuartile();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
