#include "workloads/synthetic_traces.h"

#include <algorithm>
#include <cassert>

#include "common/rand.h"

namespace ditto::workload {

Trace MakeStationaryZipf(uint64_t count, uint64_t num_keys, double theta, uint64_t seed,
                         uint64_t key_base) {
  Rng rng(seed);
  ScrambledZipfianGenerator zipf(num_keys, theta, seed);
  Trace trace;
  trace.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    trace.push_back(Request{Op::kGet, key_base + zipf.Next(rng)});
  }
  return trace;
}

Trace MakeShiftingHotSet(uint64_t count, uint64_t num_keys, uint64_t hot_keys,
                         uint64_t shift_every, uint64_t shift_keys, uint64_t seed,
                         uint64_t key_base) {
  assert(hot_keys > 0 && hot_keys <= num_keys);
  Rng rng(seed);
  Trace trace;
  trace.reserve(count);
  uint64_t window_start = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (shift_every > 0 && i > 0 && i % shift_every == 0) {
      window_start = (window_start + shift_keys) % num_keys;
    }
    // 90% of accesses hit the current hot window (skewed inside it), the
    // rest are uniform cold traffic.
    uint64_t key;
    if (rng.NextDouble() < 0.9) {
      // Mild skew within the window: prefer lower offsets.
      const uint64_t a = rng.NextBelow(hot_keys);
      const uint64_t b = rng.NextBelow(hot_keys);
      key = (window_start + std::min(a, b)) % num_keys;
    } else {
      key = rng.NextBelow(num_keys);
    }
    trace.push_back(Request{Op::kGet, key_base + key});
  }
  return trace;
}

Trace MakeLfuFriendly(uint64_t count, uint64_t num_keys, double theta, double noise_frac,
                      uint64_t seed, uint64_t key_base) {
  Rng rng(seed);
  ScrambledZipfianGenerator zipf(num_keys, theta, seed);
  Trace trace;
  trace.reserve(count);
  uint64_t noise_cursor = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (rng.NextDouble() < noise_frac) {
      // One-hit wonder: a fresh key that never repeats.
      trace.push_back(Request{Op::kGet, key_base + num_keys + noise_cursor++});
    } else {
      trace.push_back(Request{Op::kGet, key_base + zipf.Next(rng)});
    }
  }
  return trace;
}

Trace MakeZipfWithScans(uint64_t count, uint64_t num_keys, double theta, uint64_t scan_every,
                        uint64_t scan_len, uint64_t seed, uint64_t key_base) {
  Rng rng(seed);
  ScrambledZipfianGenerator zipf(num_keys, theta, seed);
  Trace trace;
  trace.reserve(count);
  uint64_t scan_cursor = 0;
  uint64_t i = 0;
  while (i < count) {
    if (scan_every > 0 && i > 0 && i % scan_every < scan_len) {
      // Sequential scan over never-repeating cold keys (the classic LRU
      // poison: each scanned key is touched exactly once).
      trace.push_back(Request{Op::kGet, key_base + num_keys + scan_cursor++});
      ++i;
      continue;
    }
    trace.push_back(Request{Op::kGet, key_base + zipf.Next(rng)});
    ++i;
  }
  return trace;
}

Trace MakeChangingWorkload(int phases, uint64_t phase_len, uint64_t num_keys, uint64_t seed) {
  Trace trace;
  trace.reserve(static_cast<size_t>(phases) * phase_len);
  for (int p = 0; p < phases; ++p) {
    Trace phase;
    if (p % 2 == 0) {
      // LFU-friendly phase: stable skewed core plus one-hit-wonder noise.
      phase = MakeLfuFriendly(phase_len, num_keys / 2, 0.99, 0.3,
                              seed + static_cast<uint64_t>(p));
    } else {
      // LRU-friendly phase: the hot window drifts quickly.
      phase = MakeShiftingHotSet(phase_len, num_keys, num_keys / 20,
                                 /*shift_every=*/phase_len / 40, /*shift_keys=*/num_keys / 50,
                                 seed + static_cast<uint64_t>(p));
    }
    trace.insert(trace.end(), phase.begin(), phase.end());
  }
  return trace;
}

Trace MakeTwoAppMix(uint64_t count, uint64_t footprint, double lru_fraction) {
  const auto lru_count = static_cast<uint64_t>(lru_fraction * static_cast<double>(count));
  const Trace lru_app = MakeShiftingHotSet(lru_count, footprint, footprint / 10, count / 60,
                                           footprint / 16, 3);
  const Trace lfu_app =
      MakeLfuFriendly(count - lru_count, footprint / 2, 0.99, 0.3, 4, 2 * footprint);
  Trace mixed;
  mixed.reserve(count);
  size_t ia = 0;
  size_t ib = 0;
  Rng rng(7);
  while (ia < lru_app.size() || ib < lfu_app.size()) {
    const bool from_lru =
        ib >= lfu_app.size() || (ia < lru_app.size() && rng.NextDouble() < lru_fraction);
    mixed.push_back(from_lru ? lru_app[ia++] : lfu_app[ib++]);
  }
  return mixed;
}

namespace {

// Blends two traces request-by-request with the given probability of
// drawing from the first.
Trace Blend(const Trace& a, const Trace& b, double frac_a, uint64_t seed) {
  Rng rng(seed);
  Trace out;
  out.reserve(a.size() + b.size());
  size_t ia = 0;
  size_t ib = 0;
  while (ia < a.size() || ib < b.size()) {
    const bool from_a = ib >= b.size() || (ia < a.size() && rng.NextDouble() < frac_a);
    if (from_a) {
      out.push_back(a[ia++]);
    } else {
      out.push_back(b[ib++]);
    }
  }
  return out;
}

}  // namespace

Trace MakeNamedTrace(const std::string& name, uint64_t count, uint64_t footprint,
                     uint64_t seed) {
  if (name == "webmail") {
    // FIU webmail-like block I/O: a strong daily working set that drifts,
    // with a persistent skewed core. Mildly LRU-leaning; the best algorithm
    // flips with cache size (paper Figure 4).
    const Trace drift = MakeShiftingHotSet(count / 2, footprint, footprint / 8, count / 64,
                                           footprint / 24, seed);
    const Trace core = MakeStationaryZipf(count - count / 2, footprint / 2, 0.9, seed + 1);
    return Blend(drift, core, 0.5, seed + 2);
  }
  if (name == "twitter-transient") {
    // Transient caching cluster: recency-dominated, fast-moving content.
    return MakeShiftingHotSet(count, footprint, footprint / 12, count / 128, footprint / 32,
                              seed);
  }
  if (name == "twitter-storage") {
    // Storage cluster: stable skewed popularity with a long one-hit-wonder
    // tail -> LFU-friendly.
    return MakeLfuFriendly(count, footprint / 2, 0.99, 0.3, seed);
  }
  if (name == "twitter-compute") {
    // Compute cluster: skewed traffic with periodic scan-like batch jobs.
    return MakeZipfWithScans(count, footprint / 2, 1.0, count / 16, footprint / 8, seed);
  }
  if (name == "ibm") {
    // Object store: heavy skew plus a large one-hit-wonder tail.
    return MakeLfuFriendly(count, footprint / 3, 0.95, 0.25, seed);
  }
  if (name == "cloudphysics") {
    // VM block I/O: looping scans over VM images plus skewed metadata.
    const Trace loops = MakeZipfWithScans(count / 2, footprint / 3, 0.8, count / 24,
                                          footprint / 6, seed);
    const Trace drift = MakeShiftingHotSet(count - count / 2, footprint, footprint / 10,
                                           count / 96, footprint / 40, seed + 5);
    return Blend(loops, drift, 0.5, seed + 6);
  }
  assert(false && "unknown trace family");
  return {};
}

const std::vector<std::string>& NamedTraceFamilies() {
  static const std::vector<std::string> kFamilies = {
      "webmail", "twitter-transient", "twitter-storage", "twitter-compute", "ibm",
      "cloudphysics"};
  return kFamilies;
}

Trace MakeSuiteWorkload(int index, uint64_t count, uint64_t footprint, uint64_t seed) {
  // Deterministic parameter sweep: theta, drift cadence and blend fraction
  // vary with the index, yielding workloads across the LRU<->LFU spectrum.
  const uint64_t s = seed + static_cast<uint64_t>(index) * 97;
  const double theta = 0.7 + 0.03 * static_cast<double>(index % 9);
  const double noise_frac = 0.1 + 0.05 * static_cast<double>(index % 5);
  const double frac_stationary = static_cast<double>(index % 11) / 10.0;
  const uint64_t shift_every = count / (8 + static_cast<uint64_t>(index % 13) * 8);
  // Component sizes follow the mix fraction so extreme indices yield pure
  // LFU-friendly or pure LRU-friendly workloads.
  const uint64_t n_stationary = static_cast<uint64_t>(frac_stationary * static_cast<double>(count));
  const Trace stationary = MakeLfuFriendly(n_stationary, footprint / 2, theta, noise_frac, s);
  const Trace drift = MakeShiftingHotSet(count - n_stationary, footprint,
                                         footprint / (4 + index % 7), shift_every,
                                         footprint / (16 + index % 9), s + 1);
  return Blend(stationary, drift, frac_stationary, s + 2);
}

}  // namespace ditto::workload
