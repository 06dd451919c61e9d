// Synthetic trace generators standing in for the paper's real-world trace
// families (FIU webmail, Twitter transient/storage/compute, IBM ObjectStore,
// CloudPhysics). Each generator is constructed to exhibit the caching-
// algorithm affinity the corresponding family shows in the paper:
//
//   * Stationary Zipf popularity         -> LFU-friendly (stable hot set)
//   * Shifting working set               -> LRU-friendly (recency wins)
//   * Sequential scans / loops           -> poisons LRU, favors LFU/LIRS
//   * Phase mixtures                     -> best algorithm changes over time
//
// The generators are deterministic given (parameters, seed). Tests verify
// the intended affinity by measuring exact-LRU vs exact-LFU hit rates.
#ifndef DITTO_WORKLOADS_SYNTHETIC_TRACES_H_
#define DITTO_WORKLOADS_SYNTHETIC_TRACES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/trace.h"

namespace ditto::workload {

// Stationary Zipf over [key_base, key_base+num_keys). On its own LRU and LFU
// perform nearly identically here; combine with one-hit-wonder noise (below)
// for a decisively LFU-friendly pattern.
Trace MakeStationaryZipf(uint64_t count, uint64_t num_keys, double theta, uint64_t seed,
                         uint64_t key_base = 0);

// LFU-friendly: stationary Zipf core mixed with `noise_frac` one-hit-wonder
// traffic (fresh keys that never repeat). LRU wastes capacity caching the
// noise; LFU's frequency signal keeps the hot core resident.
Trace MakeLfuFriendly(uint64_t count, uint64_t num_keys, double theta, double noise_frac,
                      uint64_t seed, uint64_t key_base = 0);

// Hot working set of `hot_keys` keys that drifts by `shift_keys` every
// `shift_every` requests: LRU-friendly (frequency information goes stale).
Trace MakeShiftingHotSet(uint64_t count, uint64_t num_keys, uint64_t hot_keys,
                         uint64_t shift_every, uint64_t shift_keys, uint64_t seed,
                         uint64_t key_base = 0);

// Zipf traffic interrupted by full sequential scans of `scan_len` cold keys
// every `scan_every` requests: scans flush LRU but not LFU.
Trace MakeZipfWithScans(uint64_t count, uint64_t num_keys, double theta, uint64_t scan_every,
                        uint64_t scan_len, uint64_t seed, uint64_t key_base = 0);

// The LeCaR-style changing workload (paper Figure 19): `phases` alternating
// LRU-friendly and LFU-friendly segments of `phase_len` requests each.
Trace MakeChangingWorkload(int phases, uint64_t phase_len, uint64_t num_keys, uint64_t seed);

// Two applications sharing one cache (paper Figures 3 and 20): an
// LRU-friendly app (shifting hot set over keys [0, footprint)) issuing
// `lru_fraction` of `count` requests, and an LFU-friendly app (Zipf core plus
// noise, keys from 2*footprint) issuing the rest, interleaved at random.
Trace MakeTwoAppMix(uint64_t count, uint64_t footprint, double lru_fraction);

// Named trace families used throughout the evaluation benches. Valid names:
// webmail, twitter-transient, twitter-storage, twitter-compute, ibm,
// cloudphysics. `count` requests over roughly `footprint` distinct keys.
Trace MakeNamedTrace(const std::string& name, uint64_t count, uint64_t footprint,
                     uint64_t seed);

const std::vector<std::string>& NamedTraceFamilies();

// A parameterized suite of `count` distinct workloads (mix fractions, theta,
// shift cadence vary per index) used by the 74-workload and 33-workload
// studies (Figures 5 and 18).
Trace MakeSuiteWorkload(int index, uint64_t count, uint64_t footprint, uint64_t seed);

}  // namespace ditto::workload

#endif  // DITTO_WORKLOADS_SYNTHETIC_TRACES_H_
