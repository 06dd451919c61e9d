// 64-bit hashing utilities shared by the hash table, workloads, and baselines.
#ifndef DITTO_COMMON_HASH_H_
#define DITTO_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ditto {

// SplitMix64 finalizer. Good avalanche behaviour for integer keys.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a / mix hybrid for byte strings. Stable across platforms and runs.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t i = 0;
  // Consume 8-byte words, then the tail.
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h = Mix64(h);
  }
  uint64_t tail = 0;
  for (size_t j = 0; i < len; ++i, j += 8) {
    tail |= static_cast<uint64_t>(p[i]) << j;
  }
  h = (h ^ tail ^ len) * 0x100000001b3ULL;
  return Mix64(h);
}

inline uint64_t HashKey(std::string_view key) { return HashBytes(key.data(), key.size()); }

// Fast integrity checksum for torn-read detection (objects read while a
// concurrent writer reuses their blocks). Weaker per-word mixing than
// HashBytes — a rotate-xor-multiply accumulator with one final Mix64 — which
// is plenty to make a mixed-generation buffer miss with ~2^-64 probability,
// at a fraction of the hashing cost on the Get/Set hot path. Not for hash
// tables: dispersion of low bits is deliberately traded for speed.
inline uint64_t ChecksumBytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (len * 0xff51afd7ed558ccdULL);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = ((h << 27) | (h >> 37)) ^ w;
    h *= 0xc2b2ae3d27d4eb4fULL;
  }
  uint64_t tail = 0;
  for (size_t j = 0; i < len; ++i, j += 8) {
    tail |= static_cast<uint64_t>(p[i]) << j;
  }
  return Mix64(h ^ tail);
}

// Seeded partition of a 64-bit key or hash into n buckets. Every seed,
// including 0, is an ordinary seed. The single mixing formula shared by the
// cluster ring's primary placement (core::RingEpoch::PrimaryFor, over
// string-key hashes) and the concurrent runner's sim::ShardForKey (over raw
// integer trace keys); note the two call sites hash different domains, so
// their partitions are not interchangeable even at the same seed.
constexpr uint32_t SeededPartition(uint64_t h, size_t n, uint64_t seed) {
  return static_cast<uint32_t>(Mix64(h ^ (seed * 0x9e3779b97f4a7c15ULL)) % n);
}

// 1-byte fingerprint stored in hash-table slots; never zero so that zero can
// mean "empty".
inline uint8_t Fingerprint(uint64_t hash) {
  uint8_t fp = static_cast<uint8_t>(hash >> 56);
  return fp == 0 ? 1 : fp;
}

}  // namespace ditto

#endif  // DITTO_COMMON_HASH_H_
