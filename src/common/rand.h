// Deterministic random number generation: xoshiro256** engine plus the
// Zipfian generator used by YCSB-style workloads.
#ifndef DITTO_COMMON_RAND_H_
#define DITTO_COMMON_RAND_H_

#include <cmath>
#include <cstdint>

#include "common/hash.h"

namespace ditto {

// xoshiro256** by Blackman & Vigna. Fast, high-quality, seedable.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x6974746f6e5fULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the four state words.
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      word = Mix64(seed);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

// Zipfian generator over [0, n) with parameter theta, using the Gray et al.
// method adopted by YCSB. Item 0 is the hottest. The method is only valid
// for theta in [0, 1); requests outside that range are clamped to 0.99 (the
// YCSB default), which is also the skew every experiment in this repo uses.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta, uint64_t seed = 1);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double ZetaStatic(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  double rank1_limit_;  // 1 + 0.5^theta: draws with u * zetan below it are rank <= 1
};

// Scrambled Zipfian: Zipfian rank mapped through a hash so that hot keys are
// spread over the key space (matches YCSB's ScrambledZipfianGenerator).
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(uint64_t n, double theta, uint64_t seed = 1)
      : n_(n), zipf_(n, theta, seed) {}

  uint64_t Next(Rng& rng) { return Mix64(zipf_.Next(rng)) % n_; }

 private:
  uint64_t n_;
  ZipfianGenerator zipf_;
};

}  // namespace ditto

#endif  // DITTO_COMMON_RAND_H_
