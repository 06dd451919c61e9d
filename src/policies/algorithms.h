// The 12 caching algorithms of paper Table 3, expressed as priority /
// update rules over the default metadata plus (for the advanced ones)
// extension words persisted with objects.
//
// Priority convention: the sampled object with the LOWEST priority is
// evicted. Timestamps are logical ticks.
#ifndef DITTO_POLICIES_ALGORITHMS_H_
#define DITTO_POLICIES_ALGORITHMS_H_

#include <algorithm>
#include <cmath>

#include "policies/policy.h"

namespace ditto::policy {

// Extension words hold doubles as bit patterns for value-based algorithms.
inline uint64_t DoubleToBits(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, 8);
  return bits;
}
inline double BitsToDouble(uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, 8);
  return d;
}

// ---- Recency / frequency basics ------------------------------------------

class LruPolicy : public CachePolicy {
 public:
  std::string name() const override { return "lru"; }
  double Priority(const Metadata& m) const override { return static_cast<double>(m.last_ts); }
};

class LfuPolicy : public CachePolicy {
 public:
  std::string name() const override { return "lfu"; }
  double Priority(const Metadata& m) const override {
    // Equal frequencies tie-break by recency (as exact LFU implementations
    // do); the epsilon keeps the recency term far below one access.
    return static_cast<double>(m.freq) + 1e-10 * static_cast<double>(m.last_ts);
  }
};

class MruPolicy : public CachePolicy {
 public:
  std::string name() const override { return "mru"; }
  double Priority(const Metadata& m) const override { return -static_cast<double>(m.last_ts); }
};

class FifoPolicy : public CachePolicy {
 public:
  std::string name() const override { return "fifo"; }
  double Priority(const Metadata& m) const override { return static_cast<double>(m.insert_ts); }
};

// SIZE: evict the largest object first.
class SizePolicy : public CachePolicy {
 public:
  std::string name() const override { return "size"; }
  double Priority(const Metadata& m) const override { return -static_cast<double>(m.size_bytes); }
};

// ---- GreedyDual family (inflation value L kept client-locally) ------------
// Each access freezes H = L + value into ext[0] (as LFUDA does below), so an
// object keeps the inflation value of its last access and ages out once L
// passes it. An object never touched since the policy joined has ext[0] == 0
// and ranks at the current L + value.

class GdsPolicy : public CachePolicy {
 public:
  std::string name() const override { return "gds"; }
  int extension_words() const override { return 1; }

  void Update(Metadata& m) const override {
    m.ext[0] = DoubleToBits(inflation_ + m.cost / static_cast<double>(m.size_bytes));
  }

  double Priority(const Metadata& m) const override {
    const double h = BitsToDouble(m.ext[0]);
    return h > 0.0 ? h : inflation_ + m.cost / static_cast<double>(m.size_bytes);
  }

  void OnEvict(const Metadata& victim) const override {
    inflation_ = std::max(inflation_, Priority(victim));
  }

 private:
  mutable double inflation_ = 0.0;
};

class GdsfPolicy : public CachePolicy {
 public:
  std::string name() const override { return "gdsf"; }
  int extension_words() const override { return 1; }

  void Update(Metadata& m) const override {
    m.ext[0] = DoubleToBits(inflation_ + Value(m));
  }

  double Priority(const Metadata& m) const override {
    const double h = BitsToDouble(m.ext[0]);
    return h > 0.0 ? h : inflation_ + Value(m);
  }

  void OnEvict(const Metadata& victim) const override {
    inflation_ = std::max(inflation_, Priority(victim));
  }

 private:
  static double Value(const Metadata& m) {
    return static_cast<double>(m.freq) * m.cost / static_cast<double>(m.size_bytes);
  }

  mutable double inflation_ = 0.0;
};

// LFU with Dynamic Aging: an object's key K = freq + L(at last access) is
// baked into ext[0] on each access, so stale-hot objects age out once the
// inflation value L passes their frozen key.
class LfudaPolicy : public CachePolicy {
 public:
  std::string name() const override { return "lfuda"; }
  int extension_words() const override { return 1; }

  void Update(Metadata& m) const override {
    m.ext[0] = DoubleToBits(static_cast<double>(m.freq) + inflation_);
  }

  double Priority(const Metadata& m) const override {
    const double key = BitsToDouble(m.ext[0]);
    return key > 0.0 ? key : inflation_ + static_cast<double>(m.freq);
  }

  void OnEvict(const Metadata& victim) const override {
    inflation_ = std::max(inflation_, Priority(victim));
  }

 private:
  mutable double inflation_ = 0.0;
};

// ---- Algorithms with extension metadata -----------------------------------

// LRU-K (paper Listing 1): evict the object with the smallest K-th most
// recent access timestamp; objects with fewer than K accesses fall back to
// FIFO on their insert timestamp. ext[0..K-1] is a ring of timestamps.
class LrukPolicy : public CachePolicy {
 public:
  static constexpr int kK = 2;

  std::string name() const override { return "lruk"; }
  int extension_words() const override { return kK; }

  void Update(Metadata& m) const override { m.ext[m.freq % kK] = m.now; }

  double Priority(const Metadata& m) const override {
    if (m.freq < kK) {
      return static_cast<double>(m.insert_ts);
    }
    return static_cast<double>(m.ext[(m.freq - kK + 1) % kK]);
  }
};

// LRFU: combined recency-frequency value CRF(t) = sum over accesses of
// 2^(-lambda * (t - t_access)). ext[0] holds the CRF as a double bit
// pattern, ext[1] the timestamp of the last CRF update.
class LrfuPolicy : public CachePolicy {
 public:
  static constexpr double kLambda = 1e-4;

  std::string name() const override { return "lrfu"; }
  int extension_words() const override { return 2; }

  void Update(Metadata& m) const override {
    const double crf = Decayed(BitsToDouble(m.ext[0]), m.ext[1], m.now);
    m.ext[0] = DoubleToBits(crf + 1.0);
    m.ext[1] = m.now;
  }

  double Priority(const Metadata& m) const override {
    return Decayed(BitsToDouble(m.ext[0]), m.ext[1], m.now);
  }

 private:
  static double Decayed(double crf, uint64_t from, uint64_t now) {
    const double age = now >= from ? static_cast<double>(now - from) : 0.0;
    return crf * std::exp2(-kLambda * age);
  }
};

// LIRS (approximated for sampling): objects are ranked by inter-reference
// recency (IRR), the gap between the last two accesses; cold objects seen
// once rank by plain recency. ext[0] stores the previous access timestamp.
// This is the standard sampling approximation of the LIRS stack.
class LirsPolicy : public CachePolicy {
 public:
  std::string name() const override { return "lirs"; }
  int extension_words() const override { return 1; }

  void Update(Metadata& m) const override { m.ext[0] = m.last_ts; }

  double Priority(const Metadata& m) const override {
    if (m.freq < 2) {
      return static_cast<double>(m.last_ts);  // HIR: rank by recency
    }
    const uint64_t irr = m.last_ts - m.ext[0];
    // LIR blocks (small IRR) get a large priority so they survive sampling.
    return static_cast<double>(m.last_ts) - static_cast<double>(irr);
  }
};

// Hyperbolic caching: priority = freq / age-in-cache (evict smallest rate).
class HyperbolicPolicy : public CachePolicy {
 public:
  std::string name() const override { return "hyperbolic"; }
  double Priority(const Metadata& m) const override {
    const double age =
        m.now > m.insert_ts ? static_cast<double>(m.now - m.insert_ts) : 1.0;
    return static_cast<double>(m.freq) * m.cost /
           (static_cast<double>(m.size_bytes) * age);
  }
};

}  // namespace ditto::policy

#endif  // DITTO_POLICIES_ALGORITHMS_H_
