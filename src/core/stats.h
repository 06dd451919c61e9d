// DittoStats: the one per-client counter struct. sim::ClientCounters is this
// type and sim::RunResult inherits it, so every hop from a client to a
// result row is a copy or a +=.
#ifndef DITTO_CORE_STATS_H_
#define DITTO_CORE_STATS_H_

#include <cstdint>

namespace ditto::core {

struct DittoStats {
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t deletes = 0;
  uint64_t evictions = 0;
  uint64_t expired = 0;  // objects reclaimed by lazy TTL expiry on lookup
  uint64_t regrets = 0;
  uint64_t set_retries = 0;
  // Contention counters (nonzero only when clients race on one pool).
  uint64_t cas_failures = 0;    // slot CASes lost to a concurrent client
  uint64_t insert_retries = 0;  // claim-phase rounds repeated after a race
  uint64_t dup_resolved = 0;    // duplicate copies reclaimed after insert races

  double HitRate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }

  DittoStats& operator+=(const DittoStats& o) {
    gets += o.gets;
    sets += o.sets;
    hits += o.hits;
    misses += o.misses;
    deletes += o.deletes;
    evictions += o.evictions;
    expired += o.expired;
    regrets += o.regrets;
    set_retries += o.set_retries;
    cas_failures += o.cas_failures;
    insert_retries += o.insert_retries;
    dup_resolved += o.dup_resolved;
    return *this;
  }
};

}  // namespace ditto::core

#endif  // DITTO_CORE_STATS_H_
