// The typed client operation protocol: every cache request a client can
// issue is a CacheOp, every response a CacheResult. CacheClient implementations
// consume whole batches (ExecuteBatch), which is what lets clients chain the
// metadata verbs of pipelined multi-key requests into a single NIC doorbell;
// the blocking Get/Set/Delete/Expire calls are thin wrappers over a
// one-element batch.
//
// A run of consecutive kMultiGet ops in one batch is a pipelined multi-get:
// each key is a Get with Get's own status and latency, and clients that
// support doorbell batching chain the whole run's async metadata verbs
// behind one doorbell per memory node.
#ifndef DITTO_SIM_CACHE_OP_H_
#define DITTO_SIM_CACHE_OP_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace ditto::sim {

enum class OpKind : uint8_t {
  kGet,       // point lookup
  kSet,       // insert or update (ttl_ticks > 0 arms expiry)
  kDelete,    // remove the key
  kMultiGet,  // one key of a pipelined multi-key lookup (a Get in a doorbell chain)
  kExpire,    // (re)arm the TTL of a cached key (ttl_ticks == 0 clears it)
};

enum class OpStatus : uint8_t {
  kHit,          // Get/MultiGet found the key
  kMiss,         // Get/MultiGet did not (includes lazily-expired objects)
  kStored,       // Set stored the value / Expire armed the TTL
  kDeleted,      // Delete removed a cached key
  kNotFound,     // Delete/Expire on a key that is not cached
  kDropped,      // Set could not store (memory exhausted, nothing evictable)
  kUnavailable,  // the backing node is crashed / retries exhausted (cluster
                 // deployments); front ends surface this as -UNAVAILABLE
                 // instead of serving a silent miss
};

// One typed request. Keys and values are views into caller-owned storage and
// must stay alive for the duration of the ExecuteBatch call.
struct CacheOp {
  OpKind kind = OpKind::kGet;
  std::string_view key;
  std::string_view value = {};
  // TTL in logical-clock ticks, relative to now; 0 = never expires. Expiry is
  // lazy: an expired object is reclaimed by the next lookup that touches it.
  uint64_t ttl_ticks = 0;
  // When false, a Get/MultiGet hit skips copying the value into the result
  // (the runner's replay path only needs hit/miss outcomes).
  bool want_value = true;

  static CacheOp Get(std::string_view key, bool want_value = true) {
    return CacheOp{OpKind::kGet, key, {}, 0, want_value};
  }
  static CacheOp Set(std::string_view key, std::string_view value, uint64_t ttl_ticks = 0) {
    return CacheOp{OpKind::kSet, key, value, ttl_ticks};
  }
  static CacheOp Delete(std::string_view key) { return CacheOp{OpKind::kDelete, key, {}, 0}; }
  static CacheOp MultiGet(std::string_view key, bool want_value = true) {
    return CacheOp{OpKind::kMultiGet, key, {}, 0, want_value};
  }
  static CacheOp Expire(std::string_view key, uint64_t ttl_ticks) {
    return CacheOp{OpKind::kExpire, key, {}, ttl_ticks};
  }
};

// One typed response. `value` is filled only for kHit results; `latency_us`
// is the virtual-time cost the executing client charged for the op (each key
// of a kMultiGet run carries its own Get's cost).
struct CacheResult {
  OpStatus status = OpStatus::kMiss;
  std::string value;
  double latency_us = 0.0;

  bool hit() const { return status == OpStatus::kHit; }
  bool ok() const {
    return status != OpStatus::kMiss && status != OpStatus::kNotFound &&
           status != OpStatus::kDropped && status != OpStatus::kUnavailable;
  }
};

}  // namespace ditto::sim

#endif  // DITTO_SIM_CACHE_OP_H_
