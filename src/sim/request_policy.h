// RequestPolicy: how one trace request becomes cache traffic.
//
// Every issuer of a workload::Trace applies the same rules: the replay
// runner (sim::RunOptions) and the RESP load generator (net::LoadgenOptions)
// both derive from this struct, so an in-process replay and a served replay
// of one trace issue identical ops. The policy
//   - maps a trace op onto a typed CacheOp (kGet/kMultiGet -> Get,
//     kUpdate/kInsert -> Set, kDelete -> Delete, kExpire -> Expire);
//   - sizes values by a deterministic per-key rule (ValueBytesFor);
//   - decides the paper's client-side miss path: a Get miss re-inserts the
//     object with a Set (set_on_miss). The storage fetch the client pays
//     first is modelled by the runner alone (RunOptions::miss_penalty_us).
//
// Values are prefixes of one caller-owned buffer of MaxValueBytes() 'v'
// bytes, so building an op never allocates; keys are caller-rendered views
// (workload::FormatKey). Ops alias both and live as long as they do.
#ifndef DITTO_SIM_REQUEST_POLICY_H_
#define DITTO_SIM_REQUEST_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/hash.h"
#include "sim/cache_op.h"
#include "workloads/trace.h"

namespace ditto::sim {

struct RequestPolicy {
  size_t value_bytes = 232;
  // When > value_bytes, each key gets a deterministic (hash-derived) value
  // size in [value_bytes, value_bytes_max] — used by size-aware-policy
  // experiments (SIZE, GDS, GDSF).
  size_t value_bytes_max = 0;
  // A Get/MultiGet miss re-inserts the object with a Set.
  bool set_on_miss = true;
  // TTL a kExpire request arms.
  uint64_t expire_ttl_ticks = 64;

  // Size of the value buffer ops alias: the largest ValueBytesFor result.
  size_t MaxValueBytes() const { return std::max(value_bytes, value_bytes_max); }

  // ditto-lint: hot-path-begin(request-policy)
  // Called once per trace request by every issuer; must not allocate.
  size_t ValueBytesFor(uint64_t raw_key) const {
    if (value_bytes_max <= value_bytes) {
      return value_bytes;
    }
    return value_bytes +
           Mix64(raw_key * 0x9e3779b97f4a7c15ULL) % (value_bytes_max - value_bytes + 1);
  }

  // The cache op for trace op `op` on `raw_key`, whose rendered form is
  // `key`. A kMultiGet reaching this point is an unfused one-key lookup.
  CacheOp OpFor(workload::Op op, uint64_t raw_key, std::string_view key,
                std::string_view values) const {
    switch (op) {
      case workload::Op::kGet:
      case workload::Op::kMultiGet:
        return CacheOp::Get(key, /*want_value=*/false);
      case workload::Op::kUpdate:
      case workload::Op::kInsert:
        return CacheOp::Set(key, values.substr(0, ValueBytesFor(raw_key)));
      case workload::Op::kDelete:
        return CacheOp::Delete(key);
      case workload::Op::kExpire:
        return CacheOp::Expire(key, expire_ttl_ticks);
    }
    return CacheOp::Get(key, /*want_value=*/false);
  }

  // Whether an op of `kind` with outcome `hit` is a miss to re-insert.
  bool ReinsertsMiss(OpKind kind, bool hit) const {
    return set_on_miss && !hit && (kind == OpKind::kGet || kind == OpKind::kMultiGet);
  }

  // The re-insert of a missed key.
  CacheOp MissSetOp(uint64_t raw_key, std::string_view key, std::string_view values) const {
    return CacheOp::Set(key, values.substr(0, ValueBytesFor(raw_key)));
  }
  // ditto-lint: hot-path-end(request-policy)
};

}  // namespace ditto::sim

#endif  // DITTO_SIM_REQUEST_POLICY_H_
