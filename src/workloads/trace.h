// Workload traces: a trace is a sequence of requests over an integer key
// space. Generators produce traces with controlled algorithm affinity
// (LRU-friendly, LFU-friendly, phase-switching) standing in for the paper's
// real-world trace families (see DESIGN.md §1 for the substitution).
//
// Requests carry a typed op kind. Beyond the classic kGet/kUpdate/kInsert,
// traces can carry kDelete, kExpire (arm a TTL), and kMultiGet (a lookup the
// replay engines may fuse with adjacent kMultiGets of the same shard into one
// pipelined multi-key request). ApplyOpMix rewrites a deterministic fraction
// of a trace's Gets into these kinds.
//
// A request is one 64-bit word: a 3-bit op and a 61-bit key. The
// materialized trace is a long replay's largest heap object (a 400k-request
// churn trace is 3.2 MB), and the dispatch loop streams it, so a request
// carries no padding. Keys must not exceed kMaxKey = 2^61 - 1 (a Debug assert
// checks it); every producer stays far below 2^40: the generators emit dense
// ranks plus a small key_base, and trace_file emits interned ids.
#ifndef DITTO_WORKLOADS_TRACE_H_
#define DITTO_WORKLOADS_TRACE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rand.h"

namespace ditto::workload {

enum class Op : uint8_t { kGet, kUpdate, kInsert, kDelete, kExpire, kMultiGet };

// Bits of a Request's key; keys are in [0, kMaxKey].
inline constexpr int kKeyBits = 61;
inline constexpr uint64_t kMaxKey = (uint64_t{1} << kKeyBits) - 1;
static_assert(static_cast<uint64_t>(Op::kMultiGet) < (uint64_t{1} << (64 - kKeyBits)),
              "every Op must fit Request's op bit-field");

struct Request {
  Request() = default;
  // Keeps `{op, key}` brace-init compiling: without it the key would be a
  // narrowing conversion into the bit-field.
  Request(Op op_in, uint64_t key_in) : op(op_in), key(key_in) { assert(key_in <= kMaxKey); }

  Op op : 64 - kKeyBits;
  uint64_t key : kKeyBits;
};
static_assert(sizeof(Request) == 8, "a request is one word");

using Trace = std::vector<Request>;

// Number of distinct keys referenced by a trace (its footprint).
uint64_t Footprint(const Trace& trace);

// Renders an integer key as the cache key string ("k%016x" zero-padded so
// all keys have equal length).
std::string KeyString(uint64_t key);

// Allocation-free variant for replay hot paths: renders the same 17-byte key
// into caller-owned storage and returns a view aliasing *buf (valid until the
// next FormatKey into the same buffer). KeyString(k) == FormatKey(k, &buf)
// for every key.
struct KeyBuf {
  char data[18];
};
std::string_view FormatKey(uint64_t key, KeyBuf* buf);

// A deterministic op-kind mix applied over a trace's Gets. Fractions are
// cumulative-checked in the order delete, expire, multiget; their sum should
// stay <= 1. Only kGet requests are rewritten, so write ratios of YCSB-style
// traces are preserved.
struct OpMix {
  double delete_fraction = 0.0;
  double expire_fraction = 0.0;
  double multiget_fraction = 0.0;
  uint64_t seed = 0x6f706d6978ULL;  // "opmix"

  bool Active() const {
    return delete_fraction > 0.0 || expire_fraction > 0.0 || multiget_fraction > 0.0;
  }
};

// The op kind request `index` of a trace replays under `mix`: a pure function
// of (base op, index, mix), so every replay engine — sharded or interleaved,
// any thread count — sees the identical op stream.
Op MixedOpAt(Op base, uint64_t index, const OpMix& mix);

// Materializes MixedOpAt over a whole trace.
void ApplyOpMix(Trace* trace, const OpMix& mix);

// Visits the requests [begin, end) of a trace in the order `n` concurrent
// clients replaying disjoint strided shards would issue them: client c owns
// indices begin+c, begin+c+n, ... and, standing in for unsynchronized
// execution, a seeded generator repeatedly picks a live client and lets it
// issue a burst of 1-8 of its next requests. visit(c, index) sees each index
// exactly once, in each client's own ascending order; done(c) is called right
// after client c's last request. n == 1 visits [begin, end) in trace order.
// This is the concurrency effect studied in Figures 5a/5b and the replay
// order of sim::RunTrace.
template <typename Visit, typename Done>
void ForEachInterleaved(size_t begin, size_t end, size_t n, uint64_t seed, Visit&& visit,
                        Done&& done) {
  std::vector<size_t> cursor(n);
  std::vector<size_t> live;
  live.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    cursor[c] = begin + c;
    if (cursor[c] < end) {
      live.push_back(c);
    }
  }
  Rng rng(seed);
  while (!live.empty()) {
    const size_t pick = rng.NextBelow(live.size());
    const size_t c = live[pick];
    const uint64_t burst = 1 + rng.NextBelow(8);
    for (uint64_t b = 0; b < burst && cursor[c] < end; ++b) {
      visit(c, cursor[c]);
      cursor[c] += n;
    }
    if (cursor[c] >= end) {
      done(c);
      live[pick] = live.back();
      live.pop_back();
    }
  }
}

}  // namespace ditto::workload

#endif  // DITTO_WORKLOADS_TRACE_H_
