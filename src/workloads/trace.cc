#include "workloads/trace.h"

#include <cstdio>
#include <unordered_set>

#include "common/hash.h"

namespace ditto::workload {

uint64_t Footprint(const Trace& trace) {
  std::unordered_set<uint64_t> keys;
  keys.reserve(trace.size() / 4);
  for (const Request& r : trace) {
    keys.insert(r.key);
  }
  return keys.size();
}

std::string KeyString(uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%016llx", static_cast<unsigned long long>(key));
  return buf;
}

std::string_view FormatKey(uint64_t key, KeyBuf* buf) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  buf->data[0] = 'k';
  for (int i = 0; i < 16; ++i) {
    buf->data[1 + i] = kHexDigits[(key >> (60 - 4 * i)) & 0xF];
  }
  return std::string_view(buf->data, 17);
}

Op MixedOpAt(Op base, uint64_t index, const OpMix& mix) {
  if (base != Op::kGet || !mix.Active()) {
    return base;
  }
  // A pure hash of (index, seed) in [0, 1): independent of thread count and
  // replay order.
  const double u = static_cast<double>(Mix64(index ^ (mix.seed * 0x9e3779b97f4a7c15ULL))) /
                   static_cast<double>(UINT64_MAX);
  if (u < mix.delete_fraction) {
    return Op::kDelete;
  }
  if (u < mix.delete_fraction + mix.expire_fraction) {
    return Op::kExpire;
  }
  if (u < mix.delete_fraction + mix.expire_fraction + mix.multiget_fraction) {
    return Op::kMultiGet;
  }
  return Op::kGet;
}

void ApplyOpMix(Trace* trace, const OpMix& mix) {
  for (uint64_t i = 0; i < trace->size(); ++i) {
    (*trace)[i].op = MixedOpAt((*trace)[i].op, i, mix);
  }
}

}  // namespace ditto::workload
