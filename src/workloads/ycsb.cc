#include "workloads/ycsb.h"

#include <stdexcept>
#include <string>

#include "common/hash.h"

namespace ditto::workload {

YcsbGenerator::YcsbGenerator(const YcsbConfig& config, uint64_t seed)
    : config_(config), rng_(seed), zipf_(config.num_keys, config.zipf_theta, seed) {
  switch (config.workload) {
    case 'A':
      update_fraction_ = 0.5;
      break;
    case 'B':
      update_fraction_ = 0.05;
      break;
    case 'C':
      update_fraction_ = 0.0;
      break;
    case 'D':
      update_fraction_ = 0.05;
      latest_ = true;
      break;
    default:
      throw std::invalid_argument(std::string("unknown YCSB workload '") + config.workload +
                                  "' (expected A, B, C or D)");
  }
}

uint64_t YcsbGenerator::NextKey() {
  const uint64_t rank = zipf_.Next(rng_);
  if (latest_) {
    // Workload D reads the "latest" distribution: rank 0 is the most
    // recently inserted key.
    const uint64_t total = config_.num_keys + inserted_;
    return total - 1 - (rank % total);
  }
  return Mix64(rank) % config_.num_keys;
}

Request YcsbGenerator::Next() {
  const double roll = rng_.NextDouble();
  if (roll < update_fraction_) {
    if (latest_) {  // D inserts instead of updating
      const uint64_t key = config_.num_keys + inserted_;
      inserted_++;
      return Request{Op::kInsert, key};
    }
    return Request{Op::kUpdate, NextKey()};
  }
  return Request{Op::kGet, NextKey()};
}

Trace MakeYcsbTrace(const YcsbConfig& config, uint64_t count, uint64_t seed) {
  YcsbGenerator gen(config, seed);
  Trace trace;
  trace.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    trace.push_back(gen.Next());
  }
  return trace;
}

}  // namespace ditto::workload
