// YCSB core workloads A-D over a Zipfian (theta = 0.99) key popularity
// distribution, matching the paper's synthetic benchmark setup: 10M keys,
// 256-byte key-value pairs.
#ifndef DITTO_WORKLOADS_YCSB_H_
#define DITTO_WORKLOADS_YCSB_H_

#include <cstdint>
#include <string>

#include "common/rand.h"
#include "workloads/trace.h"

namespace ditto::workload {

struct YcsbConfig {
  char workload = 'C';            // 'A' 50/50 GET/UPDATE, 'B' 95/5, 'C' 100 GET,
                                  // 'D' 95 GET / 5 INSERT with latest distribution
  uint64_t num_keys = 10'000'000;
  double zipf_theta = 0.99;
  size_t value_bytes = 232;       // 256-B KV pair: 17-B key + header + value
};

class YcsbGenerator {
 public:
  // Throws std::invalid_argument unless config.workload is 'A'-'D'.
  YcsbGenerator(const YcsbConfig& config, uint64_t seed);

  Request Next();

  const YcsbConfig& config() const { return config_; }
  uint64_t inserted_keys() const { return inserted_; }

 private:
  uint64_t NextKey();

  YcsbConfig config_;
  Rng rng_;
  // One Zipfian rank per key draw. A-C scramble it over the key space (as
  // ScrambledZipfianGenerator does); D reads it through the "latest"
  // transform, skewed toward recent inserts.
  ZipfianGenerator zipf_;
  bool latest_ = false;  // workload D: inserts where the others update
  uint64_t inserted_ = 0;
  double update_fraction_;
};

// Materializes `count` requests (benches replay materialized traces so that
// every system under comparison sees the identical request sequence).
// Throws like YcsbGenerator.
Trace MakeYcsbTrace(const YcsbConfig& config, uint64_t count, uint64_t seed);

}  // namespace ditto::workload

#endif  // DITTO_WORKLOADS_YCSB_H_
