// The harness's result: metrics by name, the counts attempted/failed, the
// output checks that failed, and a fingerprint of every value a replay must
// reproduce exactly. Printed as one `RESULT {json}` line that run.py reads.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  // Sets (or overwrites) metric `name`.
  void Set(const std::string& name, double value) {
    for (auto& [n, v] : metrics_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    metrics_.emplace_back(name, value);
  }

  // Records a failed output check; the run is then not correct.
  void Fail(const std::string& message) {
    if (errors_.size() < 20) {
      errors_.push_back(message);
    }
    correct_ = false;
  }

  // Adds a value that must be identical on every repetition of the run.
  void Fingerprint(const std::string& name, double value) {
    fingerprint_.emplace_back(name, value);
  }

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  void Print(const std::string& workload, uint64_t seed, bool traced) const {
    std::string out = "RESULT {\"workload\": \"" + workload + "\", \"seed\": " +
                      std::to_string(seed) + ", \"traced\": " + (traced ? "true" : "false") +
                      ", \"correct\": " + (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      out += (i ? ", \"" : "\"") + Escape(errors_[i]) + "\"";
    }
    out += "], \"metrics\": " + Object(metrics_) + ", \"fingerprint\": " +
           Object(fingerprint_) + "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string Number(double v) {
    if (!std::isfinite(v)) {
      return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    return out;
  }

  static std::string Object(const std::vector<std::pair<std::string, double>>& kv) {
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      out += (i ? ", \"" : "\"") + kv[i].first + "\": " + Number(kv[i].second);
    }
    return out + "}";
  }

  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> fingerprint_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
