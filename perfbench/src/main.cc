// perfbench_harness: runs one benchmark workload and prints a RESULT line.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans PATH]
//
// Workloads: wire-ycsb-a, replay-ycsb-c, replay-churn-elastic. See
// perfbench/README.md for what each measures. run.py builds and drives this.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "report.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.traced = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  perfbench::Report report;
  if (args.workload == "wire-ycsb-a") {
    perfbench::RunWire(args, &report);
  } else if (args.workload == "replay-ycsb-c" || args.workload == "replay-churn-elastic") {
    perfbench::RunReplay(args, &report);
  } else {
    std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Print(args.workload, args.seed, args.traced);
  return 0;
}
