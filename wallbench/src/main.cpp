// Wall-clock benchmark driver: runs one workload of the real library
// stack and prints a human-readable report followed by one JSON line
// with every metric. Usually started through wallbench/run.py, which
// builds it and selects the end-to-end or per-layer metrics.
//
//   wallbench --workload query_zipf|epoch_churn|vote_round --seed N
//             --seconds S --trace 0|1
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload query_zipf|epoch_churn|vote_round "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  wallbench::RunOptions options;
  // At most 4 threads and at most one per core, but at least 2:
  // epoch_churn's provider thread needs a query worker beside it.
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads = std::clamp(hw == 0 ? 4u : hw, 2u, 4u);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || options.seconds <= 0) {
    return usage();
  }
  try {
    wallbench::Report report;
    if (workload == "query_zipf") {
      report = wallbench::run_query_zipf(options);
    } else if (workload == "epoch_churn") {
      report = wallbench::run_epoch_churn(options);
    } else if (workload == "vote_round") {
      report = wallbench::run_vote_round(options);
    } else {
      return usage();
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
