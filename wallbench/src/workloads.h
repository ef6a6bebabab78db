// The three workloads. Each builds its inputs from the seed, sets the
// stack up several times (the median is setup_s), measures for about
// `seconds`, checks every answer against ground truth, and fills a
// Report with the end-to-end metrics and — in traced runs — the
// per-layer ones. See wallbench/README.md for every metric's definition.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace wallbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  unsigned threads = 4;  // total threads the run may keep busy
};

Report run_query_zipf(const RunOptions& options);
Report run_epoch_churn(const RunOptions& options);
Report run_vote_round(const RunOptions& options);

}  // namespace wallbench
