// Open-loop Poisson arrival schedules in nanoseconds from a start time.
//
// Why open-loop: a closed-loop driver (issue, wait, issue) can never
// overload the service — its offered rate collapses to the service
// rate, and the shed path is dead code. Real traffic from millions of
// independent wallets does not wait for other wallets: by the Poisson
// superposition theorem, N independent clients each querying at rate
// r compose into one Poisson process at rate N*r, so a single arrival
// stream at the aggregate rate is the faithful (and cheap) model of a
// million-client population. Arrivals keep coming while the server is
// saturated, so queue growth, shedding and retry-after are actually
// exercised.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace cbl::load {

/// Incremental Poisson arrival generator: exponential inter-arrival
/// gaps at `rate_qps`, accumulated in double nanoseconds so long
/// schedules do not drift. Deterministic for a fixed Rng stream.
class PoissonArrivals {
 public:
  /// Throws std::invalid_argument unless rate_qps > 0.
  PoissonArrivals(double rate_qps, std::uint64_t start_ns = 0);

  /// Advances to and returns the next arrival timestamp (ns since the
  /// clock epoch). Non-decreasing across calls.
  std::uint64_t next_ns(Rng& rng);

  double rate_qps() const { return rate_qps_; }

 private:
  double rate_qps_;
  double t_ns_;  // running arrival time
};

/// First `count` arrivals as a schedule, for tests and replay.
std::vector<std::uint64_t> poisson_schedule_ns(double rate_qps,
                                               std::size_t count, Rng& rng,
                                               std::uint64_t start_ns = 0);

}  // namespace cbl::load
