// Tests for the closed-form capacity model behind Fig. 6: hand-checked
// values, monotonicity, and the CPU-bound vs bandwidth-bound crossover.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "netsim/capacity.h"

namespace cbl::netsim {
namespace {

TEST(Capacity, ClosedFormHandChecked) {
  ServerProfile server;
  server.cpu_cores = 8;
  server.bandwidth_bits_per_sec = 1e9;
  WorkloadProfile w;
  w.online_fraction = 0.01;
  w.queries_per_client_per_sec = 1.0;
  w.cpu_us_per_online_query = 100.0;  // 1e-4 core-sec
  w.response_bytes = 1000;
  w.request_bytes = 0;

  const auto est = estimate_capacity(server, w);
  // CPU: 8 / (0.01 * 1e-4) = 8e6 clients.
  EXPECT_NEAR(est.cpu_bound_clients, 8e6, 1);
  // BW: 1e9 / (0.01 * 8000) = 1.25e7 clients.
  EXPECT_NEAR(est.bandwidth_bound_clients, 1.25e7, 1);
  EXPECT_TRUE(est.cpu_limited);
  EXPECT_NEAR(est.max_concurrent_clients, 8e6, 1);
}

TEST(Capacity, MonotoneInOnlineFraction) {
  ServerProfile server;
  WorkloadProfile w;
  double prev = std::numeric_limits<double>::infinity();
  for (double f : {0.0025, 0.005, 0.01, 0.02, 0.04}) {
    w.online_fraction = f;
    const double cap = estimate_capacity(server, w).max_concurrent_clients;
    EXPECT_LT(cap, prev) << "f=" << f;
    prev = cap;
  }
}

TEST(Capacity, ZeroOnlineFractionIsUnbounded) {
  ServerProfile server;
  WorkloadProfile w;
  w.online_fraction = 0;
  EXPECT_TRUE(std::isinf(estimate_capacity(server, w).max_concurrent_clients));
}

TEST(Capacity, LargeResponsesAreBandwidthBound) {
  // The paper's stronger-privacy setting: response grows ~16x, flipping
  // the binding resource from CPU to bandwidth.
  ServerProfile server;
  server.cpu_cores = 8;
  server.bandwidth_bits_per_sec = 1e9;
  WorkloadProfile small, large;
  small.cpu_us_per_online_query = large.cpu_us_per_online_query = 150;
  small.response_bytes = 130;     // k ~ 4 entries
  large.response_bytes = 31'000;  // k ~ 977 entries

  EXPECT_TRUE(estimate_capacity(server, small).cpu_limited);
  EXPECT_FALSE(estimate_capacity(server, large).cpu_limited);
  EXPECT_GT(estimate_capacity(server, small).max_concurrent_clients,
            estimate_capacity(server, large).max_concurrent_clients);
}

}  // namespace
}  // namespace cbl::netsim
