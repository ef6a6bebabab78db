// Service-capacity model behind Fig. 6 ("max concurrent requests allowed
// under various percentages"). With the prefix list distributed, only a
// fraction f of queries need online interaction; each online query costs
// the server one OPRF evaluation (CPU) and one bucket transfer
// (bandwidth). The sustainable concurrency is whichever resource
// saturates first — CPU for small buckets, bandwidth for large ones,
// which is exactly the paper's left/right panel contrast.
#pragma once

#include <cstdint>

namespace cbl::netsim {

struct ServerProfile {
  unsigned cpu_cores = 8;                    // the paper's E-2174G setup
  double bandwidth_bits_per_sec = 1e9;       // 1 Gbps uplink
};

struct WorkloadProfile {
  double online_fraction = 0.01;       // f: queries needing interaction
  double queries_per_client_per_sec = 1.0;
  // Placeholder; bench_fig6 overwrites it with measure_online_cpu_us().
  double cpu_us_per_online_query = 80;
  double response_bytes = 128;          // k * 32 B bucket payload
  double request_bytes = 64;            // prefix + masked point
};

struct CapacityEstimate {
  double cpu_bound_clients = 0;
  double bandwidth_bound_clients = 0;
  double max_concurrent_clients = 0;  // min of the two
  bool cpu_limited = false;           // which resource binds
};

/// Closed-form capacity: clients such that
///   C * q * f * t_cpu <= cores           (CPU)
///   C * q * f * (resp + req) * 8 <= W    (bandwidth)
CapacityEstimate estimate_capacity(const ServerProfile& server,
                                   const WorkloadProfile& workload);

}  // namespace cbl::netsim
